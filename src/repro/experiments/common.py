"""Shared helpers for experiment harnesses.

An experiment module *is* its record: ``sweep_spec(quick, seeds,
**scope)`` declares the grid, ``rows_from_sweep(result)`` projects
records to row dicts, ``format_rows(rows)`` renders the paper-style
table, and ``check_rows(rows)`` is its pass/fail contract (raises
``AssertionError`` naming the offending row, returns a one-line
summary).  Its EXPERIMENTS.md section is rendered from it: ``TITLE``
the heading, then the table, ``PAPER_SAYS`` (the paper's claim) and
the module docstring, which is the experiment's only prose.
:func:`run` executes one module (``runner.main`` hands every target's
spec to one ``SweepRunner.run_many`` schedule instead); ``quick=True``
shrinks durations/seeds so the whole suite stays runnable in CI, the
default is the paper-fidelity grid.
``seeds`` replaces the seeds a grid runs; ``None`` keeps its own
policy, :func:`seeds_for`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..sim.units import MS, SEC
from ..stats.fct import has_completions
from .batch import SweepRunner

#: Seeds used for "averaged across five runs" experiments (paper §4).
#: Constants: a grid runs other seeds as ``sweep_spec(seeds=...)``.
FULL_SEEDS = (1, 2, 3, 4, 5)
QUICK_SEEDS = (1,)


def seeds_for(quick: bool) -> Sequence[int]:
    return QUICK_SEEDS if quick else FULL_SEEDS


def steady_state_durations(quick: bool) -> Dict[str, int]:
    """duration/warmup for steady-state goodput measurements."""
    if quick:
        return {"duration_ns": 1500 * MS, "warmup_ns": 700 * MS}
    return {"duration_ns": 4 * SEC, "warmup_ns": 2 * SEC}


def combined_carried(metrics: Dict) -> float:
    """Carried load summed over a record's cells (Mbps)."""
    return sum(block["carried_mbps"] for block in metrics["cells"])


def per_cell_carried(metrics: Dict) -> float:
    return combined_carried(metrics) / len(metrics["cells"])


def collision_frac(metrics: Dict) -> float:
    """Share of the frames on the air that collided."""
    sent = metrics["medium_frames_sent"]
    return metrics["medium_frames_collided"] / sent if sent else 0.0


def fct_metric(field: str):
    """A record's flow-completion-time percentile ``field`` (ms); a
    cell that completed no flow has none, and says so."""
    def metric(metrics: Dict) -> float:
        block = metrics["fct"]["fct_ms"]
        if not has_completions(block):
            raise ValueError("cell completed zero flows; raise the "
                             "run duration or arrival rate")
        return block[field]
    return metric


def run(module: Any, quick: bool = False,
        runner: Optional[SweepRunner] = None, **scope: Any) -> List[Dict]:
    """Execute one experiment module's grid and return its rows.

    ``scope`` narrows the grid through ``sweep_spec``'s own keyword
    arguments (e.g. ``client_counts=(1,)`` for fig10, or ``seeds``).
    """
    runner = runner or SweepRunner()
    return module.rows_from_sweep(
        runner.run(module.sweep_spec(quick, **scope)))


def require(rows: Iterable[Dict], *claims: Any) -> int:
    """The clauses of a ``check_rows`` contract about ``rows``: each
    claim is ``(holds, what it means when it does not)``, or falsy
    when it does not apply to these rows (``applies and (holds,
    ...)``).  Raises naming the first broken claim and the row(s),
    else returns how many claims applied and held."""
    claims = [claim for claim in claims if claim]
    for holds, broken in claims:
        if not holds:
            raise AssertionError(
                f"{broken}: " + " vs ".join(str(row) for row in rows))
    return len(claims)


def format_table(headers: List[str], rows: List[List[str]],
                 title: str = "") -> str:
    """Fixed-width text table (what the bench harness prints)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i])
                               for i, c in enumerate(row)))
    return "\n".join(lines)
