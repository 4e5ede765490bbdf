"""Sweep observability: live progress/ETA and cache status reports.

Two consumers:

* :class:`ProgressReporter` — a callback for
  :class:`repro.experiments.batch.SweepRunner` (``--progress`` on the
  sweep CLIs).  The runner emits a :class:`SweepProgress` snapshot
  after the cache scan and after every point completes (run, cached,
  or failed); the reporter throttles and renders them to a stream.
* :func:`sweep_status` / :func:`format_status` — ``repro sweep
  --status``: inspect a cache directory against a spec *without
  running anything*.  The audit is one tally of probe verdicts per
  cell (``{key: {verdict: count}}``); the table, the cell's summary
  verdict (:func:`cell_state`) and the exit code are read from it.
  This is how a killed grid is audited before (or instead of)
  resuming it.

The runner counts each snapshot from its per-point records
(``batch.SweepRecord``), as a ``SweepResult`` counts its own.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, TextIO, Tuple

#: Cache probe verdicts (``SweepCache.probe``), in the order status
#: tables report them.
PROBE_STATES = ("complete", "missing", "failed", "corrupt")


# ----------------------------------------------------------------------
# Live progress
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepProgress:
    """One snapshot of a running sweep, emitted by the runner."""

    spec_name: str
    total: int
    executed: int = 0
    cached: int = 0
    failed: int = 0
    elapsed_s: float = 0.0

    @property
    def completed(self) -> int:
        """Points resolved one way or another (run, cached, failed)."""
        return self.executed + self.cached + self.failed

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.completed)

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    @property
    def rate_per_s(self) -> Optional[float]:
        """Executed points per wall second (cache hits are ~free, so
        they are excluded — the rate estimates *simulation* speed)."""
        if self.executed == 0 or self.elapsed_s <= 0:
            return None
        return self.executed / self.elapsed_s

    @property
    def eta_s(self) -> Optional[float]:
        rate = self.rate_per_s
        if rate is None or rate <= 0:
            return None
        return self.remaining / rate


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_progress(progress: SweepProgress) -> str:
    """One human-readable progress line."""
    parts = [f"{progress.completed}/{progress.total} points",
             f"{progress.executed} run",
             f"{progress.cached} cached"]
    if progress.failed:
        parts.append(f"{progress.failed} FAILED")
    rate = progress.rate_per_s
    if rate is not None:
        parts.append(f"{rate:.2f} pts/s")
    if progress.finished:
        parts.append(f"done in {progress.elapsed_s:.1f}s")
    else:
        parts.append(f"ETA {_fmt_eta(progress.eta_s)}")
    return f"[sweep {progress.spec_name}] " + ", ".join(parts)


class ProgressReporter:
    """Throttled progress printer (the ``--progress`` implementation).

    Callable with a :class:`SweepProgress`; prints at most one line per
    ``min_interval_s`` except that the first and final snapshots (and
    any snapshot recording a new failure) always print.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval_s: float = 0.5):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.lines_emitted = 0
        self._last_emit: Optional[float] = None
        self._last_failed = 0

    def __call__(self, progress: SweepProgress) -> None:
        now = time.monotonic()
        force = (self._last_emit is None or progress.finished
                 or progress.failed > self._last_failed)
        if not force and now - self._last_emit < self.min_interval_s:
            return
        self._last_emit = now
        self._last_failed = progress.failed
        self.lines_emitted += 1
        print(render_progress(progress), file=self.stream, flush=True)


# ----------------------------------------------------------------------
# Cache status (``repro sweep --status``)
# ----------------------------------------------------------------------
def sweep_status(spec, cache) -> Dict[Tuple[Any, ...], Dict[str, int]]:
    """Audit ``cache`` against ``spec``: ``{cell key: {verdict:
    count}}`` in spec order, one probe per point.

    Pure inspection — no simulation, no cache-counter mutation, no
    file modification.  ``spec`` is a
    :class:`repro.experiments.batch.SweepSpec`, ``cache`` a
    :class:`repro.experiments.batch.SweepCache` (imported lazily to
    keep this module dependency-free of the engine).
    """
    from .batch import point_signature

    tallies: Dict[Tuple[Any, ...], Dict[str, int]] = {}
    for point in spec.points:
        tally = tallies.setdefault(point.key,
                                   dict.fromkeys(PROBE_STATES, 0))
        tally[cache.probe(point_signature(point))] += 1
    return tallies


def cell_state(tally: Dict[str, int]) -> str:
    """A cell's summary verdict: ``complete`` only when every point is;
    otherwise the most severe verdict present (failed, corrupt,
    missing)."""
    for verdict in ("failed", "corrupt", "missing"):
        if tally[verdict]:
            return verdict
    return "complete"


def format_status(spec_name: str,
                  tallies: Dict[Tuple[Any, ...], Dict[str, int]]) -> str:
    """Text table: one row per cell, plus a totals line."""
    from .common import format_table

    rows = [["/".join(str(k) for k in key) or "-", cell_state(tally),
             *(str(tally[verdict]) for verdict in PROBE_STATES)]
            for key, tally in tallies.items()]
    table = format_table(["cell", "state", *PROBE_STATES], rows,
                         title=f"Sweep status: {spec_name}")
    totals = {verdict: sum(tally[verdict] for tally in tallies.values())
              for verdict in PROBE_STATES}
    points = sum(totals.values())
    verdict = "COMPLETE" if totals["complete"] == points \
        else "INCOMPLETE"
    summary = (f"{verdict}: {totals['complete']}/{points} "
               f"points complete, {totals['missing']} missing, "
               f"{totals['failed']} failed, "
               f"{totals['corrupt']} corrupt")
    return f"{table}\n{summary}"
