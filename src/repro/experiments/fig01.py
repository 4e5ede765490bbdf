"""Figure 1: theoretical goodput for 802.11a (a) and 802.11n (b).

Pure closed-form evaluation of the capacity model
(``repro.analysis.capacity``) — no simulation: each (figure, rate)
cell is one deterministic function call, so seeds do not apply.
The paper's quoted checkpoints: ~8% average HACK improvement below
100 Mbps on 802.11n, ~20% at 600 Mbps, ~7% at 150 Mbps.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.capacity import figure_1a_point, figure_1b_point, \
    figure_1b_rates
from ..phy.params import PHY_11A
from .batch import SweepResult, SweepSpec
from .common import format_table, require

TITLE = "Figure 1 — theoretical goodput"
PAPER_SAYS = (
    "Fig 1b: ~8% average HACK gain below 100 Mbps, ~7% at 150 "
    "Mbps, rising to ~20% at 600 Mbps; Fig 1a shows the same "
    "divergence on 802.11a (TCP ≈23, HACK ≈27 at 54 Mbps).")

def analytic_point(figure: str, rate_mbps: float) -> Dict[str, float]:
    """Closed-form goodput at one PHY rate (the sweep work function)."""
    if figure == "1a":
        point = figure_1a_point(rate_mbps)
    elif figure == "1b":
        point = figure_1b_point(rate_mbps)
    else:
        raise ValueError(f"unknown figure {figure!r}")
    return {"tcp_mbps": point.tcp_goodput_mbps,
            "hack_mbps": point.hack_goodput_mbps}


def sweep_spec(quick: bool = False, seeds=None) -> SweepSpec:
    """Closed-form cells: ``quick`` and ``seeds`` are ignored."""
    spec = SweepSpec("fig01")
    for rate in PHY_11A.data_rates:
        spec.add_analytic(("1a", rate),
                          "repro.experiments.fig01:analytic_point",
                          figure="1a", rate_mbps=rate)
    for rate in figure_1b_rates():
        spec.add_analytic(("1b", rate),
                          "repro.experiments.fig01:analytic_point",
                          figure="1b", rate_mbps=rate)
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for figure, rate in result.keys():
        metrics = result.metrics_for((figure, rate))[0]
        tcp, hack = metrics["tcp_mbps"], metrics["hack_mbps"]
        improvement = (hack / tcp - 1.0) if tcp else 0.0
        rows.append({"figure": figure,
                     "phy": "802.11a" if figure == "1a" else "802.11n",
                     "rate_mbps": rate,
                     "tcp_mbps": tcp, "hack_mbps": hack,
                     "improvement_pct": 100 * improvement})
    return rows


def check_rows(rows: List[Dict]) -> str:
    """The paper's headline checkpoints: HACK's analytic gain is ~7%
    at 150 Mbps and well past 14% at 600 Mbps (802.11n)."""
    by_rate = {(r["figure"], r["rate_mbps"]): r for r in rows}
    at_150, at_600 = by_rate[("1b", 150.0)], by_rate[("1b", 600.0)]
    clauses = require(
        (at_150, at_600),
        (abs(at_150["improvement_pct"] - 7.0) <= 2.0,
         "gain at 150 Mbps is not 7% +- 2"),
        (at_600["improvement_pct"] > 14.0,
         "gain at 600 Mbps is not above 14%"))
    return (f"fig01: {clauses} clause(s) hold; HACK "
            f"+{at_150['improvement_pct']:.1f}% at 150 Mbps, "
            f"+{at_600['improvement_pct']:.1f}% at 600 Mbps")


def format_rows(rows: List[Dict]) -> str:
    out = []
    for figure in ("1a", "1b"):
        subset = [r for r in rows if r["figure"] == figure]
        table = format_table(
            ["rate (Mbps)", "TCP (Mbps)", "TCP/HACK (Mbps)", "gain"],
            [[f"{r['rate_mbps']:.0f}", f"{r['tcp_mbps']:.2f}",
              f"{r['hack_mbps']:.2f}", f"+{r['improvement_pct']:.1f}%"]
             for r in subset],
            title=f"Figure {figure}: theoretical goodput "
                  f"({subset[0]['phy']})")
        out.append(table)
    return "\n\n".join(out)
