"""Figure 12: analytical predictions vs simulated goodput per PHY rate.

For each 802.11n rate, the highest achievable simulated goodput
(lossless channel, the best case of Fig 11's machinery) is compared
with the closed-form prediction.  Expected shape (paper §4.3):
simulated goodputs fall below the analytic curves (collisions, TCP
dynamics), but HACK's *relative* improvement exceeds the analytic
prediction — 14% vs 7% at 150 Mbps — because stock TCP additionally
suffers data/ACK collisions that HACK eliminates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.capacity import hack_goodput_11n, tcp_goodput_11n
from ..core.policies import HackPolicy
from ..phy.params import HT40_SGI_RATES_1SS
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require, seeds_for, \
    steady_state_durations

TITLE = "Figure 12 — theory vs simulation"
PAPER_SAYS = (
    "Simulated goodputs fall below the analytic curves (collisions, "
    "TCP dynamics), but the simulated HACK improvement exceeds the "
    "analytic prediction: 14% vs 7% at 150 Mbps, because stock TCP "
    "also suffers data/ACK collisions that HACK eliminates.")

QUICK_RATES = (15.0, 60.0, 150.0)

SCHEMES = (("sim_tcp_mbps", HackPolicy.VANILLA),
           ("sim_hack_mbps", HackPolicy.MORE_DATA))


def _config(policy: HackPolicy, rate: float, seed: int,
            quick: bool) -> ScenarioConfig:
    durations = steady_state_durations(quick)
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=rate, n_clients=1,
        traffic="tcp_download", policy=policy, seed=seed, stagger_ns=0,
        **durations)


def sweep_spec(quick: bool = False, seeds=None,
               rates: Sequence[float] = None) -> SweepSpec:
    rates = rates or (QUICK_RATES if quick else HT40_SGI_RATES_1SS)
    spec = SweepSpec("fig12")
    for rate in rates:
        for key, policy in SCHEMES:
            for seed in seeds or seeds_for(quick):
                spec.add_scenario((rate, key),
                                  _config(policy, rate, seed, quick))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rates: List[float] = []
    for rate, _ in result.keys():
        if rate not in rates:
            rates.append(rate)
    rows: List[Dict] = []
    for rate in rates:
        row: Dict = {"figure": "12", "rate_mbps": rate,
                     "theory_tcp_mbps": tcp_goodput_11n(rate),
                     "theory_hack_mbps": hack_goodput_11n(rate)}
        for key, _ in SCHEMES:
            row[key] = result.cell((rate, key),
                                   "aggregate_goodput_mbps")["mean"]
        row["sim_improvement_pct"] = 100 * (
            row["sim_hack_mbps"] / row["sim_tcp_mbps"] - 1)
        row["theory_improvement_pct"] = 100 * (
            row["theory_hack_mbps"] / row["theory_tcp_mbps"] - 1)
        rows.append(row)
    return rows


def check_rows(rows: List[Dict]) -> str:
    """Fig 12's shape at every rate present: simulated goodputs stay
    below their analytic bounds, and at 150 Mbps the simulated HACK
    improvement exceeds the analytic one (paper: 14% vs 7%) because
    HACK also removes stock TCP's data/ACK collisions."""
    clauses = 0
    for row in rows:
        clauses += require(
            (row,),
            (row["sim_tcp_mbps"] <= 1.02 * row["theory_tcp_mbps"],
             "simulated stock TCP exceeds its analytic bound"),
            (row["sim_hack_mbps"] <= 1.03 * row["theory_hack_mbps"],
             "simulated HACK exceeds its analytic bound"))
    at_150 = next(r for r in rows if r["rate_mbps"] == 150.0)
    sim, theory = (at_150["sim_improvement_pct"],
                   at_150["theory_improvement_pct"])
    clauses += require(
        (at_150,), (sim > max(10.0, theory),
                    "simulated gain at 150 Mbps not above 10% and "
                    "the analytic gain"))
    return (f"fig12: {clauses} clause(s) hold; at 150 Mbps simulated "
            f"+{sim:.1f}% vs analytic +{theory:.1f}%")


def format_rows(rows: List[Dict]) -> str:
    return format_table(
        ["rate", "theory TCP", "sim TCP", "theory HACK", "sim HACK",
         "theory gain", "sim gain"],
        [[f"{r['rate_mbps']:.0f}", f"{r['theory_tcp_mbps']:.1f}",
          f"{r['sim_tcp_mbps']:.1f}", f"{r['theory_hack_mbps']:.1f}",
          f"{r['sim_hack_mbps']:.1f}",
          f"+{r['theory_improvement_pct']:.1f}%",
          f"+{r['sim_improvement_pct']:.1f}%"] for r in rows],
        title="Figure 12: theoretical vs simulated goodput (802.11n)")
