"""Figure 10: 802.11n aggregate goodput vs number of clients.

150 Mbps data rate, 24 Mbps LL ACK rate, staggered bulk downloads to
1/2/4/10 clients, aggregate steady-state goodput for four schemes:
UDP, TCP/HACK with MORE DATA, opportunistic TCP/HACK, and stock
TCP/802.11n.  Paper result: MORE DATA HACK gains +15% (1 client) to
+22% (10 clients) over stock TCP; opportunistic HACK barely helps; UDP
is flat.

The §3.3.2 footnote statistic (fraction of augmented LL ACKs fitting
within AIFS; paper: 98.5%) is computed from the MORE DATA runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from ..core.policies import HackPolicy
from ..sim.units import MS
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec, mean_stdev
from .common import format_table, require, seeds_for, \
    steady_state_durations

TITLE = "Figure 10 — goodput vs client count"
PAPER_SAYS = (
    "150 Mbps 802.11n: UDP flat (~unaffected by client count); "
    "MORE DATA HACK gains +15% (1 client) to +22% (10 clients) "
    "over stock TCP; opportunistic HACK does not significantly "
    "outperform stock.  §3.3.2 footnote: 98.5% of augmented LL "
    "ACKs fit within AIFS.")

SCHEMES = (
    ("UDP", None),
    ("TCP/HACK More Data", HackPolicy.MORE_DATA),
    ("TCP/Opp. HACK", HackPolicy.OPPORTUNISTIC),
    ("TCP/802.11", HackPolicy.VANILLA),
)
MORE_DATA_LABEL = "TCP/HACK More Data"


def _config(policy: Optional[HackPolicy], n_clients: int, seed: int,
            quick: bool) -> ScenarioConfig:
    durations = steady_state_durations(quick)
    common = dict(phy_mode="11n", data_rate_mbps=150.0,
                  n_clients=n_clients, seed=seed,
                  stagger_ns=50 * MS, **durations)
    if policy is None:
        return ScenarioConfig(traffic="udp_download",
                              udp_rate_mbps=220.0 / n_clients, **common)
    return ScenarioConfig(traffic="tcp_download", policy=policy,
                          **common)


def sweep_spec(quick: bool = False, seeds=None,
               client_counts=(1, 2, 4, 10)) -> SweepSpec:
    spec = SweepSpec("fig10")
    for n_clients in client_counts:
        for label, policy in SCHEMES:
            for seed in seeds or seeds_for(quick):
                spec.add_scenario(
                    (n_clients, label),
                    _config(policy, n_clients, seed, quick))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for n_clients, label in result.keys():
        key = (n_clients, label)
        stats = result.cell(key, "aggregate_goodput_mbps")
        fits = result.values(key, "hack_fit_fraction") \
            if label == MORE_DATA_LABEL else []
        rows.append({
            "figure": "10", "clients": n_clients, "scheme": label,
            "goodput_mbps": stats["mean"],
            "stdev": stats["stdev"],
            "hack_fit_fraction": mean_stdev(fits)["mean"]
            if fits else None,
        })
    return rows


def check_rows(rows: List[Dict]) -> str:
    """Fig 10's ordering at every client count present — UDP >=
    MORE DATA HACK > stock TCP, opportunistic HACK below MORE DATA —
    and the AIFS-fit footnote (paper: 98.5%)."""
    clauses = 0
    gains = []
    for n in sorted({r["clients"] for r in rows}):
        cell = {r["scheme"]: r for r in rows if r["clients"] == n}
        hack, tcp, udp, opp = (
            cell[s]["goodput_mbps"] for s in (
                MORE_DATA_LABEL, "TCP/802.11", "UDP", "TCP/Opp. HACK"))
        clauses += require(
            cell.values(),
            (hack > 1.05 * tcp, "MORE DATA HACK is not >5% above stock TCP"),
            (udp > 0.95 * hack, "UDP falls >5% below MORE DATA HACK"),
            (opp < hack, "opportunistic HACK is not below MORE DATA"),
            (cell[MORE_DATA_LABEL]["hack_fit_fraction"] > 0.9,
             "<= 90% of augmented LL ACKs fit AIFS"))
        gains.append(100 * (hack / tcp - 1))
    return (f"fig10: {clauses} clause(s) hold; MORE DATA HACK "
            f"+{min(gains):.1f}% to +{max(gains):.1f}% over stock TCP")


def format_rows(rows: List[Dict]) -> str:
    body = []
    for row in rows:
        body.append([f"{row['clients']} client" +
                     ("s" if row["clients"] > 1 else ""),
                     row["scheme"], f"{row['goodput_mbps']:.1f}",
                     f"{row['stdev']:.1f}"])
    table = format_table(
        ["clients", "scheme", "aggregate goodput (Mbps)", "stdev"],
        body, title="Figure 10: goodput vs client count (802.11n, "
                    "150 Mbps)")
    # Improvement summary + AIFS-fit footnote.
    lines = [table, ""]
    for n in sorted({r["clients"] for r in rows}):
        by_scheme = {r["scheme"]: r for r in rows if r["clients"] == n}
        hack = by_scheme["TCP/HACK More Data"]["goodput_mbps"]
        tcp = by_scheme["TCP/802.11"]["goodput_mbps"]
        lines.append(f"  {n} clients: MORE DATA HACK vs stock TCP: "
                     f"+{100 * (hack / tcp - 1):.1f}%")
    fits = [r["hack_fit_fraction"] for r in rows
            if r["hack_fit_fraction"] is not None]
    if fits:
        lines.append(f"  augmented LL ACKs fitting within AIFS: "
                     f"{100 * statistics.fmean(fits):.1f}% "
                     f"(paper: 98.5%)")
    return "\n".join(lines)
