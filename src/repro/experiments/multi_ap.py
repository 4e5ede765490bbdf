"""Multi-AP overlapping cells: HACK under inter-cell contention.

The paper evaluates one BSS in isolation; this experiment (an
extension, not a paper artifact) opens the first scaling axis beyond
client count — several co-channel cells (AP + 2 clients each) sharing
one collision domain (``ScenarioConfig.cells``; the inter-cell
semantics are ``repro.sim.medium``'s).  The medium-utilisation
argument HACK rests on is strongest exactly here, where airtime is
scarcest.  Grid: cell count (1/2/3) x HACK policy (MORE
DATA vs. stock 802.11n) x workload (static bulk downloads vs. Poisson
flow churn).

Reported per grid cell: combined carried traffic across cells, the
per-cell mean (the number that must drop strictly below the isolated
single-cell baseline once a second cell contends), cross-cell Jain
fairness, the summed per-cell clean-airtime share (<= 1 by
construction: clean transmissions never overlap), the collision
fraction, and — for the churn workload — merged FCT p50 and
completion counts from the per-cell collectors.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..traffic.arrivals import ArrivalSpec, SizeSpec
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import collision_frac, combined_carried, \
    fct_metric, format_table, per_cell_carried, require, seeds_for

TITLE = "Multi-AP overlapping cells (extension; cells=N)"
PAPER_SAYS = (
    "Nothing — the paper evaluates one BSS in isolation.  This "
    "extension puts 1/2/3 full BSSes (AP + 2 clients each) on one "
    "channel: co-channel cells defer/collide through ordinary DCF "
    "carrier sense while decoding stays per-cell.  Expectation "
    "from the paper's mechanism: per-cell goodput must drop "
    "strictly below the isolated baseline once a neighbour "
    "appears, collisions rise with cell count, and HACK's "
    "medium-utilisation savings matter more as airtime gets "
    "scarcer (its relative gain grows under inter-cell "
    "contention).")

SCHEMES = (
    ("TCP/HACK More Data", HackPolicy.MORE_DATA),
    ("TCP/802.11", HackPolicy.VANILLA),
)
CELL_COUNTS = (1, 2, 3)
WORKLOADS = ("static", "churn")

#: Clients per cell (every cell identical; the axis is cell count).
CLIENTS_PER_CELL = 2
#: churn: per-cell aggregate Poisson arrival rate (flows/s).
CHURN_RATE_PER_S = 40.0


def _arrivals() -> ArrivalSpec:
    return ArrivalSpec(
        kind="poisson", rate_per_s=CHURN_RATE_PER_S,
        size=SizeSpec(kind="lognormal", median_bytes=50_000,
                      sigma=1.0))


def _config(cells: int, policy: HackPolicy, workload: str, seed: int,
            quick: bool) -> ScenarioConfig:
    duration = 1500 * MS if quick else 4 * SEC
    base = dict(
        phy_mode="11n", data_rate_mbps=150.0,
        n_clients=CLIENTS_PER_CELL, cells=cells, policy=policy,
        duration_ns=duration, warmup_ns=duration // 2,
        stagger_ns=0, seed=seed)
    if workload == "churn":
        return ScenarioConfig(traffic="dynamic",
                              arrivals=_arrivals(), **base)
    if workload == "static":
        return ScenarioConfig(traffic="tcp_download", **base)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_spec(quick: bool = False, seeds=None, cell_counts=CELL_COUNTS,
               workloads=WORKLOADS) -> SweepSpec:
    spec = SweepSpec("multi_ap")
    for workload in workloads:
        for cells in cell_counts:
            for label, policy in SCHEMES:
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(
                        (workload, cells, label),
                        _config(cells, policy, workload, seed, quick))
    return spec


def _airtime_sum(metrics: Dict) -> float:
    return sum(block["airtime_share"] for block in metrics["cells"])


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for workload, cells, label in result.keys():
        key = (workload, cells, label)
        row = {
            "figure": "multi_ap", "workload": workload,
            "cells": cells, "scheme": label,
            "combined_mbps": result.cell(key, combined_carried)["mean"],
            "per_cell_mbps": result.cell(key, per_cell_carried)["mean"],
            "cell_jain": result.cell(
                key, "cell_fairness_index")["mean"],
            "airtime_sum": result.cell(key, _airtime_sum)["mean"],
            "collision_frac": result.cell(key, collision_frac)["mean"],
            "utilisation": result.cell(
                key, "medium_utilisation")["mean"],
        }
        if workload == "churn":
            row["flows_completed"] = result.cell(
                key, lambda m: m["fct"]["flows_completed"])["mean"]
            row["fct_p50_ms"] = result.cell(key, fct_metric("p50"))["mean"]
        else:
            row["flows_completed"] = None
            row["fct_p50_ms"] = None
        rows.append(row)
    return rows


def check_rows(rows: List[Dict]) -> str:
    """The extension's acceptance criteria: airtime / fairness /
    collision figures stay in range, churn cells complete flows,
    every contended static cell carries strictly less than the
    isolated baseline, and a second HACK cell collides more.

    ``airtime_sum`` is a per-grid-cell *mean over seeds*; the per-run
    invariant (clean airtime shares sum to <= 1) is
    ``tests/workloads/test_multi_cell.py::
    test_airtime_shares_sum_at_most_one``.
    """
    clauses = 0
    for row in rows:
        clauses += require(
            (row,),
            (0 < row["airtime_sum"] <= 1.0, "airtime sum outside (0, 1]"),
            (0 < row["cell_jain"] <= 1.0, "cell fairness outside (0, 1]"),
            (0 <= row["collision_frac"] < 1.0,
             "collision fraction outside [0, 1)"),
            (row["utilisation"] >= row["airtime_sum"] / row["cells"],
             "utilisation below the mean clean airtime share"),
            row["workload"] == "churn" and (
                row["flows_completed"] > 0 and row["fct_p50_ms"] > 0,
                "churn cell completed no flows"))
    static = {(r["cells"], r["scheme"]): r for r in rows
              if r["workload"] == "static"}
    for (cells, scheme), row in static.items():
        isolated = static.get((1, scheme))
        if cells > 1 and isolated is not None:
            clauses += require(
                (row, isolated),
                (0 < row["per_cell_mbps"] < isolated["per_cell_mbps"],
                 "contended cell is not below the isolated baseline"),
                (cells, scheme) == (2, "TCP/HACK More Data") and (
                    row["collision_frac"] > isolated["collision_frac"],
                    "a second cell does not collide more"))
    return (f"multi_ap: {clauses} clause(s) hold; airtime sums "
            f"<= 1, contended cells below the isolated baseline")


def format_rows(rows: List[Dict]) -> str:
    body = []
    for row in rows:
        fct = "-" if row["fct_p50_ms"] is None \
            else f"{row['fct_p50_ms']:.1f}"
        body.append([
            row["workload"], str(row["cells"]), row["scheme"],
            f"{row['combined_mbps']:.1f}",
            f"{row['per_cell_mbps']:.1f}",
            f"{row['cell_jain']:.3f}",
            f"{row['airtime_sum']:.3f}",
            f"{100 * row['collision_frac']:.1f}%", fct])
    table = format_table(
        ["workload", "cells", "scheme", "combined (Mbps)",
         "per cell", "cell Jain", "airtime sum", "collisions",
         "FCT p50 (ms)"],
        body,
        title="Multi-AP overlapping cells: co-channel contention "
              "(802.11n, 150 Mbps, 2 clients per cell)")
    lines = [table, ""]

    def by_cells(workload: str, scheme: str,
                 field: str) -> Dict[int, float]:
        return {r["cells"]: r[field] for r in rows
                if r["workload"] == workload
                and r["scheme"] == scheme and r[field] is not None}

    schemes = sorted({r["scheme"] for r in rows})
    for scheme in schemes:
        # Saturated downloads: contention shows up as per-cell goodput.
        goodput = by_cells("static", scheme, "per_cell_mbps")
        if 1 in goodput and 2 in goodput and goodput[1] > 0:
            drop = 100 * (1 - goodput[2] / goodput[1])
            lines.append(
                f"  static/{scheme}: a second co-channel cell costs "
                f"each cell {drop:.1f}% of its isolated goodput "
                f"({goodput[2]:.1f} vs {goodput[1]:.1f} Mbps)")
        # Churn: offered load is light, so contention shows up as FCT.
        p50 = by_cells("churn", scheme, "fct_p50_ms")
        if 1 in p50 and 2 in p50 and p50[1] > 0:
            rise = 100 * (p50[2] / p50[1] - 1)
            lines.append(
                f"  churn/{scheme}: a second co-channel cell "
                f"stretches p50 FCT by {rise:.1f}% "
                f"({p50[2]:.1f} vs {p50[1]:.1f} ms)")
    return "\n".join(lines)
