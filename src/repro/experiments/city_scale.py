"""City-scale scenarios: many cells, channel reuse, shard execution.

The paper measures one BSS; ``multi_ap`` scales to a few co-channel
cells; this experiment (an extension, not a paper artifact) opens the
deployment-scale axis — tens of cells laid out city-style over the
three non-overlapping 2.4 GHz channels (round-robin
``ScenarioConfig.channels``).  Each channel is its own medium:
carrier sense, EIFS, collisions and loss draws are per channel, and
each channel runs as its own simulator (``repro.workloads.sharding``:
side by side on a multi-core host when a point runs in-process,
serially in a sweep's pool worker, to the same record).  Grid: city
size (cells) x HACK policy (MORE DATA vs. stock 802.11n).

Reported per grid cell: combined carried traffic, per-cell mean,
cross-cell Jain fairness (now *across channels* — contention only
binds within a channel), the worst per-channel clean-airtime sum
(<= 1 per channel by construction; the city-wide sum may approach the
channel count), and the collision fraction.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import SEC
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import collision_frac, combined_carried, \
    format_table, per_cell_carried, require, seeds_for

TITLE = "City-scale channel sharding (extension; channels=C)"
PAPER_SAYS = (
    "Nothing — the paper evaluates one BSS on one channel.  This "
    "extension round-robins tens of cells over the three "
    "non-overlapping 2.4 GHz channels; cells on different "
    "channels share nothing, so the scenario factors into one "
    "independent sub-scenario per channel and the channel-shard "
    "pipeline executes it that way (one simulator per channel, "
    "serial or process-pool, merged metrics bit-identical to the "
    "single-simulator run).  Expectation from the paper's "
    "mechanism: contention binds per channel — per-cell goodput "
    "tracks cells-per-channel, not city size — and HACK's edge "
    "persists at every scale because each channel looks like the "
    "multi-AP experiment.")

SCHEMES = (
    ("TCP/HACK More Data", HackPolicy.MORE_DATA),
    ("TCP/802.11", HackPolicy.VANILLA),
)
#: City sizes (total cells across all channels).
CITY_CELLS = (12, 20)
#: The 2.4 GHz band's non-overlapping channels (1/6/11).
CITY_CHANNELS = 3
#: Clients per cell — one bulk download each; the axis is city size.
CLIENTS_PER_CELL = 1


def _config(cells: int, policy: HackPolicy, seed: int,
            quick: bool) -> ScenarioConfig:
    duration = 1 * SEC if quick else 3 * SEC
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0,
        n_clients=CLIENTS_PER_CELL, cells=cells,
        channels=CITY_CHANNELS, traffic="tcp_download",
        policy=policy, duration_ns=duration,
        warmup_ns=duration // 2, stagger_ns=0, seed=seed)


def sweep_spec(quick: bool = False, seeds=None,
               city_cells=CITY_CELLS) -> SweepSpec:
    spec = SweepSpec("city_scale")
    for cells in city_cells:
        for label, policy in SCHEMES:
            for seed in seeds or seeds_for(quick):
                spec.add_scenario(
                    (cells, label),
                    _config(cells, policy, seed, quick))
    return spec


def _max_channel_airtime_sum(metrics: Dict) -> float:
    """The busiest channel's clean-airtime sum (the <= 1 invariant
    is per channel; the city-wide sum is allowed to exceed 1)."""
    return max(block["airtime_share_sum"]
               for block in metrics["channels"])


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for cells, label in result.keys():
        key = (cells, label)
        rows.append({
            "figure": "city_scale", "cells": cells,
            "channels": CITY_CHANNELS, "scheme": label,
            "combined_mbps": result.cell(key, combined_carried)["mean"],
            "per_cell_mbps": result.cell(key, per_cell_carried)["mean"],
            "cell_jain": result.cell(
                key, "cell_fairness_index")["mean"],
            "max_channel_airtime_sum": result.cell(
                key, _max_channel_airtime_sum)["mean"],
            "collision_frac": result.cell(key, collision_frac)["mean"],
            "utilisation": result.cell(
                key, "medium_utilisation")["mean"],
        })
    return rows


def check_rows(rows: List[Dict]) -> str:
    """Every channel is its own collision domain: the busiest
    channel's clean-airtime sum stays in (0, 1] whatever the city
    size.

    ``max_channel_airtime_sum`` is a per-grid-cell *mean over seeds*;
    the per-run, per-channel invariant is property-tested in
    ``tests/properties/test_medium_properties.py::
    test_airtime_share_sums_bounded_per_channel``.
    """
    clauses = sum(require(
        (row,), (0 < row["max_channel_airtime_sum"] <= 1.0,
                 "per-channel airtime sum outside (0, 1]"))
        for row in rows)
    return (f"city_scale: {clauses} clause(s) hold; per-channel "
            f"airtime sums all bounded by 1")


def format_rows(rows: List[Dict]) -> str:
    body = []
    for row in rows:
        body.append([
            str(row["cells"]), str(row["channels"]), row["scheme"],
            f"{row['combined_mbps']:.1f}",
            f"{row['per_cell_mbps']:.1f}",
            f"{row['cell_jain']:.3f}",
            f"{row['max_channel_airtime_sum']:.3f}",
            f"{100 * row['collision_frac']:.1f}%"])
    table = format_table(
        ["cells", "channels", "scheme", "combined (Mbps)",
         "per cell", "cell Jain", "max ch airtime", "collisions"],
        body,
        title="City-scale channel-sharded cells "
              "(802.11n, 150 Mbps, 3 channels round-robin, "
              "1 client per cell)")
    lines = [table, ""]

    def by_cells(scheme: str, field: str) -> Dict[int, float]:
        return {r["cells"]: r[field] for r in rows
                if r["scheme"] == scheme}

    for scheme in sorted({r["scheme"] for r in rows}):
        combined = by_cells(scheme, "combined_mbps")
        sizes = sorted(combined)
        if len(sizes) >= 2 and combined[sizes[0]] > 0:
            small, large = sizes[0], sizes[-1]
            gain = combined[large] / combined[small]
            lines.append(
                f"  {scheme}: growing the city {small} -> {large} "
                f"cells carries {gain:.2f}x the traffic "
                f"({combined[large]:.1f} vs {combined[small]:.1f} "
                f"Mbps) — three channels keep contention per-channel, "
                f"not city-wide")
    return "\n".join(lines)
