"""Flow churn & FCT: HACK on/off under dynamic, finite-flow load.

The paper evaluates long-lived bulk transfers only; this experiment
(an extension, not a paper artifact) measures what HACK does for the
regime the tables never touch — *short flows under churn*, where every
flow lives mostly in slow start and per-ACK medium acquisitions are
pure overhead.  Grid: HACK policy (MORE DATA vs. stock 802.11n) x
offered load (low/high arrival rate) x workload shape:

* ``poisson`` — open-loop Poisson flow arrivals with log-normal sizes
  (the classic FCT-benchmark load);
* ``web`` — closed-loop request/response users with log-normal
  objects and exponential think times (request rate adapts to FCT).

Reported per cell: completed-flow counts, FCT p50/p95/p99, and offered
vs. carried load, all from the ``"fct"`` block every churn run's
``metrics_dict`` carries (``repro.stats.fct``).  FCTs are exact: each
flow keeps one record and the percentiles are order statistics.  Each
arrival process draws from its own RNG stream: rows repeat bit for bit.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..traffic.arrivals import ArrivalSpec, SizeSpec
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import fct_metric, format_table, require, seeds_for

TITLE = "Flow churn & FCT (extension; repro.traffic)"
PAPER_SAYS = (
    "Nothing — the paper only measures long-lived transfers.  "
    "This extension measures flow completion times under dynamic "
    "load (Poisson arrivals and closed-loop web users, log-normal "
    "sizes, HACK on/off x low/high load).  Expectation from the "
    "paper's mechanism: HACK's gains concentrate where batches "
    "are large and ACK volume is high, so short-flow/low-load "
    "churn should show small FCT shifts and high-load tails "
    "(p95/p99) should benefit most.")

SCHEMES = (
    ("TCP/HACK More Data", HackPolicy.MORE_DATA),
    ("TCP/802.11", HackPolicy.VANILLA),
)
SHAPES = ("poisson", "web")
LOADS = ("low", "high")

#: poisson: aggregate arrival rate (flows/s) per load level.  "low"
#: leaves the AP queue nearly empty (MORE DATA rarely set, so HACK is
#: mostly idle — an informative no-engagement baseline); "high"
#: builds real queueing so batches carry MORE DATA and compressed
#: ACKs ride Block ACKs.
POISSON_RATES = {"low": 25.0, "high": 90.0}
#: web: (users per client, mean think time ms) per load level.
WEB_LOADS = {"low": (1, 250.0), "high": (4, 50.0)}


def _arrivals(shape: str, load: str) -> ArrivalSpec:
    if shape == "poisson":
        return ArrivalSpec(
            kind="poisson", rate_per_s=POISSON_RATES[load],
            size=SizeSpec(kind="lognormal", median_bytes=50_000,
                          sigma=1.0))
    if shape == "web":
        users, think_ms = WEB_LOADS[load]
        return ArrivalSpec(
            kind="web", users_per_client=users,
            think_time_ms=think_ms,
            size=SizeSpec(kind="lognormal", median_bytes=30_000,
                          sigma=1.2))
    raise ValueError(f"unknown workload shape {shape!r}")


def _config(policy: HackPolicy, shape: str, load: str, seed: int,
            quick: bool) -> ScenarioConfig:
    duration = 1500 * MS if quick else 4 * SEC
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
        traffic="dynamic", policy=policy,
        arrivals=_arrivals(shape, load),
        duration_ns=duration, warmup_ns=duration // 2,
        stagger_ns=0, seed=seed)


def sweep_spec(quick: bool = False, seeds=None, shapes=SHAPES,
               loads=LOADS) -> SweepSpec:
    spec = SweepSpec("fct_churn")
    for shape in shapes:
        for load in loads:
            for label, policy in SCHEMES:
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(
                        (shape, load, label),
                        _config(policy, shape, load, seed, quick))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for shape, load, label in result.keys():
        key = (shape, load, label)
        rows.append({
            "figure": "fct_churn", "shape": shape, "load": load,
            "scheme": label,
            "flows_completed": result.cell(
                key, lambda m: m["fct"]["flows_completed"])["mean"],
            "flows_censored": result.cell(
                key, lambda m: m["fct"]["flows_censored"])["mean"],
            "fct_p50_ms": result.cell(key, fct_metric("p50"))["mean"],
            "fct_p95_ms": result.cell(key, fct_metric("p95"))["mean"],
            "fct_p99_ms": result.cell(key, fct_metric("p99"))["mean"],
            "offered_mbps": result.cell(
                key, lambda m: m["fct"]["offered_load_mbps"])["mean"],
            "carried_mbps": result.cell(
                key, lambda m: m["fct"]["carried_load_mbps"])["mean"],
        })
    return rows


def check_rows(rows: List[Dict]) -> str:
    """The extension's acceptance criterion (no paper number exists):
    every churn cell completed flows, with ordered FCT percentiles
    and nonzero offered and carried load."""
    clauses = sum(require(
        (row,),
        (row["flows_completed"] > 0, "cell completed no flows"),
        (0 < row["fct_p50_ms"] <= row["fct_p95_ms"] <= row["fct_p99_ms"],
         "FCT percentiles are not ordered"),
        (row["offered_mbps"] > 0 and row["carried_mbps"] > 0,
         "cell offered or carried no load")) for row in rows)
    return (f"fct_churn: {clauses} clause(s) hold; every cell "
            f"completed flows with FCT p50 <= p95 <= p99")


def format_rows(rows: List[Dict]) -> str:
    body = []
    for row in rows:
        body.append([
            row["shape"], row["load"], row["scheme"],
            f"{row['flows_completed']:.0f}",
            f"{row['fct_p50_ms']:.1f}", f"{row['fct_p95_ms']:.1f}",
            f"{row['fct_p99_ms']:.1f}",
            f"{row['carried_mbps']:.1f}/{row['offered_mbps']:.1f}"])
    table = format_table(
        ["shape", "load", "scheme", "flows", "FCT p50 (ms)",
         "p95", "p99", "carried/offered (Mbps)"],
        body,
        title="Flow churn: completion times under dynamic load "
              "(802.11n, 150 Mbps, 2 clients)")
    lines = [table, ""]
    for shape in sorted({r["shape"] for r in rows}):
        for load in sorted({r["load"] for r in rows
                            if r["shape"] == shape}):
            cell = {r["scheme"]: r for r in rows
                    if r["shape"] == shape and r["load"] == load}
            hack = cell.get("TCP/HACK More Data")
            stock = cell.get("TCP/802.11")
            if hack is None or stock is None:
                continue
            delta = 100 * (1 - hack["fct_p50_ms"]
                           / stock["fct_p50_ms"])
            lines.append(
                f"  {shape}/{load}: HACK changes p50 FCT by "
                f"{-delta:+.1f}% vs stock "
                f"({hack['fct_p50_ms']:.1f} vs "
                f"{stock['fct_p50_ms']:.1f} ms)")
    return "\n".join(lines)
