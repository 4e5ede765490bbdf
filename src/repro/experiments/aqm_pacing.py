"""Modern transport & AQM: cc x qdisc x pacing x HACK under churn.

The paper's stack is 2014-vintage on purpose — Reno-style senders
bursting whole windows into a drop-tail AP queue is exactly the regime
where §3.2's ACK-withholding pathology bites.  This experiment (an
extension, not a paper artifact) asks how much of HACK's gain — and of
the FCT tail — survives a *modern* stack: CUBIC congestion control,
sender pacing (~2*cwnd/SRTT release; the first RTT is unpaced and
retransmissions bypass the gate), and CoDel (RFC 8289: 5 ms target,
100 ms interval, head drop at dequeue) / FQ-CoDel (RFC 8290: DRR over
per-flow sub-queues, 1514 B quantum) at every station's MAC queue.

Load is ``fct_churn``-style mice (Poisson arrivals, log-normal sizes)
riding on a 50 Mbps UDP CBR downlink per client.  The CBR floor
keeps a *standing* queue at the AP — the textbook CoDel-vs-drop-tail
regime: drop-tail lets the standing queue sit at the limit (sojourn =
full-queue drain time), CoDel holds delivered sojourn near its 5 ms
target, and FQ-CoDel additionally isolates the mice from the fat UDP
bucket via DRR.

Reported per cell: completed flows, FCT p50/p99, AQM drops, and
delivered-packet sojourn p50/p99 from ``metrics_dict()["aqm"]``,
recorded under every discipline, drop-tail included.  The contract
asks CoDel to hold stock Reno's sojourn p99 below drop-tail's while
head-dropping; see "Seed sensitivity" for the seeds where it does not.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..stats.fct import has_completions
from ..traffic.arrivals import ArrivalSpec, SizeSpec
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require, seeds_for

TITLE = "Modern transport & AQM (extension; cc/pacing/qdisc)"
PAPER_SAYS = (
    "Nothing — the paper's transport is Reno-era TCP into "
    "drop-tail MAC queues.  This extension sweeps the modern "
    "stack (CUBIC congestion control, sender pacing, CoDel and "
    "FQ-CoDel queue disciplines at the per-client MAC queues) "
    "under a standing-queue churn load (50 Mbps CBR UDP floor + "
    "Poisson mice), HACK on/off.  Expectation from the paper's "
    "mechanism: HACK's ACK-side savings are orthogonal to the "
    "data-side queue discipline, so its FCT edge should persist "
    "across transports; CoDel should cut the delivered-sojourn "
    "tail vs drop-tail for the stock transport, while pacing "
    "already smooths the queue enough that CoDel has less tail "
    "left to cut.")

SCHEMES = (
    ("TCP/HACK More Data", HackPolicy.MORE_DATA),
    ("TCP/802.11", HackPolicy.VANILLA),
)
#: (label, cc, pacing) — the transport axis.
TRANSPORTS = (
    ("reno", "reno", False),
    ("reno+pace", "reno", True),
    ("cubic", "cubic", False),
    ("cubic+pace", "cubic", True),
)
QDISCS = ("droptail", "codel", "fq_codel")

#: Mice arrival rate (flows/s aggregate) and CBR floor per client
#: (Mbit/s).  Together they hold the AP near saturation so the queue
#: discipline, not the medium, sets the sojourn tail.
ARRIVAL_RATE_PER_S = 60.0
CBR_FLOOR_MBPS = 50.0


def _arrivals() -> ArrivalSpec:
    return ArrivalSpec(
        kind="poisson", rate_per_s=ARRIVAL_RATE_PER_S,
        size=SizeSpec(kind="lognormal", median_bytes=50_000,
                      sigma=1.0))


def _config(policy: HackPolicy, cc: str, pacing: bool, qdisc: str,
            seed: int, quick: bool) -> ScenarioConfig:
    duration = 1500 * MS if quick else 4 * SEC
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
        traffic="dynamic", policy=policy,
        arrivals=_arrivals(),
        udp_background_mbps=CBR_FLOOR_MBPS,
        cc=cc, pacing=pacing, queue_discipline=qdisc,
        duration_ns=duration, warmup_ns=duration // 2,
        stagger_ns=0, seed=seed)


def sweep_spec(quick: bool = False, seeds=None, transports=TRANSPORTS,
               qdiscs=QDISCS, schemes=SCHEMES) -> SweepSpec:
    spec = SweepSpec("aqm_pacing")
    for transport, cc, pacing in transports:
        for qdisc in qdiscs:
            for label, policy in schemes:
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(
                        (transport, qdisc, label),
                        _config(policy, cc, pacing, qdisc, seed,
                                quick))
    return spec


def _fct_metric(field: str):
    def metric(metrics: Dict) -> float:
        block = metrics["fct"]["fct_ms"]
        if not has_completions(block):
            raise ValueError("cell completed zero flows; raise the "
                             "run duration or arrival rate")
        return block[field]
    return metric


def _sojourn_metric(field: str):
    def metric(metrics: Dict) -> float:
        value = metrics["aqm"][field]
        if value is None:
            raise ValueError("cell dequeued zero packets; the load "
                             "never reached the MAC queues")
        return value
    return metric


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for transport, qdisc, label in result.keys():
        key = (transport, qdisc, label)
        rows.append({
            "figure": "aqm_pacing", "transport": transport,
            "qdisc": qdisc, "scheme": label,
            "flows_completed": result.cell(
                key, lambda m: m["fct"]["flows_completed"])["mean"],
            "flows_censored": result.cell(
                key, lambda m: m["fct"]["flows_censored"])["mean"],
            "fct_p50_ms": result.cell(key, _fct_metric("p50"))["mean"],
            "fct_p99_ms": result.cell(key, _fct_metric("p99"))["mean"],
            "aqm_drops": result.cell(
                key, lambda m: m["aqm"]["drops"])["mean"],
            "sojourn_p50_ms": result.cell(
                key, _sojourn_metric("sojourn_p50_ms"))["mean"],
            "sojourn_p99_ms": result.cell(
                key, _sojourn_metric("sojourn_p99_ms"))["mean"],
            "carried_mbps": result.cell(
                key, lambda m: m["fct"]["carried_load_mbps"])["mean"],
            "offered_mbps": result.cell(
                key, lambda m: m["fct"]["offered_load_mbps"])["mean"],
        })
    return rows


def check_rows(rows: List[Dict]) -> str:
    """The AQM tier's pass/fail contract: every cell completed flows
    and delivered packets, drop-tail never head-drops, and under the
    standing-queue load CoDel holds the stock (reno, TCP/802.11)
    delivered-sojourn p99 below drop-tail's while actually
    head-dropping."""
    clauses = sum(require(
        (row,),
        (row["flows_completed"] > 0
         and 0 < row["fct_p50_ms"] <= row["fct_p99_ms"]
         and 0 < row["sojourn_p50_ms"] <= row["sojourn_p99_ms"]
         and row["offered_mbps"] > 0 and row["carried_mbps"] > 0,
         "cell did not complete"),
        row["qdisc"] == "droptail" and (
            row["aqm_drops"] == 0, "drop-tail head-dropped"))
        for row in rows)
    stock = {row["qdisc"]: row for row in rows
             if (row["transport"], row["scheme"])
             == ("reno", "TCP/802.11")}
    tail, codel = stock["droptail"], stock["codel"]
    clauses += require(
        (codel, tail),
        (codel["sojourn_p99_ms"] < tail["sojourn_p99_ms"]
         and codel["aqm_drops"] > 0,
         "CoDel does not beat drop-tail on sojourn p99"))
    return (f"aqm_pacing: {clauses} clause(s) hold; {len(rows)} cells "
            f"complete; codel p99 "
            f"{codel['sojourn_p99_ms']:.2f} ms < droptail "
            f"{tail['sojourn_p99_ms']:.2f} ms "
            f"({codel['aqm_drops']:.0f} head drops)")


def format_rows(rows: List[Dict]) -> str:
    body = []
    for row in rows:
        body.append([
            row["transport"], row["qdisc"], row["scheme"],
            f"{row['flows_completed']:.0f}",
            f"{row['fct_p50_ms']:.1f}", f"{row['fct_p99_ms']:.1f}",
            f"{row['aqm_drops']:.0f}",
            f"{row['sojourn_p50_ms']:.2f}",
            f"{row['sojourn_p99_ms']:.2f}"])
    table = format_table(
        ["transport", "qdisc", "scheme", "flows", "FCT p50 (ms)",
         "p99", "AQM drops", "sojourn p50 (ms)", "p99"],
        body,
        title="Modern transport & AQM: mice FCT and queue sojourn "
              "under churn + CBR floor (802.11n, 150 Mbps, 2 clients)")
    lines = [table, ""]
    for transport in sorted({r["transport"] for r in rows}):
        cell = {(r["qdisc"], r["scheme"]): r for r in rows
                if r["transport"] == transport}
        tail = cell.get(("droptail", "TCP/802.11"))
        codel = cell.get(("codel", "TCP/802.11"))
        if tail is None or codel is None:
            continue
        lines.append(
            f"  {transport}: CoDel moves stock sojourn p99 "
            f"{tail['sojourn_p99_ms']:.2f} -> "
            f"{codel['sojourn_p99_ms']:.2f} ms "
            f"({codel['aqm_drops']:.0f} AQM drops)")
    return "\n".join(lines)
