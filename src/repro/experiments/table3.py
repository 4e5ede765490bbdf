"""Table 3: TCP-ACK time overhead breakdown.

For the Table 2 transfer, the paper splits the time TCP ACKs cost the
medium into: airtime of vanilla TCP ACK frames (TCP ACK), airtime of
the ROHC payload appended to LL ACKs (ROHC), time spent waiting to
acquire the channel before TCP ACK transmissions (Channel), and the
LL-ACK response overhead those vanilla ACKs elicit (LL ACK overhead).

The shape to reproduce: stock TCP spends ~1.6 s of a 10 s transfer on
its ACK stream, dominated by channel acquisition; HACK's totals drop by
two to three orders of magnitude, leaving only the few bytes of ROHC
airtime on existing LL ACKs.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require

TITLE = "Table 3 — TCP ACK time overhead breakdown"
PAPER_SAYS = (
    "Stock TCP (25 MB): 70 ms TCP-ACK airtime, 1093 ms channel "
    "acquisition, 456 ms LL-ACK overhead.  TCP/HACK: 0.08 ms / "
    "1.17 ms / 0.46 ms plus 13.1 ms of ROHC airtime — three "
    "orders of magnitude less, dominated by channel acquisition "
    "savings.")

PROTOCOLS = (("TCP/802.11a", HackPolicy.VANILLA),
             ("TCP/HACK", HackPolicy.MORE_DATA))


def _config(policy: HackPolicy, quick: bool) -> ScenarioConfig:
    file_bytes = 3_000_000 if quick else 25_000_000
    return ScenarioConfig(
        phy_mode="11a", data_rate_mbps=54.0, n_clients=1,
        traffic="tcp_download", policy=policy, file_bytes=file_bytes,
        duration_ns=60 * SEC, warmup_ns=100 * MS, stagger_ns=0)


def sweep_spec(quick: bool = False, seeds=None) -> SweepSpec:
    """One deterministic transfer per protocol: ``seeds`` is ignored."""
    spec = SweepSpec("table3")
    for label, policy in PROTOCOLS:
        spec.add_scenario((label,), _config(policy, quick))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for (label,) in result.keys():
        metrics = result.metrics_for((label,))[0]
        rows.append({"table": "3", "protocol": label,
                     **metrics["time_breakdown_ms"]})
    return rows


def check_rows(rows: List[Dict]) -> str:
    """Table 3's shape: channel acquisition dominates stock TCP's ACK
    cost, and HACK removes essentially all of it — its only material
    cost is the (tiny) ROHC airtime on existing LL ACKs."""
    stock = next(r for r in rows if r["protocol"] == "TCP/802.11a")
    hack = next(r for r in rows if r["protocol"] == "TCP/HACK")
    clauses = require(
        (stock, hack),
        (stock["channel_acquisition"] > stock["tcp_ack_airtime"],
         "channel acquisition does not dominate stock TCP's ACK cost"),
        (stock["ll_ack_overhead"] > 0, "stock TCP ACKs elicit no LL ACKs"),
        (hack["tcp_ack_airtime"] < 0.05 * stock["tcp_ack_airtime"],
         "HACK keeps > 5% of the TCP ACK airtime"),
        (hack["channel_acquisition"]
         < 0.05 * stock["channel_acquisition"],
         "HACK keeps > 5% of the channel acquisition time"),
        (hack["rohc_airtime"] < stock["tcp_ack_airtime"],
         "ROHC airtime exceeds stock TCP ACK airtime"))
    return (f"table3: {clauses} clause(s) hold; channel acquisition "
            f"{stock['channel_acquisition']:.0f} ms (stock) -> "
            f"{hack['channel_acquisition']:.1f} ms (HACK)")


def format_rows(rows: List[Dict]) -> str:
    return format_table(
        ["protocol", "TCP ACK (ms)", "ROHC (ms)", "Channel (ms)",
         "LL ACK overhead (ms)"],
        [[r["protocol"], f"{r['tcp_ack_airtime']:.2f}",
          f"{r['rohc_airtime']:.2f}",
          f"{r['channel_acquisition']:.2f}",
          f"{r['ll_ack_overhead']:.2f}"] for r in rows],
        title="Table 3: TCP ACK time overhead breakdown")
