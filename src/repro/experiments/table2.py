"""Table 2: conventional vs compressed ACK counts and compression ratio.

The paper transfers 25 MB over 802.11a with TCP/802.11 and TCP/HACK and
counts TCP ACKs (9060 x 52 B for stock TCP) vs ROHC-compressed ACKs
(9050 ACKs in ~39.5 kB, a 12x ratio).  We run the same finite transfer
and read the counters off the drivers.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..tcp.segment import IP_HEADER_BYTES, MSS, TCP_HEADER_BYTES, \
    TIMESTAMP_OPTION_BYTES
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require

TITLE = "Table 2 — ACK counts and compression"
PAPER_SAYS = (
    "25 MB transfer: stock TCP sent 9060 ACKs (471 120 B); HACK "
    "sent 10 vanilla ACKs and 9050 compressed ones in 39 478 B — "
    "a 12x compression ratio (~4.4 B per ACK).")

ACK_WIRE_BYTES = IP_HEADER_BYTES + TCP_HEADER_BYTES + \
    TIMESTAMP_OPTION_BYTES  # 52

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
    spec = SweepSpec("table2")
    for label, policy in PROTOCOLS:
        config = _config(policy, quick)
        spec.add_scenario((label, config.file_bytes), config)
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for label, file_bytes in result.keys():
        metrics = result.metrics_for((label, file_bytes))[0]
        client = metrics["drivers"]["C1"]
        compressed_count = client["compressed_acks"]
        compressed_bytes = client["compressed_bytes"]
        if compressed_count:
            ratio = (compressed_count * ACK_WIRE_BYTES) / compressed_bytes
        else:
            ratio = 1.0
        rows.append({
            "table": "2", "protocol": label,
            "ack_count": client["vanilla_acks_sent"],
            "ack_bytes": client["vanilla_ack_bytes"],
            "compressed_count": compressed_count,
            "compressed_bytes": compressed_bytes,
            "compression_ratio": ratio,
            "transfer_bytes": file_bytes,
            "completed":
                metrics["completion_times_ns"]["1"] is not None,
        })
    return rows


def check_rows(rows: List[Dict]) -> str:
    """Table 2's shape: stock TCP sends one 52-byte ACK per two data
    packets and compresses none; HACK compresses nearly all of them at
    a ratio near the paper's 12x."""
    stock = next(r for r in rows if r["protocol"] == "TCP/802.11a")
    hack = next(r for r in rows if r["protocol"] == "TCP/HACK")
    expected = stock["transfer_bytes"] / MSS / 2
    clauses = require(
        (stock, hack),
        (stock["compressed_count"] == 0, "stock TCP compressed ACKs"),
        (0.8 * expected < stock["ack_count"] < 1.3 * expected,
         f"stock ACK count far from {expected:.0f}"),
        (stock["ack_bytes"] == ACK_WIRE_BYTES * stock["ack_count"],
         "stock ACKs are not 52 bytes each"),
        (hack["compressed_count"] > 0.9 * expected,
         "HACK compressed < 90% of the ACKs"),
        (hack["ack_count"] < 0.05 * expected,
         "HACK sent > 5% of the ACKs vanilla"),
        (8 < hack["compression_ratio"] < 26,
         "compression ratio outside 8-26x"))
    return (f"table2: {clauses} clause(s) hold; "
            f"{hack['compressed_count']} ACKs compressed "
            f"{hack['compression_ratio']:.1f}x (paper: 12x)")


def format_rows(rows: List[Dict]) -> str:
    return format_table(
        ["protocol", "ACK count", "ACK bytes", "ACKc count",
         "ACKc bytes", "comp. ratio"],
        [[r["protocol"], str(r["ack_count"]), str(r["ack_bytes"]),
          str(r["compressed_count"]), str(r["compressed_bytes"]),
          f"{r['compression_ratio']:.1f}" if r["compressed_count"]
          else "(1)"]
         for r in rows],
        title="Table 2: conventional vs ROHC-compressed TCP ACKs")
