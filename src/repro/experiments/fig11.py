"""Figure 11: goodput envelope vs SNR under per-rate loss.

A single client at varying channel quality (the paper varies distance;
we parameterise SNR directly, which is the figure's x-axis), downloading
at each 802.11n HT rate {15..150}, with the 4 ms TXOP limit applied.
The envelope over rates is the goodput an ideal bit-rate adaptation
algorithm would achieve; the lower panel is TCP/HACK's percentage
improvement (paper: 12.6% average across SNRs).

The runs double as the paper's robustness check: no decompression CRC
failures and no recurring TCP timeouts in lossy regimes.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from ..core.policies import HackPolicy
from ..phy.params import HT40_SGI_RATES_1SS
from ..workloads.scenarios import LossSpec, ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require, seeds_for, \
    steady_state_durations

TITLE = "Figure 11 — goodput envelope vs SNR"
PAPER_SAYS = (
    "HACK improves the ideal-rate-adaptation envelope by 12.6% on "
    "average across SNRs, slightly more where the TXOP limit "
    "shrinks batches and past 90 Mbps where acquisition overhead "
    "dominates; zero decompression CRC failures in lossy regimes.")

FULL_SNRS = (6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0)
QUICK_SNRS = (10.0, 18.0, 26.0)
QUICK_RATES = (15.0, 60.0, 150.0)

SCHEMES = (("tcp", HackPolicy.VANILLA), ("hack", HackPolicy.MORE_DATA))
#: An SNR is usable when its stock TCP envelope exceeds this; the mean
#: improvement is over usable SNRs, printed and gated alike.
USABLE_ENVELOPE_MBPS = 5.0


def _config(policy: HackPolicy, rate: float, snr: float, seed: int,
            quick: bool) -> ScenarioConfig:
    durations = steady_state_durations(quick)
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=rate, n_clients=1,
        traffic="tcp_download", policy=policy, seed=seed,
        stagger_ns=0, loss=LossSpec(kind="snr", snr_db=snr),
        **durations)


def sweep_spec(quick: bool = False, seeds=None,
               snrs: Sequence[float] = None,
               rates: Sequence[float] = None) -> SweepSpec:
    snrs = snrs or (QUICK_SNRS if quick else FULL_SNRS)
    rates = rates or (QUICK_RATES if quick else HT40_SGI_RATES_1SS)
    spec = SweepSpec("fig11")
    for snr in snrs:
        for rate in rates:
            for key, policy in SCHEMES:
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(
                        (snr, rate, key),
                        _config(policy, rate, snr, seed, quick))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    snrs: List[float] = []
    for snr, _, _ in result.keys():
        if snr not in snrs:
            snrs.append(snr)
    rows: List[Dict] = []
    for snr in snrs:
        per_rate: Dict[str, Dict[float, float]] = {"tcp": {},
                                                   "hack": {}}
        crc_failures = 0
        timeouts = 0
        for key in result.keys():
            if key[0] != snr:
                continue
            _, rate, scheme = key
            per_rate[scheme][rate] = result.cell(
                key, "aggregate_goodput_mbps")["mean"]
            if scheme == "hack":
                for metrics in result.metrics_for(key):
                    crc_failures += \
                        metrics["decompressor"]["crc_failures"]
                    timeouts += sum(
                        c["timeouts"]
                        for c in metrics["sender_counters"].values())
        tcp_env = max(per_rate["tcp"].values())
        hack_env = max(per_rate["hack"].values())
        rows.append({
            "figure": "11", "snr_db": snr,
            "tcp_envelope_mbps": tcp_env,
            "hack_envelope_mbps": hack_env,
            "improvement_pct": 100 * (hack_env / tcp_env - 1)
            if tcp_env > 0 else 0.0,
            "tcp_per_rate": per_rate["tcp"],
            "hack_per_rate": per_rate["hack"],
            "crc_failures": crc_failures,
            "hack_timeouts": timeouts,
        })
    return rows


def _usable(rows: List[Dict]) -> List[Dict]:
    return [r for r in rows
            if r["tcp_envelope_mbps"] > USABLE_ENVELOPE_MBPS]


def check_rows(rows: List[Dict]) -> str:
    """Fig 11's shape over the SNRs present: the HACK envelope is
    monotone in SNR and never loses to stock TCP, no decompression CRC
    ever fails, and the mean improvement where the link is usable
    (stock envelope > :data:`USABLE_ENVELOPE_MBPS`) sits in an 8-30%
    band around the paper's 12.6%."""
    clauses = 0
    floor = None
    for row in sorted(rows, key=lambda r: r["snr_db"]):
        hack = row["hack_envelope_mbps"]
        clauses += require(
            (row,),
            floor is not None and (
                hack >= floor, "HACK envelope is not monotone in SNR"),
            (hack >= 0.98 * row["tcp_envelope_mbps"],
             "HACK envelope loses to stock TCP"),
            (row["crc_failures"] == 0, "decompression CRC failures"))
        floor = hack
    usable = _usable(rows)
    mean = statistics.fmean(r["improvement_pct"] for r in usable)
    clauses += require(usable, (8.0 < mean < 30.0,
                                f"mean improvement {mean:.1f}% "
                                f"outside 8-30%"))
    return (f"fig11: {clauses} clause(s) hold; mean envelope "
            f"improvement +{mean:.1f}% over {len(usable)} usable "
            f"SNR(s), 0 CRC failures")


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["SNR (dB)", "TCP envelope (Mbps)", "HACK envelope (Mbps)",
         "improvement", "CRC failures"],
        [[f"{r['snr_db']:.0f}", f"{r['tcp_envelope_mbps']:.1f}",
          f"{r['hack_envelope_mbps']:.1f}",
          f"+{r['improvement_pct']:.1f}%", str(r["crc_failures"])]
         for r in rows],
        title="Figure 11: goodput envelope vs SNR (ideal rate "
              "adaptation)")
    usable = [r["improvement_pct"] for r in _usable(rows)]
    mean_imp = statistics.fmean(usable) if usable else 0.0
    return (table + f"\n  mean improvement across SNRs: "
            f"+{mean_imp:.1f}% (paper: 12.6%)")
