"""Ablation studies for the design choices the paper argues for.

1. **Policy ablation** (§3.2's three designs): MORE DATA vs
   opportunistic vs explicit timers at several timeout values vs stock.
   The paper argues no good explicit-timer value exists; the sweep
   shows why (short timers flush constantly, long timers stall flows).
   TS_ECHO (§5's future work) needs no AP cooperation and runs on par
   with MORE DATA, paying stall-guard flushes when its echo heuristic
   mispredicts.
2. **TXOP ablation** (§5): with a tighter transmit-opportunity limit,
   batches shrink and per-batch overhead grows; TCP/HACK "claws back
   some of the efficiency loss", so its relative gain increases.
3. **AP buffer ablation** (§4.3's queue-sizing discussion): HACK needs
   enough buffering for the MORE DATA bit to be set; tiny queues starve
   both schemes, large ones add loss-free latency only.
4. **Delayed-ACK ablation** (§2.1): with one ACK per segment instead
   of one per two, stock TCP's ACK stream doubles and HACK's gain
   widens.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.policies import HackPolicy
from ..sim.units import msec, usec
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require, seeds_for, \
    steady_state_durations

TITLE = "Ablations (§3.2 policies, §5 TXOP, AP buffering)"
PAPER_SAYS = (
    "The MORE DATA bit is crucial (§4.3); no good explicit-timer "
    "value exists (§3.2); tighter TXOP limits increase HACK's "
    "relative gain (§5); too-small AP queues starve both schemes "
    "and erase HACK's edge (§5).")

#: (label, config overrides) per policy-ablation variant.
POLICY_VARIANTS: Tuple[Tuple[str, Dict], ...] = (
    ("stock TCP", dict(policy=HackPolicy.VANILLA)),
    ("opportunistic", dict(policy=HackPolicy.OPPORTUNISTIC)),
    ("explicit timer 1ms",
     dict(policy=HackPolicy.EXPLICIT_TIMER, explicit_timer_ns=msec(1))),
    ("explicit timer 5ms",
     dict(policy=HackPolicy.EXPLICIT_TIMER, explicit_timer_ns=msec(5))),
    ("explicit timer 50ms",
     dict(policy=HackPolicy.EXPLICIT_TIMER,
          explicit_timer_ns=msec(50))),
    ("MORE DATA", dict(policy=HackPolicy.MORE_DATA)),
    ("MORE DATA + stall guard",
     dict(policy=HackPolicy.MORE_DATA, stall_guard_ns=msec(100))),
    ("TS_ECHO (§5 future work)", dict(policy=HackPolicy.TS_ECHO)),
)

#: TCP-vs-HACK comparison dimensions: (label, config overrides).
TXOP_VARIANTS: Tuple[Tuple[str, Dict], ...] = (
    ("4 ms (default)", dict(txop_limit_ns=msec(4))),
    ("2 ms", dict(txop_limit_ns=msec(2))),
    ("1 ms", dict(txop_limit_ns=msec(1))),
    ("0.5 ms", dict(txop_limit_ns=usec(500))),
)
BUFFER_VARIANTS: Tuple[Tuple[str, Dict], ...] = tuple(
    (f"{queue} pkts", dict(ap_queue_per_client=queue))
    for queue in (16, 42, 126, 378))
DELACK_VARIANTS: Tuple[Tuple[str, Dict], ...] = (
    ("delayed ACKs on", dict(delayed_ack=True)),
    ("delayed ACKs off", dict(delayed_ack=False)),
)

#: §2.1 footnote: delayed ACKs are the *best case* for stock WiFi
#: ("were delayed ACK not used, a TCP receiver would generate twice as
#: many ACK packets, and the WiFi MAC would incur significantly more
#: medium acquisitions") — so disabling them widens HACK's advantage.
COMPARISON_GROUPS: Tuple[Tuple[str, Tuple[Tuple[str, Dict], ...]], ...] \
    = (("txop", TXOP_VARIANTS), ("buffer", BUFFER_VARIANTS),
       ("delack", DELACK_VARIANTS))
ALL_GROUPS = ("policy", "txop", "buffer", "delack")


def _base(quick: bool, seed: int, **kw) -> ScenarioConfig:
    durations = steady_state_durations(quick)
    defaults = dict(phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
                    traffic="tcp_download", seed=seed, stagger_ns=0,
                    **durations)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def sweep_spec(quick: bool = False, seeds=None,
               groups: Sequence[str] = ALL_GROUPS) -> SweepSpec:
    spec = SweepSpec("ablations")
    comparisons = dict(COMPARISON_GROUPS)
    for group in groups:
        if group == "policy":
            for label, kw in POLICY_VARIANTS:
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(("policy", label, "goodput"),
                                      _base(quick, seed, **kw))
            continue
        for label, kw in comparisons[group]:
            for scheme, policy in (("tcp", HackPolicy.VANILLA),
                                   ("hack", HackPolicy.MORE_DATA)):
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(
                        (group, label, scheme),
                        _base(quick, seed, policy=policy, **kw))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    done = set()
    for group, label, _ in result.keys():
        if (group, label) in done:
            continue
        done.add((group, label))
        if group == "policy":
            rows.append({
                "ablation": "policy", "variant": label,
                "goodput_mbps": result.cell(
                    ("policy", label, "goodput"),
                    "aggregate_goodput_mbps")["mean"]})
            continue
        tcp = result.cell((group, label, "tcp"),
                          "aggregate_goodput_mbps")["mean"]
        hack = result.cell((group, label, "hack"),
                           "aggregate_goodput_mbps")["mean"]
        rows.append({"ablation": group, "variant": label,
                     "tcp_mbps": tcp, "hack_mbps": hack,
                     "improvement_pct": 100 * (hack / tcp - 1)})
    return rows


def check_rows(rows: List[Dict]) -> str:
    """The design claims each ablation group present must show: MORE
    DATA beats stock, opportunistic and short explicit timers, and the
    stall guard is free (§3.2); tighter TXOP limits widen HACK's gain
    (§5); tiny AP queues erase it (§5); disabling delayed ACKs widens
    it (§2.1 footnote)."""
    groups = sorted({r["ablation"] for r in rows})
    clauses = 0
    if "policy" in groups:
        policy = {r["variant"]: r for r in rows
                  if r["ablation"] == "policy"}
        best = policy["MORE DATA"]["goodput_mbps"]
        clauses += require(
            policy.values(),
            (best > 1.05 * policy["stock TCP"]["goodput_mbps"],
             "MORE DATA is not >5% above stock TCP"),
            (policy["opportunistic"]["goodput_mbps"] < best,
             "opportunistic is not below MORE DATA"),
            (policy["explicit timer 1ms"]["goodput_mbps"] < best,
             "a 1 ms explicit timer is not below MORE DATA"),
            (policy["MORE DATA + stall guard"]["goodput_mbps"]
             > 0.97 * best, "the stall guard costs > 3%"))
    gain = {(r["ablation"], r["variant"]): r for r in rows
            if r["ablation"] != "policy"}
    for group, low, high, broken in (
            ("txop", TXOP_VARIANTS[0][0], TXOP_VARIANTS[-1][0],
             "a tighter TXOP limit does not widen HACK's gain"),
            ("buffer", "16 pkts", "126 pkts",
             "a tiny AP queue does not erase HACK's edge"),
            ("delack", "delayed ACKs on", "delayed ACKs off",
             "disabling delayed ACKs does not widen HACK's gain")):
        if group in groups:
            low, high = gain[(group, low)], gain[(group, high)]
            clauses += require(
                (low, high),
                (low["improvement_pct"] < high["improvement_pct"],
                 broken))
    return (f"ablations: {clauses} clause(s) hold over "
            f"{', '.join(groups)}")


def format_rows(rows: List[Dict]) -> str:
    out = []
    policy = [r for r in rows if r["ablation"] == "policy"]
    if policy:
        out.append(format_table(
            ["variant", "goodput (Mbps)"],
            [[r["variant"], f"{r['goodput_mbps']:.1f}"] for r in policy],
            title="Ablation: ACK-deferral policy (§3.2)"))
    for key, title in (("txop", "Ablation: TXOP limit (§5)"),
                       ("buffer", "Ablation: AP queue per client"),
                       ("delack", "Ablation: delayed ACKs (§2.1)")):
        subset = [r for r in rows if r["ablation"] == key]
        if subset:
            out.append(format_table(
                ["variant", "TCP (Mbps)", "HACK (Mbps)", "gain"],
                [[r["variant"], f"{r['tcp_mbps']:.1f}",
                  f"{r['hack_mbps']:.1f}",
                  f"{r['improvement_pct']:+.1f}%"] for r in subset],
                title=title))
    return "\n\n".join(out)
