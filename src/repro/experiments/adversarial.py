"""Adversarial robustness: misbehaving stations vs. the HACK stack.

Not a paper artifact: the paper's evaluation is entirely cooperative
(Fig. 11 reports *zero* decompression CRC failures).  This grid drops
that assumption with the ``repro.adversary`` scenario family:

* ``greedy``  — a CW-cheating station draws backoff from a shrunken
  contention window and steals airtime from honest uploaders;
* ``jammer``  — a duty-cycled energy jammer occupies the medium
  (honest stations defer through the bursts);
* ``mutator`` — an on-air mutator corrupts compressed-ACK payloads in
  ``storm`` mode (consecutive-frame corruption, defeating the §3.4
  retry-the-same-bytes recovery and forcing declared context desyncs).

Grid: attack x intensity x HACK policy (MORE DATA vs. stock 802.11n),
over near-saturating Poisson churn: *upload* for the greedy cheater
(uplink contention is what a shrunken CW steals), *download* for the
jammer and the mutator (client TCP ACKs are what HACK compresses).
Reported per cell: carried goodput and its *retention* vs. the same
scheme's intensity-0 row, FCT p99 and its inflation, ROHC
desyncs/recoveries, and ``resilient``: no injected fault escaped as
an exception (``internal_errors``, ``tamper_errors``), and short of
a saturating attack (intensity < 1) the cell retained some goodput.

A CRC-3 mismatch aborts the frame without consuming its MSN, so §3.4
retention re-offers the same bytes; a second one in a row declares a
desync, which ends recovered (an absolute entry or a snooped vanilla
ACK re-anchors the context), still open when the run ends, or released
with its flow.  The contract holds each mutated HACK cell to that
book (``desync_events == recoveries + open + released``) with its open
desyncs younger than 400 ms in sum, and the intensity-0 rows must
never desync: an inert plan installs nothing and reproduces the
cooperative run bit for bit (``tests/adversary``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..adversary import AdversaryConfig
from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..stats.fct import has_completions
from ..traffic.arrivals import ArrivalSpec, SizeSpec
from ..workloads.scenarios import ScenarioConfig
from .batch import SweepResult, SweepSpec
from .common import format_table, require, seeds_for

TITLE = "Adversarial robustness (extension; repro.adversary)"
PAPER_SAYS = (
    "Nothing — the paper evaluates cooperative stations only; its "
    "robustness argument is §3.3's CRC-3 check plus §3.4 "
    "retention.  This extension stress-tests that argument: a "
    "CW-cheating greedy station, a duty-cycled jammer and an "
    "on-air compressed-ACK mutator (bit flips, corruption "
    "storms) at three-plus intensities, HACK on vs off.  Expectation from the paper's mechanism: HACK adds "
    "attack surface (the compressed-ACK path), so the mutator "
    "must cost it goodput/FCT that stock TCP does not pay — but "
    "every corruption must land in a typed counter, declared "
    "desyncs must recover (absolute rebase or vanilla-ACK "
    "re-anchor, recovery time measured), and MAC-layer attacks "
    "(greedy, jammer) should hit both schemes alike since they "
    "never touch the HACK payload.")

SCHEMES = (
    ("TCP/HACK More Data", HackPolicy.MORE_DATA),
    ("TCP/802.11", HackPolicy.VANILLA),
)
ATTACKS = ("greedy", "jammer", "mutator")
INTENSITIES = (0.0, 0.25, 0.5, 1.0)
QUICK_INTENSITIES = (0.0, 0.5, 1.0)

#: Per-attack knobs beyond the shared intensity dial.
ATTACK_KWARGS = {
    "greedy": {},
    "jammer": {},
    "mutator": dict(mutate_mode="storm"),
}

#: Ceiling on a mutated HACK cell's summed open-desync age (ms): the
#: desyncs still open when the run ends must be young ones, not a
#: context that never left the desync state.  On quick seeds 1-6 the
#: rows' mean ``recovery_ms`` read 0.1-96 ms, the slowest single
#: recovery took 201.5 ms and the oldest open desync at the end was
#: 204.7 ms; the ceiling is twice that slowest recovery.
OPEN_DESYNC_BOUND_MS = 400.0

#: Churn direction that makes each attack observable (see module
#: docstring).
ATTACK_DIRECTION = {
    "greedy": "upload",
    "jammer": "download",
    "mutator": "download",
}


def _adversary(attack: str, intensity: float) -> AdversaryConfig:
    return AdversaryConfig(kind=attack, intensity=intensity,
                           **ATTACK_KWARGS[attack])


def _config(policy: HackPolicy, attack: str, intensity: float,
            seed: int, quick: bool) -> ScenarioConfig:
    duration = 1500 * MS if quick else 4 * SEC
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=4,
        traffic="dynamic", policy=policy,
        arrivals=ArrivalSpec(
            kind="poisson", direction=ATTACK_DIRECTION[attack],
            rate_per_s=30.0,
            size=SizeSpec(kind="lognormal", median_bytes=200_000,
                          sigma=1.0)),
        duration_ns=duration, warmup_ns=duration // 2,
        stagger_ns=0, seed=seed,
        adversary=_adversary(attack, intensity))


def intensities_for(quick: bool):
    return QUICK_INTENSITIES if quick else INTENSITIES


def sweep_spec(quick: bool = False, seeds=None, attacks=ATTACKS) -> SweepSpec:
    spec = SweepSpec("adversarial")
    for attack in attacks:
        for intensity in intensities_for(quick):
            for label, policy in SCHEMES:
                for seed in seeds or seeds_for(quick):
                    spec.add_scenario(
                        (attack, label, intensity),
                        _config(policy, attack, intensity, seed,
                                quick))
    return spec


def _fct_p99(metrics: Dict) -> Optional[float]:
    block = metrics["fct"]["fct_ms"]
    if not has_completions(block):
        # A saturating attack can legitimately complete zero flows;
        # that cell has no FCT tail to report (None, not a value the
        # mean/stdev aggregation would choke on).
        return None
    return block["p99"]


def _rohc(field: str):
    return lambda metrics: metrics["rohc"][field]


def _adv(field: str):
    return lambda metrics: metrics["adversary"][field]


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    rows: List[Dict] = []
    for attack, label, intensity in result.keys():
        key = (attack, label, intensity)
        recoveries = result.cell(key, _rohc("recoveries"))["mean"]
        recovery_ns = result.cell(
            key, _rohc("recovery_ns_total"))["mean"]
        p99s = [v for v in result.values(key, _fct_p99)
                if v is not None]
        rows.append({
            "figure": "adversarial", "attack": attack,
            "scheme": label, "intensity": intensity,
            "carried_mbps": result.cell(
                key, lambda m: m["fct"]["carried_load_mbps"])["mean"],
            "flows_completed": result.cell(
                key, lambda m: m["fct"]["flows_completed"])["mean"],
            "fct_p99_ms": sum(p99s) / len(p99s) if p99s else None,
            "fairness": result.cell(key, "fairness_index")["mean"],
            "desync_events": result.cell(
                key, _rohc("desync_events"))["mean"],
            "recoveries": recoveries,
            "open_desyncs": result.cell(
                key, _rohc("open_desyncs"))["mean"],
            "released_desyncs": result.cell(
                key, _rohc("released_desyncs"))["mean"],
            "open_desync_ms": result.cell(
                key, _rohc("open_desync_ns_total"))["mean"] / 1e6,
            "recovery_ms_mean": (recovery_ns / recoveries / 1e6
                                 if recoveries else 0.0),
            "mid_frame_aborts": result.cell(
                key, _rohc("mid_frame_aborts"))["mean"],
            "chain_repairs": result.cell(
                key, _rohc("chain_repairs"))["mean"],
            "internal_errors": max(result.values(
                key, _rohc("internal_errors"))),
            "tamper_errors": max(result.values(
                key, _adv("tamper_errors"))),
        })
    _annotate_baselines(rows)
    return rows


def _annotate_baselines(rows: List[Dict]) -> None:
    """Add retention / inflation columns relative to each (attack,
    scheme)'s intensity-0 row, and the ``resilient`` verdict."""
    baselines = {(row["attack"], row["scheme"]): row
                 for row in rows if row["intensity"] == 0.0}
    for row in rows:
        base = baselines.get((row["attack"], row["scheme"]))
        if base is None or base["carried_mbps"] <= 0:
            row["goodput_retention_pct"] = None
            row["fct_p99_inflation"] = None
        else:
            row["goodput_retention_pct"] = \
                100.0 * row["carried_mbps"] / base["carried_mbps"]
            base_p99, p99 = base["fct_p99_ms"], row["fct_p99_ms"]
            row["fct_p99_inflation"] = \
                p99 / base_p99 if p99 is not None and base_p99 \
                else None
        no_escapes = row["internal_errors"] == 0 \
            and row["tamper_errors"] == 0
        retained = (row["goodput_retention_pct"] or 0.0) > 0.0
        row["resilient"] = bool(
            no_escapes and (retained or row["intensity"] >= 1.0))


def resilience_failures(rows: List[Dict]) -> List[str]:
    """Human-readable criterion violations (empty = all pass)."""
    failures = []
    for row in rows:
        if not row["resilient"]:
            failures.append(
                f"{row['attack']}/{row['scheme']}"
                f"@{row['intensity']:g}: internal_errors="
                f"{row['internal_errors']:.0f} tamper_errors="
                f"{row['tamper_errors']:.0f} retention="
                f"{row['goodput_retention_pct']}")
    return failures


def check_rows(rows: List[Dict]) -> str:
    """The scenario family's pass/fail contract: no exception ever
    escaped the event loop under attack, non-saturating attacks
    retained goodput, the zero-intensity rows carry traffic and never
    desync, and the mutator must force desyncs on the HACK scheme and
    see some of them recovered.  Each mutated HACK cell's desync book
    balances — every declared desync was recovered, is still open or
    died with its flow — and what is still open is younger in sum than
    :data:`OPEN_DESYNC_BOUND_MS`: a desync open when the run ends is
    not a failure to recover, a stale one is."""
    mutated = [r for r in rows if r["attack"] == "mutator"
               and "HACK" in r["scheme"] and r["intensity"] > 0]
    clauses = 0
    for row in rows:
        cooperative = row["intensity"] == 0.0
        clauses += require(
            (row,),
            (row["internal_errors"] == 0 and row["tamper_errors"] == 0,
             "a fault escaped as an exception"),
            (row["resilient"], "unexplained goodput collapse"),
            cooperative and (row["carried_mbps"] > 0,
                             "cooperative baseline carries nothing"),
            cooperative and (row["desync_events"] == 0,
                             "cooperative baseline desynced"),
            row in mutated and (
                math.isclose(row["desync_events"],
                             row["recoveries"] + row["open_desyncs"]
                             + row["released_desyncs"], abs_tol=1e-9),
                "desync book does not balance (declared != recovered "
                "+ open + released)"),
            row in mutated and (
                row["open_desync_ms"] <= OPEN_DESYNC_BOUND_MS,
                f"open desyncs older than {OPEN_DESYNC_BOUND_MS:g} ms "
                f"in sum"))
    if mutated:
        clauses += require(
            mutated, (any(r["desync_events"] > 0 for r in mutated),
                      "the mutator never forced a desync"),
            (any(r["recoveries"] > 0 for r in mutated),
             "no forced desync was ever recovered"))
    return (f"adversarial: {clauses} clause(s) hold; {len(rows)} "
            f"cells resilient, {len(mutated)} mutated HACK cells "
            f"balanced their desync books")


def format_rows(rows: List[Dict]) -> str:
    body = []
    for row in sorted(rows, key=lambda r: (r["attack"], r["scheme"],
                                           r["intensity"])):
        retention = row["goodput_retention_pct"]
        inflation = row["fct_p99_inflation"]
        body.append([
            row["attack"], row["scheme"], f"{row['intensity']:g}",
            f"{row['carried_mbps']:.1f}",
            "-" if retention is None else f"{retention:.0f}%",
            "-" if row["fct_p99_ms"] is None
            else f"{row['fct_p99_ms']:.0f}",
            "-" if inflation is None else f"{inflation:.2f}x",
            f"{row['desync_events']:.0f}/{row['recoveries']:.0f}",
            f"{row['recovery_ms_mean']:.1f}",
            "yes" if row["resilient"] else "NO"])
    table = format_table(
        ["attack", "scheme", "intensity", "carried (Mbps)",
         "retention", "FCT p99 (ms)", "p99 infl.",
         "desync/recov", "recov (ms)", "resilient"],
        body,
        title="Adversarial robustness: goodput retention and ROHC "
              "containment under attack (802.11n, 150 Mbps, "
              "4 clients, per-attack churn direction)")
    lines = [table, ""]
    failures = resilience_failures(rows)
    if failures:
        lines.append("RESILIENCE FAILURES:")
        lines.extend(f"  {failure}" for failure in failures)
    else:
        lines.append("  all cells pass the resilience criteria "
                     "(no escaped faults; goodput retained below "
                     "saturating intensity)")
    top = max((row["intensity"] for row in rows), default=0.0)
    for attack in sorted({row["attack"] for row in rows}):
        cell = {row["scheme"]: row for row in rows
                if row["attack"] == attack
                and row["intensity"] == top}
        hack = cell.get("TCP/HACK More Data")
        stock = cell.get("TCP/802.11")
        if hack is None or stock is None:
            continue
        hack_ret = hack["goodput_retention_pct"]
        stock_ret = stock["goodput_retention_pct"]
        if hack_ret is None or stock_ret is None:
            continue
        lines.append(
            f"  {attack}@{top:g}: HACK retains {hack_ret:.0f}% vs "
            f"stock {stock_ret:.0f}% "
            f"(desyncs {hack['desync_events']:.0f}, "
            f"recovered {hack['recoveries']:.0f} in "
            f"{hack['recovery_ms_mean']:.1f} ms mean)")
    return "\n".join(lines)
