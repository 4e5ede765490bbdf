"""Top-level command-line interface.

Six subcommands (``experiments`` is an alias of ``sweep``)::

    python -m repro.cli simulate --phy 11n --rate 150 --clients 4 \\
        --policy more_data --duration 4 --seed 2
    python -m repro.cli simulate --scenario wireless-backup
    python -m repro.cli simulate --scenario churn-web --seed 3 \\
        --qdisc codel
    python -m repro.cli simulate --cells 4 --channels 2 \\
        --telemetry run.jsonl --trace-export run.trace.json
    python -m repro.cli scenarios
    python -m repro.cli experiments fig10 fig11 --quick
    python -m repro.cli sweep all --quick --jobs 4 --out results.json
    python -m repro.cli sweep scenario:multi-client --seeds 5 --jobs 2
    python -m repro.cli check results.json
    python -m repro.cli report run.jsonl

``simulate`` runs one scenario — a registry entry (``--scenario``) or
the ad-hoc default, with every flag given applied on top — and prints
a human-readable report; ``--telemetry`` / ``--trace-export`` /
``--sample-interval`` add the observability layer (time-series JSONL
plus a Chrome-trace JSON loadable in chrome://tracing or Perfetto);
``scenarios`` lists the registry; ``sweep`` / ``experiments`` forward
their arguments to :func:`repro.experiments.runner.main`, the one
command loop (experiment grids or ``scenario:<name>`` seed sweeps
through the parallel sweep engine, with per-cell caching, JSON
artifacts, ``--status`` audits and per-point telemetry); ``check``
reloads a ``--out`` artifact and applies every experiment's
``check_rows`` contract to it; ``report`` summarises a telemetry JSONL
artifact (kernel hot spots, airtime, queue peaks).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List, Optional

from .adversary import AdversaryConfig
from .adversary.config import MUTATE_MODES
from .core.policies import HackPolicy
from .experiments import runner as experiments_runner
from .experiments.runner import positive_int
from .mac.qdisc import DISCIPLINES
from .sim.units import MS, SEC
from .stats.fct import has_completions
from .tcp.sender import CONGESTION_CONTROLS
from .workloads import registry
from .workloads.registry import UnknownScenarioError
from .workloads.scenarios import PHY_MODES, LossSpec, ScenarioConfig, \
    run_scenario

#: What ``simulate`` runs when no ``--scenario`` is named.
AD_HOC = ScenarioConfig(
    phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
    policy=HackPolicy.MORE_DATA, traffic="tcp_download",
    duration_ns=4 * SEC, warmup_ns=2 * SEC, stagger_ns=50 * MS)


def _seconds(text: str) -> int:
    """argparse ``type=``: simulated seconds -> nanoseconds."""
    return int(float(text) * SEC)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TCP/HACK reproduction (USENIX ATC 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Scenario-knob flags default to None and are stored under their
    # ScenarioConfig field name: _simulate_config applies exactly the
    # flags given on top of the base config.
    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--scenario", default=None,
                     help="start from a registered scenario (see "
                          "`repro scenarios`) instead of the ad-hoc "
                          "default (11n, 150 Mbps, one client, MORE "
                          "DATA, 4 s); flags given override its "
                          "fields, flags left out keep them")
    sim.add_argument("--phy", dest="phy_mode", choices=tuple(PHY_MODES))
    sim.add_argument("--rate", dest="data_rate_mbps", type=float,
                     help="PHY data rate in Mbps")
    sim.add_argument("--clients", dest="n_clients", type=int,
                     help="clients per cell")
    sim.add_argument("--cells", type=positive_int,
                     help="co-channel overlapping cells (each a full "
                          "AP + clients BSS on the one medium)")
    sim.add_argument("--channels", type=positive_int,
                     help="non-overlapping channels; cells are "
                          "assigned round-robin (cell i -> channel "
                          "i %% channels), and cells on different "
                          "channels never contend")
    sim.add_argument("--shard-jobs", type=positive_int,
                     default=None, metavar="N",
                     help="processes for a multi-channel run, which "
                          "always executes as one shard per channel: "
                          "1 = serial shards, N > 1 = pool of "
                          "min(N, shards) workers; default = one "
                          "worker per shard on a multi-core host, "
                          "serial on one core (metrics identical "
                          "either way)")
    sim.add_argument("--flows-per-client", type=int)
    sim.add_argument("--policy", type=HackPolicy,
                     choices=list(HackPolicy),
                     metavar="{%s}" % ",".join(
                         p.value for p in HackPolicy))
    sim.add_argument("--traffic",
                     choices=("tcp_download", "tcp_upload",
                              "udp_download"))
    sim.add_argument("--duration", dest="duration_ns", type=_seconds,
                     metavar="S", help="simulated seconds")
    sim.add_argument("--warmup", dest="warmup_ns", type=_seconds,
                     metavar="S",
                     help="warm-up seconds (default: duration/2 "
                          "when --duration is given)")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--loss", dest="uniform_loss", type=float,
                     help="uniform per-MPDU loss probability")
    sim.add_argument("--snr", type=float,
                     help="SNR in dB (overrides --loss)")
    sim.add_argument("--sora", action="store_true", default=None,
                     help="emulate SoRa's late LL ACKs")
    sim.add_argument("--kernel-stats", action="store_true",
                     help="print event-kernel counters (callbacks "
                          "run per wall-second, heap pushes per "
                          "delivered MPDU, cancellations, heap "
                          "compactions)")
    sim.add_argument("--adversary", dest="adversary_kind",
                     choices=("greedy", "jammer", "mutator"),
                     help="inject a misbehaving actor (greedy "
                          "CW-cheating station, energy jammer, or "
                          "compressed-ACK payload mutator)")
    sim.add_argument("--adversary-intensity", type=float,
                     metavar="X",
                     help="attack severity in [0, 1] (default 0.5); "
                          "0 installs nothing and is bit-identical "
                          "to the cooperative run")
    sim.add_argument("--adversary-mode", default=None,
                     choices=MUTATE_MODES,
                     help="the mutator's corruption: flip (one frame, "
                          "the default) or storm (a multi-frame "
                          "desync storm)")
    sim.add_argument("--cc", choices=CONGESTION_CONTROLS,
                     help="TCP congestion control (default reno; "
                          "cubic = RFC 8312 window growth)")
    sim.add_argument("--pacing", action="store_true", default=None,
                     help="pace TCP senders at ~2*cwnd/SRTT instead "
                          "of bursting the whole window")
    sim.add_argument("--qdisc", dest="queue_discipline",
                     choices=DISCIPLINES,
                     help="per-station MAC queue discipline "
                          "(default droptail; codel = RFC 8289 "
                          "sojourn AQM, fq_codel = RFC 8290 per-flow "
                          "DRR + CoDel)")
    sim.add_argument("--telemetry", default=None, metavar="PATH",
                     help="write time-series telemetry (per-channel "
                          "utilisation, AP/wired queue depths, live "
                          "flows, HACK buffer, ROHC CIDs) as JSONL "
                          "to PATH; summarise with `repro report`")
    sim.add_argument("--trace-export", default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON (frames + "
                          "kernel spans + counter tracks) loadable in "
                          "chrome://tracing or Perfetto")
    sim.add_argument("--sample-interval", type=float, default=10.0,
                     metavar="MS",
                     help="telemetry sampling interval in simulated "
                          "milliseconds (default 10)")

    sub.add_parser("scenarios", help="list registered scenarios")

    # Listed here for `repro --help` only: main() forwards their argv
    # to the runner's own parser before this one runs.
    sub.add_parser(
        "sweep", aliases=["experiments"], add_help=False,
        help="reproduce paper tables/figures, run experiment grids "
             "or scenario seed-sweeps (python -m "
             "repro.experiments.runner; see `repro sweep --help`)")

    check = sub.add_parser(
        "check",
        help="gate a sweep --out artifact on every experiment's "
             "check_rows contract")
    check.add_argument("artifact", help="JSON file written by "
                                        "`repro sweep ... --out`")
    check.add_argument("names", nargs="*",
                       help="entries to check (default: all in the "
                            "artifact)")

    report = sub.add_parser(
        "report",
        help="summarise a telemetry JSONL artifact")
    report.add_argument("path", help="telemetry JSONL file "
                                     "(simulate --telemetry / sweep "
                                     "--telemetry-dir output)")
    report.add_argument("--top", type=positive_int, default=10,
                        metavar="N",
                        help="kernel span owners / queue gauges shown "
                             "(default 10)")
    return parser


def _simulate_config(args: argparse.Namespace) -> ScenarioConfig:
    """The base config — the ``--scenario`` registry entry, else
    :data:`AD_HOC` — with exactly the flags given applied on top."""
    base = AD_HOC if args.scenario is None \
        else registry.build(args.scenario)
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ScenarioConfig)
        if getattr(args, f.name, None) is not None}
    if "duration_ns" in overrides:
        overrides.setdefault("warmup_ns", overrides["duration_ns"] // 2)
    if args.snr is not None:
        overrides["loss"] = LossSpec(kind="snr", snr_db=args.snr)
    elif args.uniform_loss is not None:
        overrides["loss"] = LossSpec(
            kind="uniform", data_loss=args.uniform_loss) \
            if args.uniform_loss else LossSpec()
    kind = args.adversary_kind or getattr(base.adversary, "kind", None)
    adversary = {"kind": args.adversary_kind,
                 "intensity": args.adversary_intensity}
    if args.adversary_mode is not None:
        if kind != "mutator":
            raise ValueError("--adversary-mode only applies to "
                             "--adversary mutator")
        adversary["mutate_mode"] = args.adversary_mode
    adversary = {k: v for k, v in adversary.items() if v is not None}
    if adversary:
        if kind is None:
            raise ValueError("--adversary-intensity needs an attack: "
                             "--adversary greedy/jammer/mutator")
        overrides["adversary"] = dataclasses.replace(
            base.adversary or AdversaryConfig(kind, intensity=0.5),
            **adversary)
    config = dataclasses.replace(base, **overrides)
    config.validate()
    return config


def _simulate(args: argparse.Namespace) -> int:
    try:
        config = _simulate_config(args)
        telemetry = None
        if args.telemetry or args.trace_export:
            from .obs import TelemetryConfig
            telemetry = TelemetryConfig(
                sample_interval_ns=int(args.sample_interval * MS),
                telemetry_path=args.telemetry,
                trace_export_path=args.trace_export)
    except (UnknownScenarioError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    result = run_scenario(config, shard_jobs=args.shard_jobs,
                          telemetry=telemetry)
    wall_s = time.perf_counter() - started
    print(f"aggregate goodput : "
          f"{result.aggregate_goodput_mbps:8.2f} Mbps")
    for flow_id, goodput in sorted(
            result.per_flow_goodput_mbps.items()):
        label = f"flow {flow_id}" if flow_id > 0 else \
            f"udp sink {-flow_id}"
        print(f"  {label:<14}: {goodput:8.2f} Mbps")
    for name, mbps in sorted(
            result.udp_background_goodput_mbps.items()):
        print(f"  udp noise @{name:<4}: {mbps:8.2f} Mbps")
    print(f"fairness (Jain)   : {result.fairness_index:8.4f}")
    print(f"frames / collided : {result.medium_frames_sent} / "
          f"{result.medium_frames_collided}")
    print(f"medium utilisation: {result.medium_utilisation:8.2%}")
    if len(result.channel_blocks) > 1:
        info = result.shard_info
        for block in result.channel_blocks:
            wall = info["shard_wall_s"][str(block["channel"])]
            parts = [f"utilisation {block['utilisation']:6.2%}",
                     f"airtime sum {block['airtime_share_sum']:.3f}",
                     f"frames {block['frames_sent']}/"
                     f"{block['frames_collided']} collided",
                     f"shard {wall:.2f}s"]
            print(f"  channel {block['channel']}: " + ", ".join(parts))
        how = f"jobs {info['jobs']}"
        if info["requested_jobs"] is None:
            # The default decided: say what, and why if serial.
            how = "one worker per shard" if info["jobs"] > 1 \
                else "in-process: this host has one core"
        print(f"shard execution   : {len(info['shards'])} "
              f"shards, {info['mode']} ({how}), "
              f"{info['wall_s']:.2f}s")
    if len(result.cell_blocks) > 1:
        for block in result.cell_blocks:
            parts = [f"carried {block['carried_mbps']:7.2f} Mbps",
                     f"airtime {block['airtime_share']:6.2%}",
                     f"frames {block['frames_sent']}/"
                     f"{block['frames_collided']} collided"]
            cell_fct = block["fct"]
            if cell_fct is not None:
                parts.append(f"flows {cell_fct['flows_completed']}")
                if has_completions(cell_fct["fct_ms"]):
                    parts.append(
                        f"p50 {cell_fct['fct_ms']['p50']:.1f} ms")
            print(f"  {block['label']} ({block['ap']:<4}): "
                  + ", ".join(parts))
        print(f"cell fairness     : "
              f"{result.cell_fairness_index:8.4f}")
    counters = result.decomp_counters
    if counters["acks_reconstructed"]:
        print(f"HACK ACKs         : "
              f"{counters['acks_reconstructed']} reconstructed, "
              f"{counters['crc_failures']} CRC failures, "
              f"{counters['duplicates_skipped']} duplicates skipped")
    rohc = result.rohc_counters
    if any(rohc.values()):
        print(f"ROHC robustness   : "
              f"{rohc['mid_frame_aborts']} frame aborts, "
              f"{rohc['desync_events']} desyncs "
              f"({rohc['recoveries']} recovered, "
              f"{rohc['open_desyncs']} open), "
              f"{rohc['chain_repairs']} chain repairs, "
              f"{rohc['internal_errors']} internal errors")
        if rohc["recoveries"]:
            mean_ms = rohc["recovery_ns_total"] \
                / rohc["recoveries"] / 1e6
            print(f"  context recovery: {mean_ms:8.2f} ms mean, "
                  f"{rohc['recovery_frames_total']} HACK frames "
                  f"spent desynced")
    aqm = result.aqm_counters
    if aqm and (aqm["discipline"] != "droptail" or aqm["drops"]):
        parts = [f"{aqm['drops']} drops",
                 f"{aqm['dequeued']} dequeued"]
        if aqm["sojourn_p99_ms"] is not None:
            parts.append(f"sojourn p50 {aqm['sojourn_p50_ms']:.2f} / "
                         f"p99 {aqm['sojourn_p99_ms']:.2f} ms")
        print(f"AQM ({aqm['discipline']:<9}): " + ", ".join(parts))
    adv = result.adversary_counters
    if adv is not None:
        print(f"adversary         : {adv['kind']} @ intensity "
              f"{adv['intensity']:g}")
        activity = {key: value for key, value in adv.items()
                    if key not in ("kind", "intensity") and value}
        if activity:
            print("  " + ", ".join(f"{key} {value}"
                                   for key, value
                                   in sorted(activity.items())))
    timeouts = sum(c["timeouts"]
                   for c in result.sender_counters.values())
    print(f"TCP timeouts      : {timeouts}")
    fct = result.fct
    if fct is not None:
        print(f"flows             : {fct['flows_spawned']} spawned, "
              f"{fct['flows_completed']} completed, "
              f"{fct['flows_censored']} censored")
        if has_completions(fct["fct_ms"]):
            dist = fct["fct_ms"]
            print(f"FCT (ms)          : p50 {dist['p50']:.1f}, "
                  f"p95 {dist['p95']:.1f}, p99 {dist['p99']:.1f}")
        print(f"offered / carried : {fct['offered_load_mbps']:.2f} / "
              f"{fct['carried_load_mbps']:.2f} Mbps")
    if args.kernel_stats:
        # The run's counters (summed over its shards' kernels), then
        # each shard's own.  A callback run is a heap dispatch or a
        # delivery a train made inline; the rate a user waits for is
        # callbacks/s.
        kernel = result.kernel_stats
        callbacks = kernel["events_executed"] + kernel["events_inlined"]
        rate = callbacks / wall_s if wall_s > 0 else 0.0
        delivered = result.mac_stats.delivered()
        print(f"kernel callbacks  : {callbacks} run "
              f"({rate:,.0f}/s wall): "
              f"{kernel['events_executed']} executed from the "
              f"heap, {kernel['events_inlined']} inlined by trains")
        print(f"heap pushes       : "
              f"{kernel['events_scheduled']} scheduled, "
              f"{kernel['events_cancelled']} cancelled")
        print(f"pushes per MPDU   : "
              f"{kernel['events_scheduled'] / max(1, delivered):.2f}"
              f" ({delivered} MPDUs delivered)")
        print(f"heap compactions  : {kernel['heap_compactions']}")
        print(f"timer re-arms     : {kernel['timer_rearms']} "
              f"absorbed without a heap push")
        for block in result.shard_blocks or ():
            shard_kernel = block["kernel_stats"]
            print(f"  shard ch{block['channel']} "
                  f"(cells {block['cells']}): "
                  f"{shard_kernel['events_executed']} executed, "
                  f"{shard_kernel['events_inlined']} inlined, "
                  f"{shard_kernel['events_cancelled']} cancelled, "
                  f"{shard_kernel['events_scheduled']} scheduled, "
                  f"{shard_kernel['heap_compactions']} "
                  f"compactions, "
                  f"{shard_kernel['timer_rearms']} timer re-arms")
    tele = result.telemetry
    if tele is not None:
        print(f"telemetry         : {tele['samples']} samples @ "
              f"{tele['sample_interval_ns'] / MS:g} ms")
        spans = tele["spans"]
        print(f"kernel spans      : {spans['events']} events, "
              f"{spans['total_wall_ns'] / 1e6:.1f} ms wall")
        if args.telemetry:
            print(f"telemetry artifact: {args.telemetry}")
        if args.trace_export:
            print(f"chrome trace      : {args.trace_export} "
                  f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _scenarios(_args: argparse.Namespace) -> int:
    for entry in registry.describe_all():
        print(f"{entry['name']:<16} {entry['description']}")
    return 0


def _check(args: argparse.Namespace) -> int:
    """``repro check``: gate a ``sweep --out`` artifact.

    Every named entry (default: all) must hold a complete record set —
    no record carrying an ``error``, not ``interrupted``
    (``SweepResult.complete``), this build's engine version — and,
    when it is an experiment, rows that pass the module's
    ``check_rows``.  Exit 0 all green, 1 after checking all
    entries if any failed (one ``FAIL`` line each), 2 when the file is
    not a loadable artifact.
    """
    try:
        results = experiments_runner.read_artifacts(args.artifact,
                                                    args.names)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failures = 0
    for name, result in results.items():
        module = experiments_runner.EXPERIMENTS.get(name)
        try:
            if not result.complete:
                raise AssertionError(
                    f"incomplete record set ({result.failed} failed "
                    f"point(s), interrupted={result.interrupted})")
            if module is None:
                summary = (f"{name}: {len(result.records)} records "
                           f"complete (no check_rows contract)")
            else:
                summary = module.check_rows(
                    module.rows_from_sweep(result))
        except AssertionError as error:
            failures += 1
            print(f"FAIL {name}: {error}")
        else:
            print(f"ok   {summary}")
    return 1 if failures else 0


def _report(args: argparse.Namespace) -> int:
    from .obs import TelemetryArtifactError, print_report
    try:
        print_report(args.path, top=args.top)
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}",
              file=sys.stderr)
        return 2
    except TelemetryArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("sweep", "experiments"):
        return experiments_runner.main(argv[1:],
                                       prog=f"repro {argv[0]}")
    args = _build_parser().parse_args(argv)
    return {"simulate": _simulate, "scenarios": _scenarios,
            "check": _check, "report": _report}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
