"""Top-level command-line interface.

Five subcommands::

    python -m repro.cli simulate --phy 11n --rate 150 --clients 4 \\
        --policy more_data --duration 4 --seed 2
    python -m repro.cli simulate --scenario wireless-backup
    python -m repro.cli simulate --scenario churn-web --seed 3
    python -m repro.cli simulate --cells 4 --channels 2 \\
        --telemetry run.jsonl --trace-export run.trace.json
    python -m repro.cli scenarios
    python -m repro.cli experiments fig10 fig11 --quick
    python -m repro.cli sweep all --quick --jobs 4 --out results.json
    python -m repro.cli sweep fct_churn --quick --jobs 2
    python -m repro.cli sweep scenario:multi-client --seeds 5 --jobs 2
    python -m repro.cli report run.jsonl

``simulate`` runs one scenario (ad-hoc flags or a registry name) and
prints a human-readable report — ``--telemetry`` / ``--trace-export``
/ ``--sample-interval`` add the observability layer (time-series JSONL
plus a Chrome-trace JSON loadable in chrome://tracing or Perfetto);
``scenarios`` lists the registry; ``experiments`` forwards to
:mod:`repro.experiments.runner`; ``sweep`` executes experiment grids
or registered scenarios through the parallel sweep engine, with
per-cell caching, JSON artifacts and per-point telemetry
(``--telemetry-dir``); ``report`` summarises a telemetry JSONL
artifact (kernel hot spots, airtime, queue peaks).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List, Optional

from .adversary import AdversaryConfig
from .core.policies import HackPolicy
from .experiments import runner as experiments_runner
from .experiments.runner import positive_int
from .experiments.batch import SweepCache, SweepInterrupted, \
    SweepResult
from .experiments.common import format_table
from .experiments.progress import format_status, sweep_status
from .sim.units import MS, SEC, usec
from .stats.fct import has_completions
from .workloads import registry
from .workloads.registry import UnknownScenarioError
from .workloads.scenarios import LossSpec, ScenarioConfig, run_scenario

SCENARIO_PREFIX = "scenario:"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TCP/HACK reproduction (USENIX ATC 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--scenario", default=None,
                     help="start from a registered scenario "
                          "(see `repro scenarios`); other flags "
                          "except --seed are ignored")
    sim.add_argument("--phy", choices=("11a", "11n"), default="11n")
    sim.add_argument("--rate", type=float, default=150.0,
                     help="PHY data rate in Mbps")
    sim.add_argument("--clients", type=int, default=1,
                     help="clients per cell")
    sim.add_argument("--cells", type=positive_int, default=1,
                     help="co-channel overlapping cells (each a full "
                          "AP + clients BSS on the one medium)")
    sim.add_argument("--channels", type=positive_int, default=1,
                     help="non-overlapping channels; cells are "
                          "assigned round-robin (cell i -> channel "
                          "i %% channels), and cells on different "
                          "channels never contend")
    sim.add_argument("--shard-jobs", type=positive_int,
                     default=None, metavar="N",
                     help="execute a multi-channel run as one shard "
                          "per channel: 1 = serial shards, N > 1 = "
                          "process pool (metrics identical either "
                          "way); prints per-channel shard summaries")
    sim.add_argument("--flows-per-client", type=int, default=1)
    sim.add_argument("--policy",
                     choices=[p.value for p in HackPolicy],
                     default="more_data")
    sim.add_argument("--traffic",
                     choices=("tcp_download", "tcp_upload",
                              "udp_download"),
                     default="tcp_download")
    sim.add_argument("--duration", type=float, default=4.0,
                     help="simulated seconds")
    sim.add_argument("--warmup", type=float, default=None,
                     help="warm-up seconds (default: duration/2)")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--loss", type=float, default=0.0,
                     help="uniform per-MPDU loss probability")
    sim.add_argument("--snr", type=float, default=None,
                     help="SNR in dB (overrides --loss)")
    sim.add_argument("--aarf", action="store_true",
                     help="enable AARF rate adaptation")
    sim.add_argument("--sora", action="store_true",
                     help="emulate SoRa's late LL ACKs")
    sim.add_argument("--kernel-stats", action="store_true",
                     help="print event-kernel counters (events "
                          "executed/cancelled, heap compactions, "
                          "events per wall-second)")
    sim.add_argument("--adversary", default=None,
                     choices=("greedy", "jammer", "mutator"),
                     help="inject a misbehaving actor (greedy "
                          "CW-cheating station, energy jammer, or "
                          "compressed-ACK payload mutator)")
    sim.add_argument("--adversary-intensity", type=float, default=0.5,
                     metavar="X",
                     help="attack severity in [0, 1] (default 0.5); "
                          "0 installs nothing and is bit-identical "
                          "to the cooperative run")
    sim.add_argument("--adversary-mode", default=None,
                     help="discipline variant: periodic|reactive for "
                          "the jammer, flip|cid|storm for the mutator "
                          "(defaults: periodic / flip)")
    sim.add_argument("--cc", choices=("reno", "cubic"),
                     default="reno",
                     help="TCP congestion control (default reno; "
                          "cubic = RFC 8312 window growth)")
    sim.add_argument("--pacing", action="store_true",
                     help="pace TCP senders at ~2*cwnd/SRTT instead "
                          "of bursting the whole window")
    sim.add_argument("--qdisc",
                     choices=("droptail", "codel", "fq_codel"),
                     default="droptail",
                     help="per-station MAC queue discipline "
                          "(default droptail; codel = RFC 8289 "
                          "sojourn AQM, fq_codel = RFC 8290 per-flow "
                          "DRR + CoDel)")
    sim.add_argument("--stream-stats", action="store_true",
                     help="bounded-memory streaming FCT aggregation "
                          "for churn scenarios (percentiles "
                          "histogram-quantised at ~2.3%% resolution)")
    sim.add_argument("--telemetry", default=None, metavar="PATH",
                     help="stream time-series telemetry (per-channel "
                          "utilisation, AP/wired queue depths, live "
                          "flows, HACK buffer, ROHC CIDs) as JSONL "
                          "to PATH; summarise with `repro report`")
    sim.add_argument("--trace-export", default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON (frames + "
                          "kernel spans + counter tracks) loadable in "
                          "chrome://tracing or Perfetto; refused for "
                          "sharded runs")
    sim.add_argument("--sample-interval", type=float, default=10.0,
                     metavar="MS",
                     help="telemetry sampling interval in simulated "
                          "milliseconds (default 10)")

    sub.add_parser("scenarios", help="list registered scenarios")

    exp = sub.add_parser("experiments",
                         help="reproduce paper tables/figures")
    exp.add_argument("names", nargs="+",
                     choices=sorted(experiments_runner.EXPERIMENTS)
                     + ["all"])
    exp.add_argument("--quick", action="store_true")

    sweep = sub.add_parser(
        "sweep",
        help="run experiment grids / scenario seed-sweeps in parallel")
    sweep.add_argument(
        "names", nargs="+",
        help="experiment names, 'all', or "
             f"'{SCENARIO_PREFIX}<registered-scenario>'")
    experiments_runner.add_sweep_arguments(sweep)
    sweep.add_argument("--seeds", type=int, default=5, metavar="N",
                       help="seeds per scenario sweep (default 5, "
                            "--quick forces 1; experiments use their "
                            "own seed policy)")
    sweep.add_argument("--status", action="store_true",
                       help="run nothing: audit --cache-dir against "
                            "the named sweeps and report which cells "
                            "are complete/missing/failed/corrupt "
                            "(exit 0 when complete, 3 otherwise)")

    report = sub.add_parser(
        "report",
        help="summarise a telemetry JSONL artifact")
    report.add_argument("path", help="telemetry JSONL file "
                                     "(simulate --telemetry / sweep "
                                     "--telemetry-dir output)")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="kernel span owners / queue gauges shown "
                             "(default 10)")
    return parser


def _simulate(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        # Transport/queue flags override the registry entry only when
        # set away from their defaults, so e.g. `--scenario
        # churn-cubic-codel` keeps its registered cc/qdisc.
        transport_overrides = {}
        if args.cc != "reno":
            transport_overrides["cc"] = args.cc
        if args.pacing:
            transport_overrides["pacing"] = True
        if args.qdisc != "droptail":
            transport_overrides["queue_discipline"] = args.qdisc
        try:
            config = registry.build(args.scenario, seed=args.seed,
                                    stream_stats=args.stream_stats,
                                    **transport_overrides)
        except UnknownScenarioError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        duration = int(args.duration * SEC)
        warmup = int(args.warmup * SEC) if args.warmup is not None \
            else duration // 2
        if args.snr is not None:
            loss = LossSpec(kind="snr", snr_db=args.snr)
        elif args.loss > 0:
            loss = LossSpec(kind="uniform", data_loss=args.loss)
        else:
            loss = LossSpec()
        config = ScenarioConfig(
            phy_mode=args.phy, data_rate_mbps=args.rate,
            n_clients=args.clients, cells=args.cells,
            channels=args.channels,
            flows_per_client=args.flows_per_client,
            policy=HackPolicy(args.policy), traffic=args.traffic,
            duration_ns=duration, warmup_ns=warmup, seed=args.seed,
            loss=loss,
            rate_adaptation="aarf" if args.aarf else None,
            extra_response_delay_ns=usec(37) if args.sora else 0,
            ack_timeout_extra_ns=usec(60) if args.sora else 0,
            stagger_ns=50 * MS, stream_stats=args.stream_stats,
            cc=args.cc, pacing=args.pacing,
            queue_discipline=args.qdisc)
    if args.adversary is not None:
        adv_kwargs = {"kind": args.adversary,
                      "intensity": args.adversary_intensity}
        if args.adversary_mode:
            mode_field = {"jammer": "jam_mode",
                          "mutator": "mutate_mode"}.get(args.adversary)
            if mode_field is None:
                print("error: --adversary-mode only applies to "
                      "jammer/mutator", file=sys.stderr)
                return 2
            adv_kwargs[mode_field] = args.adversary_mode
        config = dataclasses.replace(
            config, adversary=AdversaryConfig(**adv_kwargs))
    try:
        config.validate()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    telemetry = None
    if args.telemetry or args.trace_export:
        from .obs import TelemetryConfig
        if args.sample_interval <= 0:
            print("error: --sample-interval must be positive",
                  file=sys.stderr)
            return 2
        telemetry = TelemetryConfig(
            sample_interval_ns=int(args.sample_interval * MS),
            telemetry_path=args.telemetry,
            trace_export_path=args.trace_export)
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
        shard_walls = (result.shard_info or {}).get("shard_wall_s", {})
        for block in result.channel_blocks:
            parts = [f"utilisation {block['utilisation']:6.2%}",
                     f"airtime sum {block['airtime_share_sum']:.3f}",
                     f"frames {block['frames_sent']}/"
                     f"{block['frames_collided']} collided"]
            wall = shard_walls.get(str(block["channel"]))
            if wall is not None:
                parts.append(f"shard {wall:.2f}s")
            print(f"  channel {block['channel']}: " + ", ".join(parts))
        if result.shard_info is not None:
            info = result.shard_info
            print(f"shard execution   : {info['plan']['shards']} "
                  f"shards, {info['mode']} (jobs {info['jobs']}), "
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
    if result.fct is not None:
        fct = result.fct
        print(f"flows             : {fct['flows_spawned']} spawned, "
              f"{fct['flows_completed']} completed, "
              f"{fct['flows_censored']} censored")
        if has_completions(fct["fct_ms"]):
            dist = fct["fct_ms"]
            streaming = fct.get("streaming")
            suffix = ""
            if streaming:
                suffix = (f"  [streaming, ±"
                          f"{streaming['relative_resolution']:.1%}]")
            print(f"FCT (ms)          : p50 {dist['p50']:.1f}, "
                  f"p95 {dist['p95']:.1f}, p99 {dist['p99']:.1f}"
                  f"{suffix}")
        print(f"offered / carried : {fct['offered_load_mbps']:.2f} / "
              f"{fct['carried_load_mbps']:.2f} Mbps")
    if args.kernel_stats:
        kernel = result.kernel_stats
        if kernel:
            rate = kernel["events_executed"] / wall_s \
                if wall_s > 0 else 0.0
            print(f"kernel events     : "
                  f"{kernel['events_executed']} executed "
                  f"({rate:,.0f}/s wall), "
                  f"{kernel['events_cancelled']} cancelled, "
                  f"{kernel['events_scheduled']} scheduled")
            print(f"heap compactions  : {kernel['heap_compactions']}")
            print(f"timer re-arms     : {kernel['timer_rearms']} "
                  f"absorbed without a heap push")
        if result.shard_blocks:
            # Sharded runs: each shard ran its own kernel, so the
            # counters are per shard, never summed.
            for block in result.shard_blocks:
                shard_kernel = block["kernel_stats"]
                print(f"  shard ch{block['channel']} "
                      f"(cells {block['cells']}): "
                      f"{shard_kernel['events_executed']} executed, "
                      f"{shard_kernel['events_cancelled']} cancelled, "
                      f"{shard_kernel['events_scheduled']} scheduled, "
                      f"{shard_kernel['heap_compactions']} "
                      f"compactions, "
                      f"{shard_kernel['timer_rearms']} timer re-arms")
    if result.telemetry is not None:
        tele = result.telemetry
        print(f"telemetry         : {tele['samples']} samples @ "
              f"{tele['sample_interval_ns'] / MS:g} ms")
        spans = tele.get("spans")
        if spans is not None:
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


def _print_scenario_sweep(name: str, result: SweepResult) -> None:
    cell = result.cell((name,), "aggregate_goodput_mbps")
    fairness = result.cell((name,), "fairness_index")
    headers = ["scenario", "runs", "goodput (Mbps)", "stdev",
               "fairness"]
    row = [name, str(cell["runs"]), f"{cell['mean']:.2f}",
           f"{cell['stdev']:.2f}", f"{fairness['mean']:.4f}"]
    metrics = result.metrics_for((name,))
    if metrics and all(m.get("fct") for m in metrics) \
            and all(has_completions(m["fct"]["fct_ms"])
                    for m in metrics):
        flows = result.cell(
            (name,), lambda m: m["fct"]["flows_completed"])
        p50 = result.cell((name,), lambda m: m["fct"]["fct_ms"]["p50"])
        carried = result.cell(
            (name,), lambda m: m["fct"]["carried_load_mbps"])
        headers += ["flows", "FCT p50 (ms)", "carried (Mbps)"]
        row += [f"{flows['mean']:.0f}", f"{p50['mean']:.1f}",
                f"{carried['mean']:.2f}"]
    print(format_table(headers, [row], title=f"Sweep: {name}"))


def _sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    experiment_names: List[str] = []
    scenario_names: List[str] = []
    for name in args.names:
        if name.startswith(SCENARIO_PREFIX):
            scenario = name[len(SCENARIO_PREFIX):]
            try:
                registry.get(scenario)
            except UnknownScenarioError as error:
                print(f"error: {error.args[0]}", file=sys.stderr)
                return 2
            scenario_names.append(scenario)
        elif name == "all":
            experiment_names.extend(
                sorted(experiments_runner.EXPERIMENTS))
        elif name in experiments_runner.EXPERIMENTS:
            experiment_names.append(name)
        elif name in registry.names():
            scenario_names.append(name)
        else:
            print(f"unknown sweep target {name!r}: expected an "
                  f"experiment "
                  f"({', '.join(sorted(experiments_runner.EXPERIMENTS))}"
                  f", all) or a registered scenario "
                  f"({', '.join(registry.names())})", file=sys.stderr)
            return 2

    experiment_names = list(dict.fromkeys(experiment_names))
    scenario_names = list(dict.fromkeys(scenario_names))

    def scenario_seeds() -> tuple:
        # --quick keeps its runner meaning for scenarios: one seed
        # (scenario durations come from the registry, not --quick).
        return (1,) if args.quick else tuple(range(1, args.seeds + 1))

    def build_spec(name: str, scenario: bool = False):
        if scenario:
            spec = registry.sweep_spec(name, scenario_seeds())
        else:
            spec = experiments_runner.EXPERIMENTS[name].sweep_spec(
                quick=args.quick)
        return experiments_runner.apply_stream_stats(spec, args)

    if args.status:
        return _sweep_status(args, experiment_names, scenario_names,
                             build_spec)

    sweep_runner = experiments_runner.make_runner(args)
    artifacts = {}
    exit_code = 0
    for name in experiment_names:
        module = experiments_runner.EXPERIMENTS[name]
        started = time.time()
        try:
            result = sweep_runner.run(build_spec(name))
        except SweepInterrupted as stop:
            return experiments_runner.handle_interrupt(
                name, stop, artifacts, args.out)
        elapsed = time.time() - started
        experiments_runner.print_rows_or_failure_note(
            name, module, result)
        print(f"[{name}: {len(result.records)} cells in {elapsed:.1f}s "
              f"({result.executed} run, {result.cache_hits} cached, "
              f"{result.failed} failed)]\n")
        if result.failed:
            experiments_runner.report_failures(name, result)
            exit_code = 1
        artifacts[name] = result.to_json_dict()
    for name in scenario_names:
        started = time.time()
        try:
            result = sweep_runner.run(build_spec(name, scenario=True))
        except SweepInterrupted as stop:
            return experiments_runner.handle_interrupt(
                f"{SCENARIO_PREFIX}{name}", stop, artifacts, args.out)
        elapsed = time.time() - started
        if result.failed:
            experiments_runner.report_failures(name, result)
            exit_code = 1
        else:
            _print_scenario_sweep(name, result)
        print(f"[{name}: {len(result.records)} cells in {elapsed:.1f}s "
              f"({result.executed} run, {result.cache_hits} cached, "
              f"{result.failed} failed)]\n")
        artifacts[f"{SCENARIO_PREFIX}{name}"] = result.to_json_dict()
    if args.out:
        experiments_runner.write_artifacts(args.out, artifacts)
        print(f"wrote sweep records to {args.out}")
    return exit_code


def _sweep_status(args: argparse.Namespace,
                  experiment_names: List[str],
                  scenario_names: List[str], build_spec) -> int:
    """``repro sweep --status``: audit the cache, simulate nothing."""
    if args.no_cache:
        print("error: --status needs a cache directory "
              "(drop --no-cache)", file=sys.stderr)
        return 2
    cache = SweepCache(args.cache_dir)
    all_complete = True
    for name in experiment_names:
        status = sweep_status(build_spec(name), cache)
        print(format_status(status) + "\n")
        all_complete = all_complete and status.complete
    for name in scenario_names:
        status = sweep_status(build_spec(name, scenario=True), cache)
        print(format_status(status) + "\n")
        all_complete = all_complete and status.complete
    return 0 if all_complete else 3


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
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "scenarios":
        return _scenarios(args)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "report":
        return _report(args)
    forwarded = list(args.names)
    if args.quick:
        forwarded.append("--quick")
    return experiments_runner.main(forwarded)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
