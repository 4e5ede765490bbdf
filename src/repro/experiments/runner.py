"""Command-line entry point for the experiment suite.

Usage::

    python -m repro.experiments.runner fig01 fig09 --quick
    python -m repro.experiments.runner all --jobs 4 --out results.json

Each experiment declares its grid as a :class:`SweepSpec`; the shared
:class:`SweepRunner` executes every cell — serially by default, or
fanned out over ``--jobs`` worker processes — prints the corresponding
paper table/figure as text, and (with ``--out``) persists the raw
per-cell sweep records as a JSON artifact.  Cells are content-hash
cached under ``--cache-dir`` so re-running an unchanged sweep is free;
``--no-cache`` forces fresh simulation runs.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from . import ablations, adversarial, aqm_pacing, city_scale, \
    crossval, fct_churn, fig01, fig09, fig10, fig11, fig12, multi_ap, \
    table2, table3
from .batch import SweepInterrupted, SweepResult, SweepRunner
from .progress import ProgressReporter

EXPERIMENTS = {
    "fig01": fig01,
    "fig09": fig09,      # also produces Table 1
    "table2": table2,
    "table3": table3,
    "crossval": crossval,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "ablations": ablations,
    "fct_churn": fct_churn,  # extension: flow churn / FCT
    "multi_ap": multi_ap,    # extension: overlapping co-channel cells
    "city_scale": city_scale,  # extension: channel-sharded city grid
    "adversarial": adversarial,  # extension: robustness under attack
    "aqm_pacing": aqm_pacing,  # extension: modern transport & AQM tier
}

DEFAULT_CACHE_DIR = ".sweep-cache"


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-execution flags shared with ``repro.cli sweep``."""
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs, single seed")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: serial; "
                             "0 = one per CPU)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write raw sweep records as JSON")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="per-cell result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate, ignore the cache")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-run a failing point up to N extra "
                             "times with backoff (transient worker "
                             "deaths; default 0)")
    parser.add_argument("--progress", action="store_true",
                        help="live progress lines on stderr (points "
                             "done/cached/failed, points/s, ETA; "
                             "shard-unit weighted with --shard-jobs)")
    parser.add_argument("--shard-jobs", type=positive_int,
                        default=None, metavar="N",
                        help="run each multi-channel point as one "
                             "shard per channel: 1 = serial shards, "
                             "N > 1 = shard worker pool (metrics are "
                             "identical either way; single-channel "
                             "points are unaffected)")
    parser.add_argument("--telemetry-dir", default=None,
                        metavar="DIR",
                        help="run every freshly-executed point with "
                             "the observability sampler on, writing "
                             "one telemetry JSONL artifact per point "
                             "(<signature>.jsonl) into DIR; metrics "
                             "and cache signatures are unchanged")
    parser.add_argument("--stream-stats", action="store_true",
                        help="bounded-memory streaming FCT "
                             "aggregation per cell (peak FCT-record "
                             "memory independent of flow count; "
                             "percentiles histogram-quantised at "
                             "~2.3%% resolution)")


def apply_stream_stats(spec, args: argparse.Namespace):
    """Honour ``--stream-stats`` on an already-built sweep spec."""
    if getattr(args, "stream_stats", False):
        return spec.with_config_overrides(stream_stats=True)
    return spec


def make_runner(args: argparse.Namespace) -> SweepRunner:
    cache_dir = None if args.no_cache else args.cache_dir
    progress = ProgressReporter() if getattr(args, "progress", False) \
        else None
    return SweepRunner(jobs=args.jobs, cache_dir=cache_dir,
                       retries=getattr(args, "retries", 0),
                       progress=progress,
                       shard_jobs=getattr(args, "shard_jobs", None),
                       telemetry_dir=getattr(args, "telemetry_dir",
                                             None))


def write_artifacts(path: str, artifacts: dict) -> None:
    parent = Path(path).parent
    if parent != Path(""):
        parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifacts, handle, indent=1)


def report_failures(name: str, result: SweepResult) -> None:
    """Per-failure stderr lines (key, seed, error type, attempts)."""
    for record in result.failures():
        error = record.error or {}
        print(f"[{name}] FAILED cell {record.key} seed {record.seed}: "
              f"{error.get('type', '?')}: {error.get('message', '')} "
              f"({error.get('attempts', 1)} attempt(s))",
              file=sys.stderr)


def print_rows_or_failure_note(name: str, module,
                               result: SweepResult) -> None:
    """Print the experiment table; failed cells may make the table
    underivable, in which case say so instead of crashing."""
    try:
        rows = module.rows_from_sweep(result)
    except Exception as exc:
        if result.failed:
            print(f"[{name}: table skipped — {result.failed} failed "
                  f"point(s) left cells incomplete: {exc}]")
            return
        raise
    print(module.format_rows(rows))


def handle_interrupt(name: str, stop: SweepInterrupted,
                     artifacts: dict, out: str) -> int:
    """Shared SIGINT/SIGTERM epilogue: persist the partial artifact
    (marked ``interrupted``) and return the conventional exit code."""
    result = stop.result
    artifacts[name] = result.to_json_dict()
    done = result.executed + result.cache_hits
    print(f"[{name}: interrupted — {done} points completed "
          f"({result.executed} run, {result.cache_hits} cached, "
          f"{result.failed} failed); completed work is in the cache]",
          file=sys.stderr)
    if out:
        write_artifacts(out, artifacts)
        print(f"wrote partial sweep records to {out}",
              file=sys.stderr)
    return 128 + (stop.signum or signal.SIGINT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the tables and figures of "
                    "'HACK: Hierarchical ACKs for Efficient Wireless "
                    "Medium Utilization' (USENIX ATC 2014).")
    parser.add_argument("experiments", nargs="+",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which experiments to run")
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if "all" in args.experiments else \
        list(dict.fromkeys(args.experiments))
    sweep_runner = make_runner(args)
    artifacts = {}
    exit_code = 0
    for name in names:
        module = EXPERIMENTS[name]
        started = time.time()
        try:
            result = sweep_runner.run(apply_stream_stats(
                module.sweep_spec(quick=args.quick), args))
        except SweepInterrupted as stop:
            return handle_interrupt(name, stop, artifacts, args.out)
        elapsed = time.time() - started
        print_rows_or_failure_note(name, module, result)
        print(f"[{name}: {len(result.records)} cells in {elapsed:.1f}s "
              f"({result.executed} run, {result.cache_hits} cached, "
              f"{result.failed} failed)]\n")
        if result.failed:
            report_failures(name, result)
            exit_code = 1
        artifacts[name] = result.to_json_dict()
    if args.out:
        write_artifacts(args.out, artifacts)
        print(f"wrote sweep records for {', '.join(names)} "
              f"to {args.out}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
