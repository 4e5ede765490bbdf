"""Command-line entry point for the experiment suite.

Usage::

    python -m repro.experiments.runner fig01 fig09 --quick
    python -m repro.experiments.runner all --jobs 4 --out results.json
    python -m repro.experiments.runner scenario:multi-client --seeds 5

:data:`EXPERIMENTS` is the one table of experiments (each module is
its own record, see :mod:`.common`) and :func:`main` the one command
loop — ``repro sweep`` and ``repro experiments`` forward their argv
here.  Each target declares its grid as a :class:`SweepSpec`; one
:class:`SweepRunner` schedule executes every target's cells together —
by default over a pool of the host's cores (``--jobs 1`` is the serial
reference path) — prints each target's paper table/figure as text, in
argv order as soon as its cells resolve, and (with ``--out``) persists
the raw per-cell sweep records as a JSON artifact that ``repro check``
gates on and ``scripts/generate_experiments_md.py`` renders.  A
``[name: N cells in X s]`` line follows each table; X is the wait since
the previous table, so the lines sum to the run's wall.
Cells are content-hash cached under ``--cache-dir`` so re-running an
unchanged sweep is free; ``--no-cache`` forces fresh simulation runs
and ``--status`` audits the cache without running anything.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from types import SimpleNamespace

from ..stats.fct import has_completions
from ..workloads import registry
from . import ablations, adversarial, aqm_pacing, city_scale, \
    crossval, fct_churn, fig01, fig09, fig10, fig11, fig12, multi_ap, \
    table2, table3
from .batch import SweepCache, SweepInterrupted, SweepResult, \
    SweepRunner, write_atomically
from .common import format_table, seeds_for
from .progress import ProgressReporter, cell_state, format_status, \
    sweep_status

#: The experiment table, in EXPERIMENTS.md section order ("all" runs
#: it sorted by name).
EXPERIMENTS = {
    "fig01": fig01,
    "fig09": fig09,      # also produces Table 1
    "table2": table2,
    "table3": table3,
    "crossval": crossval,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fct_churn": fct_churn,  # extension: flow churn / FCT
    "aqm_pacing": aqm_pacing,  # extension: modern transport & AQM tier
    "multi_ap": multi_ap,    # extension: overlapping co-channel cells
    "city_scale": city_scale,  # extension: channel-sharded city grid
    "ablations": ablations,
    "adversarial": adversarial,  # extension: robustness under attack
}

SCENARIO_PREFIX = "scenario:"
DEFAULT_CACHE_DIR = ".sweep-cache"


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def seed_range(text: str) -> tuple:
    """argparse ``type=`` for ``--seeds``: ``N`` is seeds 1..N and
    ``FIRST-LAST`` the seeds FIRST..LAST (``2-2``: seed 2 alone)."""
    first, dash, last = text.partition("-")
    if not dash:
        first, last = "1", text
    first, last = positive_int(first), positive_int(last)
    if first > last:
        raise argparse.ArgumentTypeError(
            f"must be a range FIRST-LAST with FIRST <= LAST, got {text}")
    return tuple(range(first, last + 1))


def non_negative_int(text: str) -> int:
    """argparse ``type=`` for counts that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def build_parser(prog=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Reproduce the tables and figures of "
                    "'HACK: Hierarchical ACKs for Efficient Wireless "
                    "Medium Utilization' (USENIX ATC 2014).")
    parser.add_argument(
        "targets", nargs="+", metavar="target",
        help=f"experiment names ({', '.join(sorted(EXPERIMENTS))}), "
             f"'all', or '{SCENARIO_PREFIX}<registered-scenario>' "
             f"for a seed sweep of one scenario")
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs, single seed")
    parser.add_argument("--jobs", type=non_negative_int, default=None,
                        help="worker processes (default: decide from "
                             "the host — a pool of min(cores, pending "
                             "scenario points), serial on one core; "
                             "1 = serial; 0 = one per CPU)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write raw sweep records as JSON")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="per-cell result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate, ignore the cache")
    parser.add_argument("--progress", action="store_true",
                        help="live progress lines on stderr (points "
                             "done/cached/failed, points/s, ETA)")
    parser.add_argument("--shard-jobs", type=positive_int,
                        default=None, metavar="N",
                        help="processes per multi-channel point, "
                             "which always runs as one shard per "
                             "channel: 1 = serial shards, N > 1 = "
                             "pool of min(N, shards) workers; default "
                             "= one worker per shard on a multi-core "
                             "host, serial on one core or inside "
                             "the sweep's pool (records are identical "
                             "either way; single-channel points are "
                             "unaffected)")
    parser.add_argument("--telemetry-dir", default=None,
                        metavar="DIR",
                        help="run every freshly-executed point with "
                             "the observability sampler on, writing "
                             "one telemetry JSONL artifact per point "
                             "(<signature>.jsonl) into DIR; metrics "
                             "and cache signatures are unchanged")
    parser.add_argument("--seeds", type=seed_range, default=None,
                        metavar="N|FIRST-LAST",
                        help="run every target on seeds 1..N, or "
                             "FIRST..LAST (2-2: the hold-out seed "
                             "alone), --quick or not (default: each "
                             "grid's own policy, 5 seeds or 1 under "
                             "--quick; fig01, table2 and table3 have "
                             "none)")
    parser.add_argument("--status", action="store_true",
                        help="run nothing: audit --cache-dir against "
                             "the named sweeps and report which cells "
                             "are complete/missing/failed/corrupt "
                             "(exit 0 when complete, 3 otherwise)")
    return parser


#: A scenario sweep's row: column header -> how its value is rendered.
SCENARIO_COLUMNS = {
    "scenario": "", "runs": "d", "goodput (Mbps)": ".2f",
    "stdev": ".2f", "fairness": ".4f",
    # churn scenarios whose every seed completed flows:
    "flows": ".0f", "FCT p50 (ms)": ".1f", "carried (Mbps)": ".2f"}


def scenario_sweep(name: str) -> SimpleNamespace:
    """A registered scenario's seed sweep, in the experiment-module
    shape (``sweep_spec`` / ``rows_from_sweep`` / ``format_rows``)."""
    key = (name,)

    def sweep_spec(quick: bool = False, seeds=None):
        # --quick means one seed here too; scenario durations come from
        # the registry, not --quick.
        return registry.sweep_spec(name, seeds or seeds_for(quick))

    def rows_from_sweep(result: SweepResult):
        def mean(metric):
            return result.cell(key, metric)["mean"]

        goodput = result.cell(key, "aggregate_goodput_mbps")
        row = {"scenario": name, "runs": goodput["runs"],
               "goodput (Mbps)": goodput["mean"],
               "stdev": goodput["stdev"],
               "fairness": mean("fairness_index")}
        if all(m.get("fct") and has_completions(m["fct"]["fct_ms"])
               for m in result.metrics_for(key)):
            row["flows"] = mean(lambda m: m["fct"]["flows_completed"])
            row["FCT p50 (ms)"] = mean(lambda m: m["fct"]["fct_ms"]["p50"])
            row["carried (Mbps)"] = mean(
                lambda m: m["fct"]["carried_load_mbps"])
        return [row]

    def format_rows(rows):
        [row] = rows
        return format_table(
            list(row), [[format(value, SCENARIO_COLUMNS[column])
                         for column, value in row.items()]],
            title=f"Sweep: {name}")

    return SimpleNamespace(sweep_spec=sweep_spec,
                           rows_from_sweep=rows_from_sweep,
                           format_rows=format_rows)


def resolve_targets(names) -> dict:
    """Target names -> ``{artifact label: experiment-shaped module}``
    in argv order; raises ``KeyError`` with a one-line message."""
    targets = {}
    for name in names:
        if name == "all":
            targets.update((key, EXPERIMENTS[key])
                           for key in sorted(EXPERIMENTS))
        elif name in EXPERIMENTS:
            targets[name] = EXPERIMENTS[name]
        elif name.startswith(SCENARIO_PREFIX) \
                or name in registry.names():
            scenario = name.removeprefix(SCENARIO_PREFIX)
            registry.get(scenario)      # UnknownScenarioError
            targets[SCENARIO_PREFIX + scenario] = \
                scenario_sweep(scenario)
        else:
            raise KeyError(
                f"unknown sweep target {name!r}: expected an "
                f"experiment ({', '.join(sorted(EXPERIMENTS))}, all) "
                f"or a registered scenario "
                f"({', '.join(registry.names())})")
    return targets


def write_artifacts(path: str, artifacts: dict) -> None:
    write_atomically(
        path, lambda handle: json.dump(artifacts, handle, indent=1))


def read_artifacts(path: str, names=()) -> dict:
    """The entries ``names`` (default: all) of a ``--out`` artifact as
    :class:`SweepResult`\\ s; ``ValueError`` naming ``path`` if it is
    not a loadable artifact, lacks a name or is from another engine."""
    try:
        with open(path) as handle:
            artifacts = json.load(handle)
        if not isinstance(artifacts, dict):
            raise ValueError("not a sweep --out artifact")
        unknown = sorted(set(names) - set(artifacts))
        if unknown:
            raise ValueError(f"no entry {', '.join(unknown)} (holds: "
                             f"{', '.join(artifacts)})")
        return {name: SweepResult.from_json_dict(artifacts[name])
                for name in names or artifacts}
    except (OSError, ValueError, KeyError, TypeError,
            AttributeError) as error:
        raise ValueError(f"{path}: {error}") from error


def report_failures(name: str, result: SweepResult) -> None:
    """Per-failure stderr lines (key, seed, error type and message)."""
    for record in result.failures():
        error = record.error or {}
        print(f"[{name}] FAILED cell {record.key} seed {record.seed}: "
              f"{error.get('type', '?')}: {error.get('message', '')}",
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


def handle_interrupt(names: list, stop: SweepInterrupted,
                     artifacts: dict, out: str) -> int:
    """SIGINT/SIGTERM epilogue: persist one partial artifact (marked
    ``interrupted``) per target that had started, and return the
    conventional exit code."""
    for position, result in stop.results.items():
        name = names[position]
        artifacts[name] = result.to_json_dict()
        done = result.executed + result.cache_hits
        print(f"[{name}: interrupted — {done} points completed "
              f"({result.executed} run, {result.cache_hits} cached, "
              f"{result.failed} failed); completed work is in the "
              f"cache]", file=sys.stderr)
    if out:
        write_artifacts(out, artifacts)
        print(f"wrote partial sweep records to {out}",
              file=sys.stderr)
    return 128 + (stop.signum or signal.SIGINT)


def main(argv=None, prog=None) -> int:
    parser = build_parser(prog)
    args = parser.parse_args(argv)
    try:
        targets = resolve_targets(args.targets)
    except KeyError as error:
        parser.exit(2, f"error: {error.args[0]}\n")
    specs = [module.sweep_spec(quick=args.quick, seeds=args.seeds)
             for module in targets.values()]

    if args.status:
        if args.no_cache:
            print("error: --status needs a cache directory "
                  "(drop --no-cache)", file=sys.stderr)
            return 2
        cache = SweepCache(args.cache_dir)
        tallies = [sweep_status(spec, cache) for spec in specs]
        for spec, cells in zip(specs, tallies):
            print(format_status(spec.name, cells) + "\n")
        return 0 if all(cell_state(tally) == "complete"
                        for cells in tallies
                        for tally in cells.values()) else 3

    sweep_runner = SweepRunner(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=ProgressReporter() if args.progress else None,
        shard_jobs=args.shard_jobs, telemetry_dir=args.telemetry_dir)
    results = sweep_runner.run_many(specs)
    artifacts = {}
    exit_code = 0
    started = time.time()
    try:
        # results first: zip then drains the schedule to its end.
        for result, (name, module) in zip(results, targets.items()):
            elapsed = time.time() - started
            print_rows_or_failure_note(name, module, result)
            print(f"[{name}: {len(result.records)} cells in "
                  f"{elapsed:.1f}s ({result.executed} run, "
                  f"{result.cache_hits} cached, {result.failed} "
                  f"failed)]\n")
            if result.failed:
                report_failures(name, result)
                exit_code = 1
            artifacts[name] = result.to_json_dict()
            started = time.time()
    except SweepInterrupted as stop:
        return handle_interrupt(list(targets), stop, artifacts,
                                args.out)
    if args.out:
        write_artifacts(args.out, artifacts)
        print(f"wrote sweep records for {', '.join(targets)} "
              f"to {args.out}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
