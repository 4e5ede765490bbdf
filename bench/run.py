#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end host cost, per-layer rows.

    python3 bench/run.py                          # all workloads, timed
    python3 bench/run.py --trace --out ledger.json
    python3 bench/run.py --workload bulk_hack_10c --seed 2 --seconds 20 \\
        --trace 0                                 # the form a driver uses

Timed repeats each run in a fresh child process, one at a time, with a
host calibration loop before each.  Every end-to-end metric is the best
(lowest) of its repeats — this host's noise only ever slows a repeat down
— with median, max and count printed beside it.  ``--trace 1`` adds the
traced run — profile, execution-knob variants and micro loops, each in its
own child, never overlapping a timed repeat — and reports the per-layer
rows.  The last line printed for a workload is one JSON object holding
``correct``, ``attempted``, ``failed`` and the declared metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  ``BENCHMARK.json`` at the
repository root declares every metric name, unit and bound; see
``bench/README.md`` for the dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
CHILD_TIMEOUT_S = 170
#: A repeat is noisy when the calibration before it is this far off the
#: set's median; it is then re-run once, while re-runs have taken less
#: than RERUN_SHARE of the set's own time.
NOISY_CALIBRATION = 0.10
RERUN_SHARE = 0.5
MIN_REPEATS = 3
SETUP_SAMPLES = 7
#: Runs of each execution-knob variant in the traced run (best taken).
VARIANT_RUNS = 3
CALIBRATION_OPS = 1_000_000


def declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def calibrate() -> float:
    """ns per operation of a fixed pure-Python loop (best of 3)."""
    def once() -> float:
        started = time.perf_counter_ns()
        total = 0
        for index in range(CALIBRATION_OPS):
            total += index & 7
        return (time.perf_counter_ns() - started) / CALIBRATION_OPS
    return min(once() for _ in range(3))


def summary(values: List[float]) -> Dict[str, Any]:
    return {"best": min(values), "median": statistics.median(values),
            "max": max(values), "n": len(values), "values": values}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn(phase: str, workload: str, seed: int, scale: float,
          calibrated: bool = True) -> Dict[str, Any]:
    """Run one phase in a fresh child; its record, or ``{"error"}``."""
    record: Dict[str, Any] = {}
    if calibrated:
        record["calib_ns_per_op"] = calibrate()
    TMP.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=TMP)
    command = [sys.executable, str(BENCH / "run.py"), "--phase", phase,
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--tmp-dir", tmp_dir,
               "--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(done.stderr.strip()[-2000:]
                               or f"exit code {done.returncode}")
        record.update(json.loads(done.stdout.splitlines()[-1]))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            IndexError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        print(f"  {workload} {phase}: {record['error']}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    record["phase"] = phase
    return record


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    from phases import run_phase
    record = run_phase(args.phase, args.workload, args.seed, args.scale,
                       args.tmp_dir, args.spawned_at)
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Timed repeats
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, scale: float, seconds: float,
            repeats: Optional[int], setup_samples: int) -> Dict[str, Any]:
    """The timed set: repeats (noisy ones re-run once), extra
    set-up-only samples, the operations checked and each metric's best."""
    runs: List[Dict[str, Any]] = []
    timed_s = 0.0
    while len(runs) < (repeats or MIN_REPEATS) or \
            (repeats is None and timed_s < seconds
             and "error" not in runs[-1]):
        runs.append(spawn("timed", workload, seed, scale))
        timed_s += runs[-1].get("wall_s", 0.0)

    typical = statistics.median(run["calib_ns_per_op"] for run in runs)
    rerun_s = 0.0
    for run in list(runs):
        if abs(run["calib_ns_per_op"] - typical) \
                > NOISY_CALIBRATION * typical:
            run["noisy"] = True
            if rerun_s < RERUN_SHARE * timed_s:
                runs.append(spawn("timed", workload, seed, scale))
                runs[-1]["rerun"] = True
                rerun_s += runs[-1].get("wall_s", 0.0)

    returned = [run for run in runs if "error" not in run]
    digest = returned[0]["digest"] if returned else None
    ops: List[bool] = []
    for run in runs:
        ops.append("error" not in run)
        if "error" not in run:
            ops.append(run["digest"] == digest)
            checks = run.pop("ops")
            ops.extend(checks.values())
            run["failed_ops"] = [name for name, ok in checks.items()
                                 if not ok]
    kept = [run for run in returned if not run.get("noisy")] or returned

    setups = [run["setup_s"] for run in kept]
    while kept and len(setups) < setup_samples:
        extra = spawn("setup", workload, seed, scale, calibrated=False)
        if "error" in extra:
            break
        setups.append(extra["setup_s"])

    calibrations = [run["calib_ns_per_op"] for run in runs]
    result: Dict[str, Any] = {
        "sim_digest": digest, "attempted": len(ops),
        "failed": ops.count(False), "repeats": runs,
        "calibrations": calibrations, "end_to_end": {}}
    if kept:
        result["end_to_end"] = {
            "wall_s": summary([run["wall_s"] for run in kept]),
            "peak_rss_mb": summary([run["peak_rss_mb"] for run in kept]),
            "setup_s": summary(setups)}
        # Exact rows repeat bit-for-bit (the digest check covers them),
        # so the ledger keeps one copy.
        result["exact"] = kept[0]["exact"]
    for run in returned:
        del run["exact"]
    return result


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
#: Execution-knob variants of the scenario call and the row each fills:
#: its wall over the plain call's.
VARIANTS = {"shard": "workloads.sharding.serial_wall_ratio",
            "telemetry": "obs.telemetry_overhead_ratio"}


def trace(workload: str, seed: int, scale: float,
          timed_set: Dict[str, Any]) -> Dict[str, Any]:
    """Run the workload's traced phases; return the host-measured
    per-layer rows (the exact ``R`` rows come with the timed set) and
    the operations checked on the way."""
    from phases import TRACE_PLAN

    wall_s = timed_set["end_to_end"]["wall_s"]["best"]
    digest = timed_set["sim_digest"]
    host: Dict[str, float] = {}
    executed = timed_set["exact"].get("sim.engine.events_executed")
    if executed:
        host["sim.engine.us_per_event"] = wall_s / executed * 1e6
    ops: List[bool] = []
    records = [spawn(phase, workload, seed, scale)
               for phase in TRACE_PLAN[workload]
               for _ in range(VARIANT_RUNS if phase in VARIANTS else 1)]
    for record in records:
        phase = record["phase"]
        ops.append("error" not in record)
        if "error" in record:
            continue
        if phase not in VARIANTS:
            host.update(record["rows"])
            continue
        # Every run must reproduce the digest; the best wall counts.
        matched = record["digest"] == digest
        ops.append(matched)
        row = VARIANTS[phase]
        host[row] = min(host.get(row, float("inf")),
                        record["wall_s"] / wall_s)
        if phase == "shard":
            row = "workloads.sharding.digest_match"
            host[row] = min(host.get(row, 1), int(matched))

    calibrations = timed_set["calibrations"] + [
        record["calib_ns_per_op"] for record in records]
    typical = statistics.median(calibrations)
    host["host.calib_ns_per_op"] = typical
    host["host.calib_spread"] = \
        (max(calibrations) - min(calibrations)) / typical
    return {"host": host, "ops": ops, "phases": records}


def spans_of(workload: str, records: List[Dict[str, Any]]
             ) -> List[Dict[str, Any]]:
    """One root span per child, its import / build / call phases below
    it, and whatever finer spans the phase recorded itself."""
    spans: List[Dict[str, Any]] = []
    for index, record in enumerate(records):
        stamps = record.get("stamps")
        if not stamps:
            continue
        root = f"{record['phase']}[{index}]"
        spans.append({"name": root, "start": stamps["spawned"],
                      "end": stamps["finished"], "parent": None})
        edges = [("import", "spawned", "imported"),
                 ("build", "imported", "built"),
                 ("call", "built", "called")]
        spans.extend({"name": name, "start": stamps[start],
                      "end": stamps[end], "parent": root}
                     for name, start, end in edges
                     if start in stamps and end in stamps)
        spans.extend(dict(span, parent=span["parent"] or root)
                     for span in record.pop("spans", ()))
    for span in spans:
        span["workload"] = workload
    return spans


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def result_line(attempted: int, failed: int, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    missing = set(metrics) - set(units)
    if missing:
        raise KeyError(f"not declared in BENCHMARK.json: {sorted(missing)}")
    # A per-layer row the workload does not exercise reads 0.
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()}})


def run_workload(workload: str, args: argparse.Namespace,
                 spec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    repeats = args.repeats
    if repeats is None and args.trace:
        # The traced run needs only a reference for its ratios.
        repeats = MIN_REPEATS
    timed_set = measure(workload, args.seed, args.scale, args.seconds,
                        repeats, 0 if args.trace else SETUP_SAMPLES)
    if not timed_set["end_to_end"]:
        return None
    attempted, failed = timed_set["attempted"], timed_set["failed"]
    print(f"== {workload} (seed {args.seed}, "
          f"digest {timed_set['sim_digest'][:16]})")
    for name, stats in timed_set["end_to_end"].items():
        print(f"  {name:<44}{stats['best']:>14.4f} "
              f"{units['end_to_end'][name]:<6} "
              f"[median {stats['median']:.4f}, max {stats['max']:.4f}, "
              f"n={stats['n']}]")
    noisy = sum(1 for run in timed_set["repeats"] if run.get("noisy"))
    if noisy:
        print(f"  ({noisy} noisy repeat(s) re-run; both kept in --out)")

    entry = dict(timed_set)
    if args.trace:
        traced = trace(workload, args.seed, args.scale, timed_set)
        attempted += len(traced["ops"])
        failed += traced["ops"].count(False)
        rows = {**timed_set["exact"], **traced["host"]}
        for name in sorted(rows):
            kind = "R" if name in timed_set["exact"] else "H"
            print(f"  {name:<44}{rows[name]:>14.6g} "
                  f"{units['per_layer'].get(name, '?'):<6} {kind}")
        entry["host"] = traced["host"]
        entry["phases"] = traced["phases"]
        entry["spans"] = spans_of(
            workload, timed_set["repeats"] + traced["phases"])
        line = result_line(attempted, failed, rows, units["per_layer"])
    else:
        line = result_line(
            attempted, failed,
            {name: stats["best"]
             for name, stats in timed_set["end_to_end"].items()},
            units["end_to_end"])
    entry.update(attempted=attempted, failed=failed,
                 failed_share=failed / attempted)
    print(f"  {'failed_share':<44}{entry['failed_share']:>14.4f} "
          f"ratio  ({failed} of {attempted} operations)")
    print(line)
    return entry


def header(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"seed": args.seed, "scale": args.scale,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "trace": bool(args.trace),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds only the generated configs "
                             "(default 1; 2 is the hold-out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep starting timed repeats until this "
                             "much time is measured (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many timed repeats instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add the traced run; report per-layer rows")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the ledger here and the spans "
                             "beside it")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply simulated durations (self-test)")
    for name, kind in (("--phase", str), ("--tmp-dir", str),
                       ("--spawned-at", float)):
        parser.add_argument(name, type=kind, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench: {SRC / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.phase:
        return child_main(args)

    spec = declared()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    ledger = {"header": header(args), "workloads": {}}
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    try:
        for name in names:
            entry = run_workload(name, args, spec)
            if entry is None:
                print(f"bench: no repeat of {name} returned",
                      file=sys.stderr)
                return 1
            ledger["workloads"][name] = entry
    finally:
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    if args.out:
        out = Path(args.out)
        spans = [span for entry in ledger["workloads"].values()
                 for span in entry.pop("spans", ())]
        out.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {out}", file=sys.stderr)
        if spans:
            beside = out.with_suffix(".spans.json")
            beside.write_text(json.dumps(spans) + "\n")
            print(f"wrote {beside}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
