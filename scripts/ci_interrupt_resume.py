#!/usr/bin/env python3
"""CI smoke for resumable sweeps: kill a grid mid-run, resume it.

Starts an experiment sweep in a subprocess with a shared cache
directory, waits for the first per-point checkpoints to land, kills
the runner (SIGTERM by default — exercising the graceful-interrupt
path — or SIGKILL with ``--kill-9``), then resumes with the same
cache directory and asserts:

* the killed run exited nonzero;
* the resume re-used cached cells (``cache_hits > 0``) and only
  re-executed the remainder;
* the resumed rows are bit-identical to an uninterrupted run's rows
  (``--baseline`` artifact, e.g. the one the plain smoke step wrote).

Usage::

    PYTHONPATH=src python scripts/ci_interrupt_resume.py \\
        --experiment multi_ap --jobs 2 --baseline multi-ap.json
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def wait_for_checkpoints(cache_dir: Path, proc: subprocess.Popen,
                         minimum: int, timeout_s: float) -> int:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        count = len(list(cache_dir.glob("*.json")))
        if count >= minimum:
            return count
        if proc.poll() is not None:
            raise SystemExit(
                f"sweep finished (rc={proc.returncode}) before "
                f"{minimum} checkpoints appeared — nothing to kill; "
                f"lower --min-checkpoints or slow the grid down")
        time.sleep(0.05)
    raise SystemExit(
        f"no {minimum} checkpoints within {timeout_s}s — the runner "
        f"is not flushing per-point results")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--experiment", default="multi_ap")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", default="ci-resume-cache")
    parser.add_argument("--baseline", default=None,
                        help="uninterrupted-run artifact to compare "
                             "rows against (bit-identical)")
    parser.add_argument("--out", default="resume-sweep.json")
    parser.add_argument("--min-checkpoints", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--kill-9", action="store_true",
                        help="SIGKILL instead of graceful SIGTERM")
    args = parser.parse_args()

    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)

    command = [sys.executable, "-m", "repro.experiments.runner",
               args.experiment, "--quick", "--jobs", str(args.jobs),
               "--cache-dir", str(cache_dir)]
    print(f"starting: {' '.join(command)}")
    proc = subprocess.Popen(command)
    count = wait_for_checkpoints(cache_dir, proc,
                                 args.min_checkpoints, args.timeout)
    signum = signal.SIGKILL if args.kill_9 else signal.SIGTERM
    print(f"{count} checkpoints on disk -> sending "
          f"{signal.Signals(signum).name}")
    proc.send_signal(signum)
    rc = proc.wait(timeout=120)
    assert rc != 0, f"killed sweep exited zero (rc={rc})"
    print(f"killed run exited rc={rc}")

    checkpointed = len(list(cache_dir.glob("*.json")))
    assert checkpointed >= args.min_checkpoints
    print(f"{checkpointed} checkpointed cells survive the kill")

    # Resume with the same cache dir; this run must complete.
    resume = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner",
         args.experiment, "--quick", "--jobs", str(args.jobs),
         "--cache-dir", str(cache_dir), "--out", args.out],
        env=dict(os.environ))
    assert resume.returncode == 0, \
        f"resume failed (rc={resume.returncode})"

    sys.path.insert(0, "src")
    from repro.experiments import runner as experiments_runner

    [result] = experiments_runner.read_artifacts(
        args.out, [args.experiment]).values()
    assert result.failed == 0, f"{result.failed} failed points"
    assert not result.interrupted
    assert result.cache_hits > 0, \
        "resume executed everything from scratch — not resumable"
    assert result.executed + result.cache_hits == len(result.records)
    print(f"resume: {result.cache_hits} cells from cache, "
          f"{result.executed} re-executed")

    module = experiments_runner.EXPERIMENTS[args.experiment]
    resumed_rows = module.rows_from_sweep(result)
    if args.baseline:
        [baseline] = experiments_runner.read_artifacts(
            args.baseline, [args.experiment]).values()
        baseline_rows = module.rows_from_sweep(baseline)
        assert json.loads(json.dumps(resumed_rows)) == \
            json.loads(json.dumps(baseline_rows)), \
            "resumed rows differ from the uninterrupted run's rows"
        print(f"{len(resumed_rows)} resumed rows bit-identical to "
              f"the uninterrupted baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
