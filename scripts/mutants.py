#!/usr/bin/env python3
"""Run the seeded-mutant table, ``tests/mutants.py``: every mutant must
turn its tests red.

For each mutant this copies the tree (every file ``git ls-files``
lists, tracked or not yet added, as it stands in the working tree) to
a temporary directory, replaces the
mutant's one snippet, and runs only the mutant's tests there
(``pytest -x -q -p no:cacheprovider``, with ``CI`` set, so the
property tests draw the same examples every run).  A mutant is

* *caught* when its tests fail,
* *survived* when they pass — a test has stopped biting, and
* *stale* when its snippet is not in its file exactly once, or its
  tests did not run (a node id no longer resolves): a refactor
  re-anchors its mutants in the same change.

The unmutated tree runs every named test first; a failure there is an
error (exit 2), since it would make every mutant look caught (a node
id that does not resolve is left to its mutant's run, as stale).  One
mutant runs per core at a time; the report keeps table order::

    python scripts/mutants.py              # the whole table
    python scripts/mutants.py ID [ID ...]  # the named mutants

Exit status: 0 when every mutant is caught, 1 when any survived or is
stale, 2 on a usage error or a red unmutated tree.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from tests.mutants import MUTANTS  # noqa: E402

#: pytest's "tests failed" exit status; 0 is "all passed", anything
#: else means the tests did not run as named.
TESTS_FAILED = 1


def copy_tree(into: Path) -> None:
    """The working tree's files that git tracks or would add, copied
    under ``into``."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached",
                              "--others", "--exclude-standard"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    for name in listing.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", CI="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)


def last_line(process) -> str:
    lines = (process.stdout + process.stderr).strip().splitlines()
    return lines[-1] if lines else f"exit {process.returncode}"


def verdict(mutant):
    """``(state, detail)`` of one mutant, run in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        path = tree / mutant.path
        source = path.read_text() if path.is_file() else ""
        found = source.count(mutant.old)
        if found != 1:
            return "stale", f"snippet found {found} times in {mutant.path}"
        path.write_text(source.replace(mutant.old, mutant.new))
        process = run_tests(tree, mutant.tests)
    if process.returncode == TESTS_FAILED:
        return "caught", last_line(process)
    if process.returncode == 0:
        return "survived", last_line(process)
    return "stale", last_line(process)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Apply each seeded mutant and run its tests.")
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.ids) - {mutant.id for mutant in MUTANTS})
    if unknown:
        parser.error(f"unknown mutant id(s): {', '.join(unknown)}")
    mutants = [m for m in MUTANTS if not args.ids or m.id in args.ids]

    started = time.monotonic()
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="unmutated-") as scratch:
        copy_tree(Path(scratch))
        baseline = run_tests(Path(scratch), tests)
    if baseline.returncode == TESTS_FAILED:
        print(f"error: the unmutated tree fails its mutants' tests: "
              f"{last_line(baseline)}", file=sys.stderr)
        return 2

    workers = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        verdicts = list(pool.map(verdict, mutants))
    width = max(len(m.id) for m in mutants)
    for mutant, (state, detail) in zip(mutants, verdicts):
        print(f"{state:<8}  {mutant.id:<{width}}  {detail}")
    counts = {state: sum(v[0] == state for v in verdicts)
              for state in ("caught", "survived", "stale")}
    print(f"{len(mutants)} mutants: {counts['caught']} caught, "
          f"{counts['survived']} survived, {counts['stale']} stale "
          f"({len(tests)} tests, {time.monotonic() - started:.0f} s)")
    return 0 if counts["caught"] == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
