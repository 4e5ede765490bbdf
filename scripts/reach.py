#!/usr/bin/env python3
"""Which ``src/repro`` defs no production surface reaches.

Drives every production surface — the quick grid, ``simulate`` on each
registry scenario, CI's telemetry runs, ``report``, ``check``, a
cached ``sweep`` with ``--progress`` and ``--status``, the
EXPERIMENTS.md generator and the benchmark's traced run — with a
``sys.setprofile`` hook loaded through ``sitecustomize`` in every
Python process they start, pool workers and benchmark children
included.  The hook records each ``src/repro`` code object on its
first call; a def is *reached* when its code ran in any of them.

Every def that was not reached must be on ``tests/unreached.py``'s
``ALLOWED`` table with a reason; a listed def that was reached, or no
longer exists, is *stale* (as ``scripts/mutants.py`` keeps its table
honest).  Runs in a temporary directory, ~3 min on two cores::

    python scripts/reach.py            # the verdict
    python scripts/reach.py --list     # + every unreached def, sized

Exit status: 0 when the table is exactly the unreached defs, 1
otherwise, 2 when a surface fails or the hook recorded nothing.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from tests.unreached import ALLOWED  # noqa: E402

#: The ``sitecustomize`` every driven process imports: it appends
#: ``<file>\t<first line>`` of each ``src/repro`` code object, on its
#: first call, to a file named after the process.
HOOK = r'''
import os, sys, threading
_prefix, _out = os.environ["REACH_PACKAGE"], os.environ["REACH_OUT"]
_seen = set()

def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        name = os.path.abspath(code.co_filename)
        if name.startswith(_prefix):
            with open(os.path.join(_out, str(os.getpid())), "a") as out:
                out.write(f"{name}\t{code.co_firstlineno}\n")

sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def defs(package: Path = SRC / "repro") -> Dict[str, tuple]:
    """Every function def under ``package``: ``module:qualname`` ->
    ``(file, first line, lines)``, the first line being the code
    object's (the first decorator's, when decorated)."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[f"{module}:{name}"] = (
                        path.resolve(), first, child.end_lineno - first + 1)
                    walk(child, name + ".<locals>.")
                else:
                    walk(child, prefix + child.name + "." if isinstance(
                        child, ast.ClassDef) else prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def stages(python: str) -> List[List[List[str]]]:
    """The surfaces, as stages of commands run in one scratch
    directory: a stage's commands are independent, and read what the
    stages before it wrote."""
    from repro.workloads import registry

    cli = [python, "-m", "repro.cli"]
    simulate = cli + ["simulate", "--duration", "0.4"]
    sweep = cli + ["sweep", "scenario:multi-client", "--seeds", "2",
                   "--cache-dir", "cache"]
    generator = [python, str(ROOT / "scripts" / "generate_experiments_md.py")]
    worlds = {"city": ["--cells", "6", "--channels", "3"],
              "jammer": ["--scenario", "adv-jammer", "--cells", "2",
                         "--channels", "2"],
              "one": ["--clients", "2"]}
    return [
        [[python, "-m", "repro.experiments.runner", "all", "--quick",
          "--no-cache", "--out", "quick.json"]],
        [*(cli + ["simulate", "--scenario", name, "--duration", "0.6"]
           for name in registry.names()),
         *(simulate + world + jobs + ["--telemetry", f"{name}{tag}.jsonl",
                                      "--trace-export", f"{name}{tag}.json"]
           for name, world in worlds.items()
           for tag, jobs in (("", []), ("-serial", ["--shard-jobs", "1"]))),
         simulate + ["--kernel-stats"],
         simulate + ["--scenario", "sora-testbed", "--trace-export",
                     "sora.json"],
         cli + ["scenarios"],
         cli + ["check", "quick.json"],
         generator + ["quick.json", "--out", "quick.md"],
         generator + [str(ROOT / "tests" / "experiments" / "golden"
                          / "full_rows.json"), "--out", "full.md"],
         sweep + ["--progress"],
         [python, str(ROOT / "bench" / "run.py"), "--scale", "0.05",
          "--repeats", "1", "--trace", "1", "--out", "bench.json"]],
        [*(cli + ["report", f"{name}.jsonl"] for name in worlds),
         sweep + ["--status"], sweep],
    ]


def drive(workdir: Path, workers: int) -> Set[tuple]:
    """Run every stage under the hook; the ``(file, first line)`` of
    each code object any process called."""
    hook, out = workdir / "hook", workdir / "reached"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ, REACH_PACKAGE=str(SRC / "repro"),
               REACH_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]))

    def run(command):
        done = subprocess.run(command, cwd=workdir, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            tail = (done.stdout + done.stderr).strip().splitlines()[-5:]
            raise RuntimeError(f"{' '.join(command[1:])} exited "
                               f"{done.returncode}: " + " | ".join(tail))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for stage in stages(sys.executable):
            list(pool.map(run, stage))
    lines = [line.split("\t") for record in out.iterdir()
             for line in record.read_text().splitlines()]
    if not lines:
        raise RuntimeError("the hook recorded nothing")
    return {(Path(name), int(first)) for name, first in lines}


class Verdict(NamedTuple):
    unlisted: List[str]    # unreached, not on the table
    stale: List[str]       # on the table, but reached or gone
    unreasoned: List[str]  # on the table without a reason


def verdict(all_defs: Iterable[str], reached: Set[str],
            allowed: Dict[str, str]) -> Verdict:
    """Hold the unreached defs against the allowlist: it is honest
    when all three lists are empty."""
    unreached = set(all_defs) - reached
    return Verdict(
        unlisted=sorted(unreached - set(allowed)),
        stale=sorted(key for key in allowed if key not in unreached),
        unreasoned=sorted(key for key, reason in allowed.items()
                          if not reason.strip()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive every production surface under a profile "
                    "hook; hold the unreached defs against ALLOWED.")
    parser.add_argument("--list", action="store_true",
                        help="also print every unreached def")
    args = parser.parse_args(argv)
    started = time.monotonic()
    found = defs()
    workers = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        try:
            called = drive(Path(scratch), workers)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    reached = {key for key, (path, first, _) in found.items()
               if (path, first) in called}
    unreached = sorted(set(found) - reached)
    result = verdict(found, reached, ALLOWED)
    for key in unreached if args.list else ():
        print(f"unreached {found[key][2]:4d}  {key}")
    for label, keys in zip(("unlisted", "stale", "no reason"), result):
        for key in keys:
            print(f"{label:<9} {key}")
    print(f"{len(found)} defs: {len(reached)} reached, {len(unreached)} "
          f"unreached ({sum(found[k][2] for k in unreached)} lines), "
          f"{len(ALLOWED)} allowed; {len(result.unlisted)} unlisted, "
          f"{len(result.stale)} stale, {len(result.unreasoned)} without "
          f"a reason ({time.monotonic() - started:.0f} s)")
    return 1 if any(result) else 0


if __name__ == "__main__":
    sys.exit(main())
