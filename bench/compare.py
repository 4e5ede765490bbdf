#!/usr/bin/env python3
"""Compare two ledgers written by ``bench/run.py --out``: A the parent, B the change.

    python3 bench/compare.py A.json B.json

Per workload and end-to-end metric: both sides' best value (what
``run.py`` reports), median and quartiles, and a verdict from the metric's
bound in ``BENCHMARK.json`` and the runs' own spread.  Per workload: whether
``sim_digest`` and every exact (``R``) row are identical.  Exits 1 on any
``worse`` row or a higher ``failed_share``.

Verdicts: the best of a set is trusted when its faster runs agree, so a
row is ``unresolved`` when, on either side, the lower quartile sits
further from the best than the bound — unless every run of B beats every
run of A (``better``); otherwise ``worse`` / ``better`` when B's best is
beyond the bound on that side of A's, else ``same``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> str:
    if better == "higher":
        a, b = [-x for x in a], [-x for x in b]
    if max((quartiles(side)[0] - min(side)) / abs(min(side))
           for side in (a, b)) > bound:
        return "better" if max(b) < min(a) else "unresolved"
    change = (min(b) - min(a)) / abs(min(a))
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def describe(values: List[float], better: str) -> str:
    low, mid, high = quartiles(values)
    best = min(values) if better == "lower" else max(values)
    return f"best {best:.4f} median {mid:.4f} [{low:.4f} .. {high:.4f}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        ledger_a = json.load(handle)
    with open(argv[1]) as handle:
        ledger_b = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        end_to_end = json.load(handle)["end_to_end"]

    for side, ledger in (("A", ledger_a), ("B", ledger_b)):
        head = ledger["header"]
        print(f"{side}: commit {head['commit'][:12]} seed {head['seed']} "
              f"nproc {head['nproc']} python {head['python']}")
    failed = False
    for name, a in ledger_a["workloads"].items():
        b = ledger_b["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from B")
            failed = True
            continue
        print(f"== {name}")
        for metric in end_to_end:
            values_a = a["end_to_end"][metric["name"]]["values"]
            values_b = b["end_to_end"][metric["name"]]["values"]
            outcome = verdict(values_a, values_b, metric["bound"],
                              metric["better"])
            failed |= outcome == "worse"
            pick = min if metric["better"] == "lower" else max
            change = pick(values_b) / pick(values_a) - 1
            print(f"  {metric['name']:<12} {metric['unit']:<3} "
                  f"A {describe(values_a, metric['better'])}  "
                  f"B {describe(values_b, metric['better'])}  "
                  f"{change:+.2%} (bound {metric['bound']:.0%})  "
                  f"{outcome}")
        share_a, share_b = a["failed_share"], b["failed_share"]
        higher = share_b > share_a
        failed |= higher
        print(f"  failed_share A {share_a:.4f} ({a['failed']}/"
              f"{a['attempted']}) B {share_b:.4f} ({b['failed']}/"
              f"{b['attempted']})  {'HIGHER' if higher else 'ok'}")
        same = a["sim_digest"] == b["sim_digest"]
        print(f"  sim_digest   {'identical' if same else 'DIFFERENT'}")
        exact_a, exact_b = a["exact"], b["exact"]
        moved = sorted(row for row in exact_a.keys() | exact_b.keys()
                       if exact_a.get(row) != exact_b.get(row))
        print(f"  R rows       {len(exact_a)} rows, "
              f"{'all identical' if not moved else 'DIFFERENT:'}")
        for row in moved:
            print(f"    {row}: A {exact_a.get(row)} B {exact_b.get(row)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
