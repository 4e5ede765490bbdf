#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md's measured sections from simulation runs.

EXPERIMENTS.md is hand-written prose around one generated region, the
text between the ``BEGIN`` / ``END`` marker lines.  This script reads
the committed document, runs every entry of ``runner.EXPERIMENTS`` (the
table's order is the region's section order; each module carries its
own ``TITLE`` and ``PAPER_SAYS``) at paper-fidelity durations (three
seeds to keep the wall-clock tolerable; pass --seeds 5 for the paper's
five), and writes the document back with only that region replaced —
in place, or to ``--out``.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import common
from repro.experiments.batch import SweepRunner
from repro.experiments.runner import EXPERIMENTS, non_negative_int, \
    positive_int

DOCUMENT = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN = "<!-- BEGIN GENERATED: scripts/generate_experiments_md.py -->\n"
END = "<!-- END GENERATED -->\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=positive_int, default=3)
    parser.add_argument("--out", default=None,
                        help="write here instead of in place")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: short windows, single seed")
    parser.add_argument("--jobs", type=non_negative_int, default=None,
                        help="sweep worker processes (default: decide "
                             "from the host, as the runner does; 1 = "
                             "serial; 0 = one per CPU)")
    parser.add_argument("--cache-dir", default=".sweep-cache")
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args(argv)

    head, begin, rest = DOCUMENT.read_text().partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not (begin and end):
        print(f"error: {DOCUMENT} lacks the {BEGIN.strip()} ... "
              f"{END.strip()} marker pair", file=sys.stderr)
        return 2

    common.FULL_SEEDS = tuple(range(1, args.seeds + 1))
    runner = SweepRunner(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir)
    modules = list(EXPERIMENTS.values())
    # One schedule over every experiment's grid; each section is
    # rendered as soon as its experiment's points resolve.
    results = runner.run_many(
        [module.sweep_spec(args.quick) for module in modules])
    sections = []
    started = time.time()
    for result, module in zip(results, modules):
        rows = module.rows_from_sweep(result)
        print(f"[{module.TITLE}: {time.time() - started:.0f}s]",
              flush=True)
        started = time.time()
        sections.append(
            f"## {module.TITLE}\n\n```text\n"
            f"{module.format_rows(rows)}\n```\n\n"
            f"**Paper says:** {module.PAPER_SAYS}\n")

    out = Path(args.out or DOCUMENT)
    out.write_text(
        f"{head}{BEGIN}Simulation seeds: {common.seeds_for(args.quick)}; "
        f"{'quick' if args.quick else 'full'} steady-state durations."
        f"\n\n" + "\n".join(sections) + f"\n{END}{tail}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
