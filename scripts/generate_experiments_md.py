#!/usr/bin/env python3
"""Render EXPERIMENTS.md's measured sections from a sweep artifact.

Reads a ``runner --out`` artifact (the file ``repro check`` gates) and
rewrites only the region between the document's ``BEGIN`` / ``END``
marker lines — in place, or to ``--out`` — with every entry of
``runner.EXPERIMENTS``, in table order, as its ``TITLE``, ``format_rows(
rows_from_sweep(...))`` and ``PAPER_SAYS``.  It simulates nothing::

    python -m repro.experiments.runner all --seeds 3 --out full.json
    python scripts/generate_experiments_md.py full.json

An experiment missing, failed, interrupted or from another engine
version is one ``error:`` line, exit 2, and nothing is written.
"""

import argparse
import sys
from pathlib import Path

from repro.experiments.batch import write_atomically
from repro.experiments.runner import EXPERIMENTS, read_artifacts

DOCUMENT = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN = "<!-- BEGIN GENERATED: scripts/generate_experiments_md.py -->\n"
END = "<!-- END GENERATED -->\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("artifact",
                        help="a `runner --out` artifact holding every "
                             "experiment")
    parser.add_argument("--out", default=None,
                        help="write here instead of in place")
    args = parser.parse_args(argv)

    head, begin, rest = DOCUMENT.read_text().partition(BEGIN)
    _, end, tail = rest.partition(END)
    try:
        if not (begin and end):
            raise ValueError(f"{DOCUMENT} lacks the {BEGIN.strip()} ... "
                             f"{END.strip()} marker pair")
        results = read_artifacts(args.artifact, list(EXPERIMENTS))
        for name, result in results.items():
            if not result.complete:
                raise ValueError(
                    f"{args.artifact}: {name} is an incomplete record "
                    f"set ({result.failed} failed point(s), "
                    f"interrupted={result.interrupted})")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    seeds = tuple(sorted({record.seed for result in results.values()
                          for record in result.records
                          if record.seed is not None}))
    sections = [
        f"## {module.TITLE}\n\n```text\n"
        f"{module.format_rows(module.rows_from_sweep(results[name]))}"
        f"\n```\n\n**Paper says:** {module.PAPER_SAYS}\n"
        for name, module in EXPERIMENTS.items()]
    text = (f"{head}{BEGIN}Simulation seeds: {seeds}.\n\n"
            + "\n".join(sections) + f"\n{END}{tail}")
    out = Path(args.out or DOCUMENT)
    write_atomically(out, lambda handle: handle.write(text))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
