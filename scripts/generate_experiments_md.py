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

The region is a function of the rows alone: :func:`load` reads an
artifact's rows and seeds, :func:`render` turns rows and seeds into the
region's text.  ``tests/experiments/golden/full_rows.json`` pins the
rows of the full-fidelity artifact the committed region was rendered
from (:func:`pin_text`), and tier-1 renders it and compares.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.batch import write_atomically
from repro.experiments.runner import EXPERIMENTS, read_artifacts

DOCUMENT = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN = "<!-- BEGIN GENERATED: scripts/generate_experiments_md.py -->\n"
END = "<!-- END GENERATED -->\n"


def load(artifact):
    """``(rows, seeds)`` of a ``runner --out`` artifact: each
    experiment's ``rows_from_sweep``, keyed by name, and the records'
    seeds.  ValueError if an experiment is missing, failed,
    interrupted or from another engine version."""
    results = read_artifacts(artifact, list(EXPERIMENTS))
    for name, result in results.items():
        if not result.complete:
            raise ValueError(
                f"{artifact}: {name} is an incomplete record set "
                f"({result.failed} failed point(s), "
                f"interrupted={result.interrupted})")
    seeds = tuple(sorted({record.seed for result in results.values()
                          for record in result.records
                          if record.seed is not None}))
    return ({name: module.rows_from_sweep(results[name])
             for name, module in EXPERIMENTS.items()}, seeds)


def render(rows, seeds) -> str:
    """The generated region: every entry of ``EXPERIMENTS``, in table
    order, as its ``TITLE``, ``format_rows(rows[name])`` and
    ``PAPER_SAYS``."""
    sections = [
        f"## {module.TITLE}\n\n```text\n"
        f"{module.format_rows(rows[name])}"
        f"\n```\n\n**Paper says:** {module.PAPER_SAYS}\n"
        for name, module in EXPERIMENTS.items()]
    return (f"Simulation seeds: {tuple(seeds)}.\n\n"
            + "\n".join(sections) + "\n")


def pin_text(rows, seeds) -> str:
    """``golden/full_rows.json``'s text for ``load``'s output."""
    return json.dumps({"seeds": list(seeds), "rows": rows}, indent=1,
                      sort_keys=True) + "\n"


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
        rows, seeds = load(args.artifact)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    text = f"{head}{BEGIN}{render(rows, seeds)}{END}{tail}"
    out = Path(args.out or DOCUMENT)
    write_atomically(out, lambda handle: handle.write(text))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
