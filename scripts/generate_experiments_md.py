#!/usr/bin/env python3
"""Render EXPERIMENTS.md's experiment sections from their rows.

Rewrites only the region between the document's ``BEGIN`` / ``END``
marker lines — in place, or to ``--out`` — with every entry of
``runner.EXPERIMENTS``, in table order: its ``TITLE`` as the heading,
``format_rows`` of its rows, its ``PAPER_SAYS`` and its module
docstring.  An experiment's prose lives in its module, once; the
region is generated.  It simulates nothing.  The rows come from a
``runner --out`` artifact (the file ``repro check`` gates) or from
``tests/experiments/golden/full_rows.json``, the pinned rows of the
committed region, told apart by their keys — after a docstring edit,
re-render from the pin::

    python -m repro.experiments.runner all --seeds 3 --out full.json
    python scripts/generate_experiments_md.py full.json
    python scripts/generate_experiments_md.py \\
        tests/experiments/golden/full_rows.json

An experiment missing, failed, interrupted or from another engine
version is one ``error:`` line, exit 2, and nothing is written.

The region is a function of the rows alone: :func:`load` reads the
rows and seeds, :func:`render` turns them into the region's text, and
:func:`pin_text` is ``full_rows.json``'s text for an artifact's rows.
Tier-1 renders the pin and compares it with the committed region.
"""

import argparse
import inspect
import json
import sys
from pathlib import Path

from repro.experiments.runner import EXPERIMENTS, read_artifacts
from repro.obs.export import write_atomically

DOCUMENT = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN = "<!-- BEGIN GENERATED: scripts/generate_experiments_md.py -->\n"
END = "<!-- END GENERATED -->\n"


def load(path):
    """``(rows, seeds)``: each experiment's ``rows_from_sweep``, keyed
    by name, and the records' seeds — read from a ``runner --out``
    artifact, or as they stand from a pin (a file whose keys are
    ``rows`` and ``seeds``).  ValueError if an experiment is missing,
    or its record set failed, was interrupted or is from another
    engine version."""
    try:
        with open(path) as handle:
            pinned = json.load(handle)
    except (OSError, ValueError) as error:
        raise ValueError(f"{path}: {error}") from error
    if isinstance(pinned, dict) and set(pinned) == {"rows", "seeds"}:
        missing = sorted(set(EXPERIMENTS) - set(pinned["rows"]))
        if missing:
            raise ValueError(f"{path}: no rows for {', '.join(missing)}")
        return pinned["rows"], tuple(pinned["seeds"])
    results = read_artifacts(path, list(EXPERIMENTS))
    for name, result in results.items():
        if not result.complete:
            raise ValueError(
                f"{path}: {name} is an incomplete record set "
                f"({result.failed} failed point(s), "
                f"interrupted={result.interrupted})")
    seeds = tuple(sorted({record.seed for result in results.values()
                          for record in result.records
                          if record.seed is not None}))
    return ({name: module.rows_from_sweep(results[name])
             for name, module in EXPERIMENTS.items()}, seeds)


def render(rows, seeds) -> str:
    """The generated region: every entry of ``EXPERIMENTS``, in table
    order, as its ``TITLE``, ``format_rows(rows[name])``,
    ``PAPER_SAYS`` and module docstring."""
    sections = [
        f"## {module.TITLE}\n\n```text\n"
        f"{module.format_rows(rows[name])}"
        f"\n```\n\n**Paper says:** {module.PAPER_SAYS}\n\n"
        f"{inspect.cleandoc(module.__doc__)}\n"
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
                             "experiment, or the pinned "
                             "golden/full_rows.json")
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
