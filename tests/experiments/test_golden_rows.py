"""Pinned golden rows: the kernel rework must not move a single digit.

``golden/quick_rows.json`` holds every experiment's quick-sweep rows as
produced by the seed's slotted-countdown, two-event-wired-pipe,
per-slot-polling kernel (captured immediately before the lazy-backoff
rework landed).  The current kernel must reproduce them bit for bit:
the hot-path optimisations are pure event-count reductions, not
behaviour changes.

Sweep scopes are ``conftest.QUICK_SCOPES``, the trimmed slices
``test_golden`` uses, and the two files share one session-scoped
content-hash cache, so each cell is simulated exactly once for both
suites.
"""

import json

import pytest

from tests.experiments.conftest import QUICK_SCOPES, pinned_rows


def test_golden_covers_every_experiment(golden):
    assert set(golden) == set(QUICK_SCOPES)


@pytest.mark.parametrize("name", sorted(QUICK_SCOPES))
def test_rows_bit_identical_to_seed_kernel(name, golden,
                                           sweep_cache_runner):
    rows = pinned_rows(name, sweep_cache_runner)
    # JSON round-trip normalises container types exactly as the stored
    # golden rows were normalised.
    assert json.loads(json.dumps(rows)) == golden[name], (
        f"{name}: kernel rework changed experiment output")
