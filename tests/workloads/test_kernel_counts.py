"""Pinned kernel event counts: deterministic, so gated exactly.

The quick Fig 10 ten-client cell (``multi-client`` at the quick
steady-state durations, seed 1) under stock TCP and MORE_DATA HACK.
The counts are a pure function of the code, so an event-count
regression — a timer that goes back to cancel-and-push, a new
per-packet event — fails here instead of waiting for a wall-clock
benchmark to notice.  A deliberate change re-pins them (and bumps
``ENGINE_VERSION``: cached rows embed ``kernel_stats``).
"""

import pytest

from repro.core.policies import HackPolicy
from repro.experiments.common import steady_state_durations
from repro.workloads import registry
from repro.workloads.scenarios import run_scenario

PINNED = {
    HackPolicy.VANILLA: {
        "events_scheduled": 48_236, "events_executed": 43_090,
        "events_cancelled": 5_063, "heap_compactions": 0,
        "timer_rearms": 13_037},
    HackPolicy.MORE_DATA: {
        "events_scheduled": 48_631, "events_executed": 44_980,
        "events_cancelled": 3_570, "heap_compactions": 0,
        "timer_rearms": 14_185},
}

#: What is still cancelled, on the vanilla cell: 2 281 backoff
#: countdowns frozen by a busy edge (each station's own, it has slots
#: to be credited), 1 307 response timeouts met by their response,
#: 1 290 of the medium's IFS wakes (one per idle period cut short by a
#: SIFS response, however many stations waited in it) and 185 stale
#: TCP timer entries.  With one defer event per station the ratio was
#: 0.124 / 0.080; with every TCP timer on cancel-and-push, 0.30 / 0.28.
MAX_CANCELLED_RATIO = 0.11


@pytest.mark.parametrize("policy", sorted(PINNED, key=lambda p: p.name))
def test_quick_ten_client_cell_kernel_counts(policy):
    cfg = registry.build("multi-client", seed=1, n_clients=10,
                         policy=policy, **steady_state_durations(True))
    kernel = run_scenario(cfg).kernel_stats
    assert kernel == PINNED[policy]
    assert kernel["events_cancelled"] / kernel["events_scheduled"] \
        < MAX_CANCELLED_RATIO
