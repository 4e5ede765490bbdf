"""Golden regression tests for every pinned experiment module.

Each module's quick rows (at its ``conftest.QUICK_SCOPES`` slice) must
(a) have a stable schema and (b) be deterministic across two
invocations with the same seeds.  A shared content-hash cache makes
the second invocation free, and doubles as a check that cache-restored
sweeps rebuild the exact same tables; one module (fig10) is
additionally re-run with the cache disabled to pin down
simulator-level determinism.
"""

import pytest

from repro.experiments.runner import EXPERIMENTS

from tests.experiments.conftest import QUICK_SCOPES, ROW_SCHEMAS, \
    pinned_rows


@pytest.mark.parametrize("name", sorted(QUICK_SCOPES))
def test_schema_and_determinism(name, sweep_cache_runner):
    first = pinned_rows(name, sweep_cache_runner)
    second = pinned_rows(name, sweep_cache_runner)
    assert first, f"{name}: no rows"
    for row in first:
        assert set(row) == ROW_SCHEMAS[name], \
            f"{name}: row schema drifted"
    assert first == second, f"{name}: rows not reproducible"
    # Every table renders from golden rows.
    text = EXPERIMENTS[name].format_rows(first)
    assert text
    if name == "ablations":
        assert "delayed ACKs" in text


def test_fig10_deterministic_without_cache():
    """Same seeds => identical rows even when every cell re-simulates."""
    assert pinned_rows("fig10") == pinned_rows("fig10")


def test_every_experiment_declares_a_sweep():
    for name, module in EXPERIMENTS.items():
        spec = module.sweep_spec(quick=True)
        assert len(spec) > 0, f"{name}: empty sweep spec"
        assert spec.name == name
        assert all(point.key for point in spec.points)
