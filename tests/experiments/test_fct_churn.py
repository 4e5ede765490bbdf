"""fct_churn experiment harness: schema, acceptance, determinism."""

import pytest

from repro.experiments import common, fct_churn, runner
from repro.experiments.batch import SweepRunner

SCHEMA = {"figure", "shape", "load", "scheme", "flows_completed",
          "flows_censored", "fct_p50_ms", "fct_p95_ms", "fct_p99_ms",
          "offered_mbps", "carried_mbps"}


@pytest.fixture(scope="module")
def quick_rows(sweep_cache_runner):
    # Trimmed grid: one load level, both shapes, both policies.
    return common.run(fct_churn, quick=True, loads=("high",),
                      runner=sweep_cache_runner)


class TestHarness:
    def test_registered_with_runner(self):
        assert runner.EXPERIMENTS["fct_churn"] is fct_churn

    def test_sweep_spec_shape(self):
        spec = fct_churn.sweep_spec(quick=True)
        assert spec.name == "fct_churn"
        # shapes x loads x schemes x one quick seed
        assert len(spec) == 2 * 2 * 2
        assert all(p.config.traffic == "dynamic" for p in spec.points)

    def test_row_schema(self, quick_rows):
        assert quick_rows
        for row in quick_rows:
            assert set(row) == SCHEMA

    def test_acceptance_cells(self, quick_rows):
        """>= 4 cells (HACK on/off x 2 shapes), each passing the
        module's contract (completions, ordered p50/p95/p99, load) —
        which names the row when one does not."""
        cells = {(r["shape"], r["scheme"]) for r in quick_rows}
        assert len(cells) >= 4
        assert fct_churn.check_rows(quick_rows).startswith(
            f"fct_churn: {3 * len(quick_rows)} clause(s) hold")
        starved = [dict(quick_rows[0], flows_completed=0),
                   *quick_rows[1:]]
        with pytest.raises(AssertionError, match="'flows_completed': 0"):
            fct_churn.check_rows(starved)

    def test_rows_deterministic(self, quick_rows, sweep_cache_runner):
        again = common.run(fct_churn, quick=True, loads=("high",),
                           runner=sweep_cache_runner)
        assert quick_rows == again

    def test_deterministic_without_cache(self):
        kwargs = dict(quick=True, shapes=("web",), loads=("high",))
        assert common.run(fct_churn, **kwargs) \
            == common.run(fct_churn, **kwargs)

    def test_format_rows_renders(self, quick_rows):
        text = fct_churn.format_rows(quick_rows)
        assert "Flow churn" in text
        assert "FCT p50" in text
        assert "HACK changes p50 FCT" in text

    def test_parallel_matches_serial(self, quick_rows):
        parallel = common.run(fct_churn, quick=True, loads=("high",),
                              runner=SweepRunner(jobs=2))
        assert parallel == quick_rows
