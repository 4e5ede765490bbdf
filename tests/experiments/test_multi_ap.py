"""multi_ap experiment harness: schema, acceptance, determinism.

Acceptance criteria pinned here: the sweep runs green serially and
with ``--jobs 2`` producing identical rows, and the rows pass the
module's ``check_rows`` contract — contended static cells carry
strictly less per cell than the isolated single-cell baseline (for
both schemes), airtime / fairness / collision figures stay in range,
churn cells complete flows and a second cell collides more.
"""

import pytest

from repro.experiments import common, multi_ap, runner
from repro.experiments.batch import SweepRunner

SCHEMA = {"figure", "workload", "cells", "scheme", "combined_mbps",
          "per_cell_mbps", "cell_jain", "airtime_sum",
          "collision_frac", "utilisation", "flows_completed",
          "fct_p50_ms"}


@pytest.fixture(scope="module")
def quick_rows(sweep_cache_runner):
    return common.run(multi_ap, quick=True, runner=sweep_cache_runner)


class TestHarness:
    def test_registered_with_runner(self):
        assert runner.EXPERIMENTS["multi_ap"] is multi_ap

    def test_sweep_spec_shape(self):
        spec = multi_ap.sweep_spec(quick=True)
        assert spec.name == "multi_ap"
        # workloads x cell counts x schemes x one quick seed
        assert len(spec) == 2 * 3 * 2
        cells = {p.config.cells for p in spec.points}
        assert cells == {1, 2, 3}
        assert all(p.config.n_clients == multi_ap.CLIENTS_PER_CELL
                   for p in spec.points)

    def test_row_schema(self, quick_rows):
        assert len(quick_rows) == 12
        for row in quick_rows:
            assert set(row) == SCHEMA
            # FCT columns exist for the churn workload only.
            for field in ("flows_completed", "fct_p50_ms"):
                assert (row[field] is None) \
                    == (row["workload"] == "static")

    def test_contended_cells_below_isolated_baseline(self, quick_rows):
        """The PR's acceptance criteria, at the sweep level: the
        contract holds, and names the row for each clause broken."""
        assert multi_ap.check_rows(quick_rows).startswith("multi_ap: ")

        def tampered(workload, cells, **changes):
            return [dict(row, **changes)
                    if (row["workload"], row["cells"], row["scheme"])
                    == (workload, cells, "TCP/HACK More Data") else row
                    for row in quick_rows]

        isolated = max(r["per_cell_mbps"] for r in quick_rows)
        for rows, message in (
                (tampered("static", 2, per_cell_mbps=isolated),
                 "not below the isolated baseline"),
                (tampered("static", 3, airtime_sum=1.01),
                 "airtime sum outside"),
                (tampered("churn", 1, flows_completed=0),
                 "completed no flows"),
                (tampered("static", 2, collision_frac=0.0),
                 "does not collide more")):
            with pytest.raises(AssertionError, match=message):
                multi_ap.check_rows(rows)

    def test_rows_deterministic(self, quick_rows, sweep_cache_runner):
        again = common.run(multi_ap, quick=True,
                           runner=sweep_cache_runner)
        assert quick_rows == again

    def test_parallel_rows_identical_to_serial(self, quick_rows):
        """Serial vs --jobs 2, trimmed to the 2-cell slice so the
        uncached parallel pass stays CI-sized."""
        kwargs = dict(quick=True, cell_counts=(1, 2),
                      workloads=("static",))
        serial = common.run(multi_ap, **kwargs,
                            runner=SweepRunner(jobs=1))
        parallel = common.run(multi_ap, **kwargs,
                              runner=SweepRunner(jobs=2))
        assert serial == parallel
        trimmed = [r for r in quick_rows
                   if r["workload"] == "static" and r["cells"] in (1, 2)]
        assert serial == trimmed

    def test_format_rows_renders(self, quick_rows):
        text = multi_ap.format_rows(quick_rows)
        assert "Multi-AP overlapping cells" in text
        assert "airtime sum" in text
        assert "a second co-channel cell costs" in text
        assert "stretches p50 FCT" in text
