"""aqm_pacing experiment harness: schema, acceptance, determinism."""

import pytest

from repro.experiments import aqm_pacing, runner
from repro.experiments.batch import SweepRunner

from tests.helpers import run_experiment

SCHEMA = {"figure", "transport", "qdisc", "scheme", "flows_completed",
          "flows_censored", "fct_p50_ms", "fct_p99_ms", "aqm_drops",
          "sojourn_p50_ms", "sojourn_p99_ms", "carried_mbps",
          "offered_mbps"}

#: Trimmed grid for the fixture: the stock transport against the two
#: disciplines the CI gate compares.
TRIM_TRANSPORTS = (("reno", "reno", False),)
TRIM_QDISCS = ("droptail", "codel")


@pytest.fixture(scope="module")
def quick_rows(sweep_cache_runner):
    return run_experiment(aqm_pacing, quick=True,
                          transports=TRIM_TRANSPORTS, qdiscs=TRIM_QDISCS,
                          runner=sweep_cache_runner)


class TestHarness:
    def test_registered_with_runner(self):
        assert runner.EXPERIMENTS["aqm_pacing"] is aqm_pacing

    def test_sweep_spec_shape(self):
        spec = aqm_pacing.sweep_spec(quick=True)
        assert spec.name == "aqm_pacing"
        # transports x qdiscs x schemes x one quick seed
        assert len(spec.points) == 4 * 3 * 2
        configs = [p.config for p in spec.points]
        assert all(c.traffic == "dynamic" for c in configs)
        assert all(c.udp_background_mbps == 50.0 for c in configs)
        assert {c.cc for c in configs} == {"reno", "cubic"}
        assert {c.queue_discipline for c in configs} == \
            {"droptail", "codel", "fq_codel"}

    def test_row_schema(self, quick_rows):
        assert quick_rows
        for row in quick_rows:
            assert set(row) == SCHEMA

    def test_acceptance_cells(self, quick_rows):
        """The contract CI applies to the full grid holds on the
        trimmed one."""
        summary = aqm_pacing.check_rows(quick_rows)
        # One clause per cell, one more per drop-tail cell, and CoDel's.
        clauses = len(quick_rows) + 1 + sum(
            row["qdisc"] == "droptail" for row in quick_rows)
        assert summary.startswith(
            f"aqm_pacing: {clauses} clause(s) hold; "
            f"{len(quick_rows)} cells complete; ")

    def test_codel_beats_droptail_sojourn_tail(self, quick_rows):
        """The gate has teeth: it names the row when CoDel's stock
        sojourn p99 is not below drop-tail's, when CoDel never dropped,
        when drop-tail did, and when a cell completed nothing."""
        def tampered(qdisc, **changes):
            return [dict(row, **changes)
                    if (row["qdisc"], row["scheme"])
                    == (qdisc, "TCP/802.11") else row
                    for row in quick_rows]

        tail_p99 = max(r["sojourn_p99_ms"] for r in quick_rows)
        for rows, message in (
                (tampered("codel", sojourn_p99_ms=tail_p99),
                 "does not beat"),
                (tampered("codel", aqm_drops=0), "does not beat"),
                (tampered("droptail", aqm_drops=1), "head-dropped"),
                (tampered("codel", flows_completed=0),
                 "did not complete")):
            with pytest.raises(AssertionError, match=message):
                aqm_pacing.check_rows(rows)

    def test_rows_deterministic(self, quick_rows, sweep_cache_runner):
        again = run_experiment(aqm_pacing, quick=True,
                               transports=TRIM_TRANSPORTS,
                               qdiscs=TRIM_QDISCS,
                               runner=sweep_cache_runner)
        assert quick_rows == again

    def test_parallel_matches_serial(self, quick_rows):
        parallel = run_experiment(aqm_pacing, quick=True,
                                  transports=TRIM_TRANSPORTS,
                                  qdiscs=TRIM_QDISCS,
                                  runner=SweepRunner(jobs=2))
        assert parallel == quick_rows

    def test_format_rows_renders(self, quick_rows):
        text = aqm_pacing.format_rows(quick_rows)
        assert "Modern transport & AQM" in text
        assert "sojourn p50" in text
        assert "CoDel moves stock sojourn p99" in text
