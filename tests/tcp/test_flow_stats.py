"""FlowStats snapshots and goodput windows."""

import pytest

from repro.sim.units import SEC, throughput_mbps
from repro.tcp.flow import FlowStats


class TestFlowStats:
    def test_goodput_between_snapshots(self):
        stats = FlowStats()
        stats.record(0, 0)
        stats.record(1 * SEC, 1_000_000)
        stats.record(2 * SEC, 3_000_000)
        # Whole run: 3 MB in 2 s = 12 Mbps.
        assert stats.goodput_mbps() == pytest.approx(12.0)
        # Steady-state window only: 2 MB in 1 s = 16 Mbps.
        assert stats.goodput_mbps(1 * SEC, 2 * SEC) == pytest.approx(
            16.0)

    def test_nearest_snapshot_selection(self):
        stats = FlowStats()
        stats.record(0, 0)
        stats.record(1 * SEC, 8_000_000)
        # Query times between snapshots resolve to the nearest one.
        assert stats.goodput_mbps(100, SEC - 100) == pytest.approx(
            64.0)

    def test_too_few_snapshots(self):
        stats = FlowStats()
        assert stats.goodput_mbps() == 0.0
        stats.record(0, 100)
        assert stats.goodput_mbps() == 0.0

    def test_empty_window_with_explicit_bounds(self):
        # Edge case: bounds given but no snapshots at all.
        stats = FlowStats()
        assert stats.goodput_mbps(0, 1 * SEC) == 0.0

    def test_one_sample_window_collapses_to_zero(self):
        # Both window edges resolve to the same (single nearest)
        # snapshot: zero-duration window must not divide by zero.
        stats = FlowStats()
        stats.record(0, 0)
        stats.record(1 * SEC, 4_000_000)
        assert stats.goodput_mbps(1 * SEC, 1 * SEC) == 0.0
        assert stats.goodput_mbps(SEC - 1, 2 * SEC) == 0.0

    def test_identical_timestamps(self):
        # Two snapshots at the same instant (duration 0): guarded.
        stats = FlowStats()
        stats.record(5, 100)
        stats.record(5, 200)
        assert stats.goodput_mbps() == 0.0

    def test_window_wider_than_snapshots_clamps(self):
        stats = FlowStats()
        stats.record(1 * SEC, 1_000_000)
        stats.record(2 * SEC, 3_000_000)
        # Querying far outside the recorded range uses the extreme
        # snapshots rather than extrapolating.
        assert stats.goodput_mbps(0, 100 * SEC) == pytest.approx(16.0)


class TestSummaryDict:
    def test_json_serialisable(self):
        import json

        from repro import HackPolicy, ScenarioConfig, run_scenario
        from repro.sim.units import MS
        res = run_scenario(ScenarioConfig(
            duration_ns=600 * MS, warmup_ns=300 * MS,
            policy=HackPolicy.MORE_DATA, stagger_ns=0))
        blob = json.dumps(res.metrics_dict())
        parsed = json.loads(blob)
        assert parsed["aggregate_goodput_mbps"] > 0
        assert parsed["decompressor"]["crc_failures"] == 0
        assert "1" in parsed["sender_counters"]
