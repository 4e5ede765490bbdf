"""Streaming FCT aggregation: equivalence with exact mode, bounded
memory, documented percentile resolution.

The :class:`FctAggregator` must be a drop-in for
:class:`FctCollector` everywhere the FlowManager touches it, agree
*exactly* on everything that is not a percentile (counts, mean,
min/max, offered/carried load, size-bin tallies) and agree on
percentiles within its documented resolution
(``10 ** (1 / BINS_PER_DECADE) - 1``, about 2.33%).  Its memory must
scale with flow *concurrency* and histogram occupancy, never with
total flow count.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import HackPolicy
from repro.obs.metrics import BINS_PER_DECADE
from repro.sim.units import MS
from repro.stats.fct import FctAggregator, FctCollector, \
    has_completions, percentile
from repro.traffic.arrivals import ArrivalSpec, SizeSpec
from repro.workloads import registry
from repro.workloads.scenarios import ScenarioConfig, run_scenario

RESOLUTION = 10.0 ** (1.0 / BINS_PER_DECADE) - 1.0


def _feed(collector, flows):
    """Replay (size_bytes, fct_ms or None, delivered) flow lives."""
    for index, (size, fct_ms, delivered) in enumerate(flows):
        record = collector.open(index + 1, "C1", "download", size,
                                now=0)
        if fct_ms is not None:
            record.end_ns = int(fct_ms * MS)
        record.bytes_delivered = delivered
        collector.close(record)


FLOW = st.tuples(
    st.integers(min_value=1, max_value=5_000_000),      # size
    st.one_of(st.none(),                                # censored
              st.floats(min_value=0.05, max_value=50_000.0,
                        allow_nan=False)),              # fct_ms
    st.integers(min_value=0, max_value=1_000_000))      # delivered


class TestSyntheticEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(flows=st.lists(FLOW, min_size=1, max_size=120))
    def test_exact_fields_agree(self, flows):
        exact, stream = FctCollector(), FctAggregator()
        _feed(exact, flows)
        _feed(stream, flows)
        e = exact.summary(duration_ns=10**9, include_flows=False)
        s = stream.summary(duration_ns=10**9)
        for key in ("flows_spawned", "flows_completed",
                    "flows_censored", "offered_load_mbps",
                    "carried_load_mbps"):
            assert s[key] == e[key], key
        if not has_completions(e["fct_ms"]):
            assert s["fct_ms"] == e["fct_ms"]   # same zero-count block
            return
        assert s["fct_ms"]["mean"] == pytest.approx(
            e["fct_ms"]["mean"])
        assert s["fct_ms"]["min"] == e["fct_ms"]["min"]
        assert s["fct_ms"]["max"] == e["fct_ms"]["max"]
        assert set(s["fct_by_size_ms"]) == set(e["fct_by_size_ms"])
        for label, bins in e["fct_by_size_ms"].items():
            assert s["fct_by_size_ms"][label]["flows"] == \
                bins["flows"]

    @settings(max_examples=60, deadline=None)
    @given(fcts=st.lists(
        st.floats(min_value=0.05, max_value=50_000.0,
                  allow_nan=False),
        min_size=1, max_size=200))
    def test_percentiles_within_documented_resolution(self, fcts):
        stream = FctAggregator()
        _feed(stream, [(10_000, f, 10_000) for f in fcts])
        dist = stream.summary(duration_ns=10**9)["fct_ms"]
        for key, fraction in (("p50", 0.50), ("p95", 0.95),
                              ("p99", 0.99)):
            exact = percentile(fcts, fraction)
            assert dist[key] == pytest.approx(exact,
                                              rel=RESOLUTION + 1e-9)


class TestBoundedMemory:
    def test_no_per_flow_retention(self):
        stream = FctAggregator()
        _feed(stream, [(10_000, 1.0 + (i % 37) * 0.5, 10_000)
                       for i in range(10_000)])
        assert not hasattr(stream, "records")
        assert stream.live_open == 0
        # 10k flows, but the distinct log-bin count is tiny and the
        # peak concurrent record count was 1 (sequential replay).
        assert stream.occupied_bins() < 200
        assert stream.max_live == 1

    def test_occupancy_independent_of_flow_count(self):
        small, large = FctAggregator(), FctAggregator()
        _feed(small, [(10_000, 1.0 + (i % 50) * 0.8, 10_000)
                      for i in range(100)])
        _feed(large, [(10_000, 1.0 + (i % 50) * 0.8, 10_000)
                      for i in range(100_000)])
        # 1000x the flows, identical FCT support: identical bins.
        assert large.occupied_bins() == small.occupied_bins()

    def test_max_live_tracks_concurrency(self):
        stream = FctAggregator()
        open_records = [stream.open(i, "C1", "download", 1000, 0)
                        for i in range(7)]
        assert stream.max_live == 7
        for record in open_records:
            record.end_ns = MS
            stream.close(record)
        assert stream.live_open == 0
        assert stream.max_live == 7

    def test_scenario_memory_tracks_concurrency_not_flow_count(self):
        """The PR 4 scale claim on a real churn cell: an 8x longer
        window spawns ~10x the flows (25 -> 242), but peak live records
        move only with concurrency (6 -> 12) and occupied bins are
        bounded by the FCT range (each flow lands in the overall
        histogram and one size bin), not by how many flows fed it."""
        def streaming_fct(duration_ns):
            return run_scenario(ScenarioConfig(
                phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
                traffic="dynamic", policy=HackPolicy.MORE_DATA,
                arrivals=ArrivalSpec(
                    kind="poisson", rate_per_s=80.0,
                    size=SizeSpec(kind="lognormal",
                                  median_bytes=20_000, sigma=1.0)),
                duration_ns=duration_ns, warmup_ns=duration_ns // 5,
                stagger_ns=0, stream_stats=True)).fct

        short, long = streaming_fct(400 * MS), streaming_fct(3200 * MS)
        assert long["flows_spawned"] >= 8 * short["flows_spawned"]
        assert long["streaming"]["max_live_records"] \
            <= 3 * short["streaming"]["max_live_records"]
        for fct in (short, long):
            live = fct["streaming"]["max_live_records"]
            assert live < fct["flows_spawned"] / 4
            spread = fct["fct_ms"]
            decades = math.log10(spread["max"] / spread["min"])
            assert fct["streaming"]["occupied_bins"] \
                <= 2 * (BINS_PER_DECADE * decades + 1)


class TestScenarioEquivalence:
    """stream_stats=True must not perturb the simulation, only the
    collection; checked on a real quick churn run."""

    @pytest.fixture(scope="class")
    def pair(self):
        def run(stream):
            cfg = registry.build("churn-web", seed=2,
                                 duration_ns=600_000_000,
                                 warmup_ns=100_000_000,
                                 stream_stats=stream)
            return run_scenario(cfg)
        return run(False), run(True)

    def test_simulation_identical(self, pair):
        exact, stream = pair
        assert exact.aggregate_goodput_mbps == \
            stream.aggregate_goodput_mbps
        assert exact.medium_frames_sent == stream.medium_frames_sent
        assert exact.kernel_stats == stream.kernel_stats

    def test_flow_accounting_identical(self, pair):
        exact, stream = pair
        for key in ("flows_spawned", "flows_completed",
                    "flows_censored", "offered_load_mbps",
                    "carried_load_mbps"):
            assert exact.fct[key] == stream.fct[key], key

    def test_percentiles_within_resolution(self, pair):
        exact, stream = pair
        assert exact.fct["fct_ms"] is not None
        for key in ("p50", "p95", "p99"):
            assert stream.fct["fct_ms"][key] == pytest.approx(
                exact.fct["fct_ms"][key], rel=RESOLUTION + 1e-9)

    def test_streaming_summary_has_no_flow_list(self, pair):
        exact, stream = pair
        assert "flows" in exact.fct
        assert "flows" not in stream.fct
        block = stream.fct["streaming"]
        assert block["bins_per_decade"] == BINS_PER_DECADE
        assert block["relative_resolution"] == \
            pytest.approx(RESOLUTION)
        assert block["max_live_records"] >= 1
