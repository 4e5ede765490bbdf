"""FctCollector / FctAggregator merge across cells.

Multi-AP runs keep one collector per cell and merge them into the
combined ``fct`` block; these tests pin the contract: merged exact
collectors summarise exactly like one collector fed everything, and
merged streaming aggregators agree with the exact merge on every
exact field while percentiles stay within the documented one-bin
resolution — including the empty-cell and single-flow edge cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import BINS_PER_DECADE
from repro.sim.units import MS
from repro.stats.fct import FctAggregator, FctCollector, \
    has_completions

RESOLUTION = 10 ** (1 / BINS_PER_DECADE) - 1

#: (size_bytes, fct_ms or None for censored, delivered_bytes)
FLOW = st.tuples(
    st.integers(1_000, 2_000_000),
    st.one_of(st.none(),
              st.floats(0.05, 50_000.0, allow_nan=False)),
    st.integers(0, 2_000_000))

#: A "cell" is a list of flow lives; cells may be empty.
CELLS = st.lists(st.lists(FLOW, max_size=40), min_size=1, max_size=4)


def feed(collector, flows, base_id=0):
    for index, (size, fct_ms, delivered) in enumerate(flows):
        record = collector.open(base_id + index, f"C{index % 3}",
                                "download", size, now=0)
        if fct_ms is not None:
            record.end_ns = int(fct_ms * MS)
            record.bytes_delivered = size
        else:
            record.bytes_delivered = min(delivered, size)
        collector.close(record)


def merged(cls, cells):
    """Per-cell collectors of ``cls``, merged into a fresh one."""
    combined = cls()
    for index, flows in enumerate(cells):
        per_cell = cls()
        feed(per_cell, flows, base_id=1000 * index)
        combined.merge(per_cell)
    return combined


class TestExactMerge:
    @settings(max_examples=80, deadline=None)
    @given(cells=CELLS)
    def test_merged_collectors_equal_single_collector(self, cells):
        everything = FctCollector()
        for index, flows in enumerate(cells):
            feed(everything, flows, base_id=1000 * index)
        assert merged(FctCollector, cells).summary(10 ** 9) == \
            everything.summary(10 ** 9)

    def test_merge_leaves_source_untouched(self):
        source = FctCollector()
        feed(source, [(10_000, 5.0, 10_000)])
        target = FctCollector()
        target.merge(source)
        assert len(source.records) == 1
        assert target.records == source.records

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError, match="modes must match"):
            FctCollector().merge(FctAggregator())
        with pytest.raises(TypeError, match="modes must match"):
            FctAggregator().merge(FctCollector())


class TestStreamingMerge:
    @settings(max_examples=80, deadline=None)
    @given(cells=CELLS)
    def test_merged_streams_match_exact_merge(self, cells):
        exact = merged(FctCollector, cells).summary(
            10 ** 9, include_flows=False)
        stream = merged(FctAggregator, cells).summary(10 ** 9)
        for key in ("flows_spawned", "flows_completed",
                    "flows_censored", "offered_load_mbps",
                    "carried_load_mbps"):
            assert stream[key] == exact[key], key
        if not has_completions(exact["fct_ms"]):
            assert stream["fct_ms"] == exact["fct_ms"]
            return
        assert stream["fct_ms"]["mean"] == pytest.approx(
            exact["fct_ms"]["mean"])
        assert stream["fct_ms"]["min"] == exact["fct_ms"]["min"]
        assert stream["fct_ms"]["max"] == exact["fct_ms"]["max"]
        for pct in ("p50", "p95", "p99"):
            assert stream["fct_ms"][pct] == pytest.approx(
                exact["fct_ms"][pct], rel=RESOLUTION + 1e-9)
        assert set(stream["fct_by_size_ms"]) == \
            set(exact["fct_by_size_ms"])
        for label, bins in exact["fct_by_size_ms"].items():
            assert stream["fct_by_size_ms"][label]["flows"] == \
                bins["flows"]

    @settings(max_examples=60, deadline=None)
    @given(cells=CELLS)
    def test_merge_order_is_irrelevant(self, cells):
        forward = merged(FctAggregator, cells).summary(10 ** 9)
        backward = merged(FctAggregator, cells[::-1]).summary(10 ** 9)
        for key in ("flows_spawned", "flows_completed",
                    "offered_load_mbps", "carried_load_mbps"):
            assert forward[key] == backward[key]
        f, b = forward["fct_ms"], backward["fct_ms"]
        assert set(f) == set(b)
        for key in f:
            if f[key] is None:
                assert b[key] is None
            else:
                # ``mean`` folds floats in merge order; everything
                # else (histogram counts, min/max, the percentile
                # interpolation they drive) is order-exact.
                assert b[key] == pytest.approx(f[key], rel=1e-12)

    def test_empty_cell_merge_is_identity(self):
        flows = [(10_000, 3.0, 10_000), (600_000, 80.0, 600_000)]
        alone = FctAggregator()
        feed(alone, flows)
        with_empty = merged(FctAggregator, [flows, []])
        a, b = alone.summary(10 ** 9), with_empty.summary(10 ** 9)
        a["streaming"].pop("max_live_records")
        b["streaming"].pop("max_live_records")
        assert a == b

    def test_all_cells_empty(self):
        summary = merged(FctAggregator, [[], [], []]).summary(10 ** 9)
        assert summary["flows_spawned"] == 0
        assert summary["fct_ms"]["flows"] == 0
        assert not has_completions(summary["fct_ms"])

    def test_single_flow_in_one_cell(self):
        stream = merged(FctAggregator, [[], [(40_000, 12.5, 40_000)]])
        summary = stream.summary(10 ** 9)
        assert summary["flows_completed"] == 1
        dist = summary["fct_ms"]
        # One flow: every percentile is that flow, and the min/max
        # clamp makes the quantised value exact.
        assert dist["p50"] == dist["p95"] == dist["p99"] == 12.5
        assert dist["min"] == dist["max"] == 12.5

    def test_max_live_sums_as_upper_bound(self):
        a, b = FctAggregator(), FctAggregator()
        feed(a, [(10_000, 1.0, 10_000)] * 3)
        feed(b, [(10_000, 1.0, 10_000)] * 2)
        combined = FctAggregator()
        combined.merge(a)
        combined.merge(b)
        assert combined.max_live == a.max_live + b.max_live
