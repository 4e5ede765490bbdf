"""Unit oracles for the observability primitives.

The registry's merge laws are what the shard pipeline leans on:
disjointly-named metrics union exactly, same-named metrics combine the
way each kind promises (counters sum, gauges pool min/max/mean,
histograms sum bins — the merge law itself is the property in
``test_merge_law.py``).  The kernel instrument's aggregation key must
be stable across processes (class + method name, never object ids).
"""

import json

from repro.obs import KernelInstrument, MetricsRegistry, owner_key
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_inc_and_merge_sum(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(4)
        b.inc(10)
        a.merge(b)
        assert a.as_value() == 15

    def test_merge_empty_is_identity(self):
        a, b = Counter(), Counter()
        a.inc(3)
        a.merge(b)
        assert a.as_value() == 3


class TestGauge:
    def test_streaming_min_max_mean(self):
        g = Gauge()
        for value in (4.0, 1.0, 7.0):
            g.observe(value)
        summary = g.as_value()
        assert summary["min"] == 1.0
        assert summary["max"] == 7.0
        assert summary["mean"] == 4.0
        assert summary["last"] == 7.0
        assert summary["count"] == 3

    def test_empty_gauge(self):
        assert Gauge().as_value() == {
            "last": 0.0, "min": None, "max": None,
            "mean": 0.0, "count": 0}

    def test_merge_pools_extremes_and_mean(self):
        a, b = Gauge(), Gauge()
        for value in (2.0, 6.0):
            a.observe(value)
        for value in (1.0, 9.0):
            b.observe(value)
        a.merge(b)
        summary = a.as_value()
        assert summary == {"last": 9.0, "min": 1.0, "max": 9.0,
                           "mean": 4.5, "count": 4}

    def test_merge_with_empty_sides(self):
        a, b = Gauge(), Gauge()
        b.observe(5.0)
        a.merge(b)
        assert a.as_value()["count"] == 1
        assert a.as_value()["last"] == 5.0
        b.merge(Gauge())
        assert b.as_value()["count"] == 1


class TestHistogram:
    def test_log_bins_and_exact_fields(self):
        h = Histogram()
        for value in (0, 0.5, 1, 2, 3, 100):
            h.observe(value)
        rendered = h.as_value()
        # 100 bins per decade, bin i = [10**(i/100), 10**((i+1)/100));
        # zero sits on the 1e-6 floor.
        assert rendered["bins"] == {"-600": 1, "-31": 1, "0": 1,
                                    "30": 1, "47": 1, "200": 1}
        assert list(rendered["bins"]) == sorted(rendered["bins"],
                                                key=int)
        assert rendered["count"] == 6
        assert rendered["total"] == 106.5
        assert rendered["mean"] == 106.5 / 6
        assert (rendered["min"], rendered["max"]) == (0, 100)

    def test_percentile_clamped_into_observed_range(self):
        h = Histogram()
        h.observe(2.0)
        # One sample: the bin midpoint (10**0.305) is not the value,
        # the exact min/max are.
        assert h.percentile(0.0) == h.percentile(1.0) == 2.0

    def test_empty(self):
        h = Histogram()
        assert h.percentile(0.5) is None
        assert h.as_value() == {"count": 0, "total": 0.0, "mean": 0.0,
                                "min": None, "max": None, "bins": {}}


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_as_dict_sorted_and_json_able(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").observe(1.5)
        payload = json.loads(json.dumps(registry.as_dict()))
        assert list(payload["counters"]) == ["a", "b"]
        assert payload["gauges"]["g"]["mean"] == 1.5

    def test_disjoint_merge_is_union(self):
        """The shard law: shard registries with disjoint names merge
        into exactly the union, independent of merge order."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("channel0.utilisation").observe(0.5)
        b.gauge("channel1.utilisation").observe(0.25)
        a.counter("samples").inc(3)
        b.counter("samples").inc(2)
        merged = MetricsRegistry()
        merged.merge(b)
        merged.merge(a)
        payload = merged.as_dict()
        assert payload["counters"]["samples"] == 5
        assert payload["gauges"]["channel0.utilisation"]["last"] == 0.5
        assert payload["gauges"]["channel1.utilisation"]["max"] == 0.25


class _Probe:
    def tick(self):
        pass


def _free_function():
    pass


class TestOwnerKey:
    def test_bound_method(self):
        assert owner_key(_Probe().tick) == "_Probe.tick"

    def test_plain_function(self):
        assert owner_key(_free_function).endswith("_free_function")

    def test_closure(self):
        def outer():
            def inner():
                pass
            return inner
        assert "inner" in owner_key(outer())


class TestKernelInstrument:
    def test_aggregates_by_owner(self):
        instrument = KernelInstrument()
        probe = _Probe()
        instrument.record(probe.tick, 100, 50)
        instrument.record(probe.tick, 200, 70)
        instrument.record(_free_function, 300, 10)
        assert instrument.events == 3
        assert instrument.total_wall_ns == 130
        table = instrument.owner_table()
        assert table[0]["owner"] == "_Probe.tick"
        assert table[0]["count"] == 2
        assert table[0]["wall_ns"] == 120
        assert table[0]["max_ns"] == 70

    def test_span_retention_cap(self):
        instrument = KernelInstrument(max_spans=2)
        probe = _Probe()
        for t in range(5):
            instrument.record(probe.tick, t, 1)
        assert len(instrument.spans) == 2
        assert instrument.dropped_spans == 3
        block = instrument.as_dict()
        assert block["recorded_spans"] == 2
        assert block["dropped_spans"] == 3

    def test_zero_max_spans_keeps_aggregates_only(self):
        instrument = KernelInstrument(max_spans=0)
        instrument.record(_free_function, 0, 5)
        assert instrument.spans == []
        assert instrument.dropped_spans == 0
        assert instrument.events == 1

    def test_merge_sums_owners_across_shards(self):
        a = KernelInstrument(max_spans=8)
        b = KernelInstrument(max_spans=8)
        probe = _Probe()
        a.record(probe.tick, 0, 100)
        b.record(probe.tick, 0, 50)
        b.record(_free_function, 0, 25)
        a.merge(b)
        merged = a.as_dict()
        assert merged["events"] == 3
        assert merged["total_wall_ns"] == 175
        assert merged["recorded_spans"] == len(a.spans) == 3
        rows = {row["owner"]: row for row in merged["owners"]}
        assert rows["_Probe.tick"]["count"] == 2
        assert rows["_Probe.tick"]["wall_ns"] == 150
        assert rows["_Probe.tick"]["max_ns"] == 100
        assert b.as_dict()["events"] == 2
