"""Unit oracles for the observability primitives.

The histogram's bins and exact fields (its merge law is the property
in ``test_merge_law.py``); the telemetry summary, a view of the sample
stream, on a hand-built one; the kernel instrument, whose aggregation
key must be stable across processes (class + method name, never
object ids) and whose totals are the owner table's sums.
"""

from repro.obs import KernelInstrument, TelemetryConfig, owner_key, \
    telemetry_summary
from repro.obs.metrics import Histogram
from repro.obs.sampler import _CELL_FIELDS


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


#: Three cells: cell1 and cell3 on channel 0, cell2 on channel 1.
CELL_CHANNEL = {0: 0, 1: 1, 2: 0}


def _stream():
    """Three ticks of two channels, in ``(t_ns, channel)`` order.  Cell
    ``c``'s ``j``-th field reads ``10 * c + j`` plus 2, 0, 1 at the
    three ticks: min = base, max = base + 2, last = mean = base + 1."""
    utilisation = {0: (0.0, 0.5, 0.25), 1: (0.0, 0.125, 1.0)}
    busy = {0: (0, 1, 1), 1: (0, 0, 1)}
    samples = []
    for tick, offset in enumerate((2, 0, 1)):
        for channel in (0, 1):
            samples.append({
                "type": "sample", "t_ns": tick * 10, "channel": channel,
                "utilisation": utilisation[channel][tick],
                "busy": busy[channel][tick],
                "frames_sent": 0, "frames_collided": 0,
                "cells": [
                    dict({name: 10 * cell + j + offset
                          for j, name in enumerate(_CELL_FIELDS)},
                         cell=cell, label=f"cell{cell + 1}")
                    for cell, on in CELL_CHANNEL.items()
                    if on == channel]})
    return samples


class TestTelemetrySummary:
    CONFIG = TelemetryConfig(sample_interval_ns=10)

    def test_gauges_and_histograms_of_a_stream(self):
        summary = telemetry_summary(self.CONFIG, _stream())
        assert summary["sample_interval_ns"] == 10
        assert summary["samples"] == 6
        metrics = summary["metrics"]
        assert metrics["counters"] == {"samples": 6}
        gauges = metrics["gauges"]
        assert gauges.pop("channel0.utilisation") == {
            "last": 0.25, "min": 0.0, "max": 0.5, "mean": 0.25,
            "count": 3}
        assert gauges.pop("channel1.utilisation") == {
            "last": 1.0, "min": 0.0, "max": 1.0, "mean": 0.375,
            "count": 3}
        assert gauges.pop("channel0.busy") == {
            "last": 1, "min": 0, "max": 1, "mean": 2 / 3, "count": 3}
        assert gauges.pop("channel1.busy") == {
            "last": 1, "min": 0, "max": 1, "mean": 1 / 3, "count": 3}
        for cell in CELL_CHANNEL:
            for j, name in enumerate(_CELL_FIELDS):
                base = 10 * cell + j
                assert gauges.pop(f"cell{cell + 1}.{name}") == {
                    "last": base + 1, "min": base, "max": base + 2,
                    "mean": base + 1.0, "count": 3}
        assert gauges == {}
        names = list(summary["metrics"]["gauges"])
        assert names == sorted(names)
        assert metrics["histograms"] == {
            "cell1.ap_queue": {"count": 3, "total": 3.0, "mean": 1.0,
                               "min": 0, "max": 2,
                               "bins": {"-600": 1, "0": 1, "30": 1}},
            "cell2.ap_queue": {"count": 3, "total": 33.0, "mean": 11.0,
                               "min": 10, "max": 12,
                               "bins": {"100": 1, "104": 1, "107": 1}},
            "cell3.ap_queue": {"count": 3, "total": 63.0, "mean": 21.0,
                               "min": 20, "max": 22,
                               "bins": {"130": 1, "132": 1, "134": 1}},
        }
        assert list(metrics["histograms"]) == \
            sorted(metrics["histograms"])

    def test_empty_stream(self):
        assert telemetry_summary(self.CONFIG, []) == {
            "sample_interval_ns": 10, "samples": 0,
            "metrics": {"counters": {"samples": 0}, "gauges": {},
                        "histograms": {}}}

    def test_mean_is_an_in_order_fold(self):
        """``0.1`` ten times: an in-order ``+=`` fold gives the mean the
        registry gave on every Python; ``sum()`` gives 0.1 on 3.12+."""
        samples = [dict(sample, utilisation=0.1, cells=[])
                   for sample in _stream() if sample["channel"] == 0]
        samples = (samples * 4)[:10]
        gauge = telemetry_summary(self.CONFIG, samples)[
            "metrics"]["gauges"]["channel0.utilisation"]
        assert gauge["count"] == 10
        assert gauge["mean"] == 0.09999999999999999


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
        block = instrument.as_dict()
        assert block["events"] == 3
        assert block["total_wall_ns"] == 130
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
        assert instrument.as_dict()["events"] == 1

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
