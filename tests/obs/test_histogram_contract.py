"""The histogram's resolution contract, through its percentile reader.

Queue sojourn (``QdiscStats``) records milliseconds into
``repro.obs.metrics.Histogram`` and is the caller that renders its
percentiles (FCT percentiles are exact order statistics, never
binned): every reported percentile is within one bin (a factor
``10 ** (1 / BINS_PER_DECADE)``) of the exact linear-interpolation
order statistic on the raw values, never outside the observed range,
and null when nothing was recorded.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.qdisc import QdiscStats
from repro.obs.metrics import BINS_PER_DECADE, Histogram
from repro.sim.units import MS
from repro.stats.fct import percentile

RESOLUTION = 10.0 ** (1.0 / BINS_PER_DECADE) - 1.0


def sojourn_percentiles(spans_ns):
    """{fraction: reported ms} after one dequeue per span
    (``on_dequeue`` takes nanoseconds and records milliseconds)."""
    stats = QdiscStats()
    for span_ns in spans_ns:
        stats.on_dequeue(span_ns)
    block = stats.block("codel")
    return {0.50: block["sojourn_p50_ms"], 0.99: block["sojourn_p99_ms"]}


CALLERS = pytest.mark.parametrize("reported", [sojourn_percentiles])


@CALLERS
@settings(max_examples=60, deadline=None)
@given(spans_ns=st.lists(st.integers(1, 50_000 * MS),
                         min_size=1, max_size=200))
def test_percentiles_within_one_bin_and_in_range(reported, spans_ns):
    raw_ms = [span_ns / MS for span_ns in spans_ns]
    for fraction, value in reported(spans_ns).items():
        assert value == pytest.approx(percentile(raw_ms, fraction),
                                      rel=RESOLUTION + 1e-9)
        assert min(raw_ms) <= value <= max(raw_ms)


@CALLERS
def test_empty_reports_null_percentiles(reported):
    assert set(reported([]).values()) == {None}


def _state(histogram):
    return (histogram.count, histogram.total, histogram.min,
            histogram.max, histogram.bins)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(0.0, 1e4, allow_nan=False), st.sampled_from([0.0, 1e-6,
                                                          1e-7, 5.0])),
    max_size=60))
def test_observe_many_is_observe_in_order(values):
    """One call over a batch leaves the histogram each value's own
    ``observe`` leaves — ``total`` to the last bit, as the order of the
    additions is kept."""
    one_by_one, batched = Histogram(), Histogram()
    for value in values:
        one_by_one.observe(value)
    batched.observe_many(values)
    assert _state(batched) == _state(one_by_one)


@settings(max_examples=100, deadline=None)
@given(spans_ns=st.lists(st.integers(0, 10 ** 9), max_size=700),
       reads=st.sets(st.integers(0, 700)))
def test_qdisc_sojourns_fold_as_if_observed_at_once(spans_ns, reads):
    """``QdiscStats`` keeps sojourns unfolded for up to ``FOLD_EVERY``
    packets; whenever it is read (here after the packets in ``reads``)
    its histogram is the one observing each sojourn at dequeue made."""
    stats, eager = QdiscStats(), Histogram()
    for index, span in enumerate(spans_ns):
        stats.on_dequeue(span)
        eager.observe(span / MS)
        if index in reads:
            assert _state(stats.sojourn) == _state(eager)
    assert stats.dequeued == len(spans_ns)
    assert _state(stats.sojourn) == _state(eager)
