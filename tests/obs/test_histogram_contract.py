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
from repro.obs.metrics import BINS_PER_DECADE
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
