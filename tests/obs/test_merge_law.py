"""The one merge law, checked once over every accumulator.

Everything that crosses the shard boundary is an accumulator with an
in-place ``merge(other)`` (or a flat counter dict under
``merge_counts``).  For each of them: a random observation stream cut
into 1-4 consecutive shards and merged under any parenthesisation
renders the same block as the accumulator that saw the whole stream,
an empty accumulator is the identity on both sides, and ``merge``
leaves ``other`` untouched.

Shards are consecutive runs of the stream and are merged left to right
(the law is associativity, not commutativity: a collector's flow list
and the span list keep stream order, exactly as a
``ScenarioResult``'s views take cells in ascending order whatever the
order its shards were ``ScenarioResult.merge``d in —
``tests/workloads/test_sharding.py::TestMergeOrder`` holds the whole
result to this law on real shards).  Float observations are multiples
of 1/64, so their sums are exact whatever the grouping and the
rendered blocks can be compared with ``==``.  The frame record's
stream is drawn already in its merge order, ``(end_ns, channel)``,
as the medium observers deliver it.  Records are not accumulators and
have no row here: the telemetry samples merge by union and their
summary is a view (``test_metrics_and_spans.py::TestTelemetrySummary``;
``tests/obs/test_telemetry.py`` holds the summary of a merged stream
to the whole simulator's).
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.frames import AckFrame
from repro.mac.qdisc import QdiscStats
from repro.obs import KernelInstrument
from repro.obs.metrics import Histogram, merge_counts
from repro.sim.medium import Transmission
from repro.stats.collectors import MacStats
from repro.stats.fct import FctCollector
from repro.stats.trace import MediumTracer

#: Exactly representable floats: multiples of 1/64 up to 2**24.
DYADIC = st.integers(0, 2 ** 30).map(lambda k: k / 64)
#: Nanosecond spans whose millisecond value is such a float
#: (1 ms = 64 * 15625 ns).
DYADIC_MS_AS_NS = st.integers(0, 2 ** 26).map(lambda k: k * 15_625)
NAMES = st.sampled_from(["a", "b", "cell1.x", "cell2.x"])


class Law:
    """One accumulator kind: how to make, feed, merge and render it."""

    def __init__(self, name, make, ops, feed, render,
                 merge=lambda into, other: into.merge(other),
                 stream=None):
        self.name, self.make = name, make
        self.feed, self.render, self.merge = feed, render, merge
        #: The observation stream: any list of ``ops`` by default.
        self.stream = stream if stream is not None \
            else st.lists(ops, max_size=40)

    def __repr__(self):
        return self.name


def _feed_mac_stats(stats, op):
    attr, key, amount = op
    if attr in MacStats._DICT_COUNTERS:
        getattr(stats, attr)[key] += amount
    else:
        setattr(stats, attr, getattr(stats, attr) + amount)


def _render_mac_stats(stats):
    return {"retry_table": stats.retry_table(),
            "hack_fit_fraction": stats.hack_fit_fraction(),
            "time_breakdown_ms": stats.time_breakdown_ms(),
            "raw": {attr: (dict(value) if isinstance(value, dict)
                           else value)
                    for attr, value in vars(stats).items()}}


def _feed_qdisc(stats, op):
    if isinstance(op, str):
        setattr(stats, op, getattr(stats, op) + 1)
    else:
        stats.on_dequeue(op)


def _render_qdisc(stats):
    return (stats.block("fq_codel"),
            [getattr(stats, name) for name in QdiscStats.COUNTERS])


def _feed_fct(collector, op):
    flow_id, size, fct_ns, delivered = op
    record = collector.open(flow_id, f"C{flow_id % 3}", "download",
                            size, now=0)
    if fct_ns is not None:
        record.end_ns = fct_ns
        record.bytes_delivered = size
    else:
        record.bytes_delivered = min(delivered, size)


def _tick():
    """A callback owner for the kernel instrument (as is ``_tock``)."""


def _tock():
    pass


CHANNELS = (2, 0, 1)
#: (end_ns, position in CHANNELS, airtime, collided), sorted as a
#: stream: the order the media's observers see frames end in.
TRANSMISSION = st.tuples(st.integers(0, 50), st.integers(0, 2),
                         st.integers(1, 9), st.booleans())


def _tracer(max_records):
    return MediumTracer({}, max_records)


def _feed_tracer(tracer, op):
    end, position, airtime, collided = op
    tx = Transmission(None, AckFrame("C1", "AP", acked_seq=end),
                      end - airtime, end)
    tx.collided = collided
    tracer._observe(tx, CHANNELS[position])


def _tracer_law(name, max_records):
    return Law(name, lambda: _tracer(max_records), TRANSMISSION,
               _feed_tracer,
               lambda tracer: (tracer.records, tracer.dropped),
               merge=lambda into, other: into.merge(other, CHANNELS),
               stream=st.lists(TRANSMISSION, max_size=40).map(sorted))


FLOW = st.tuples(st.integers(1, 10 ** 6), st.integers(1_000, 2_000_000),
                 st.one_of(st.none(), DYADIC_MS_AS_NS),
                 st.integers(0, 2_000_000))

LAWS = [
    Law("Histogram", Histogram, DYADIC,
        Histogram.observe, Histogram.as_value),
    Law("MacStats", MacStats,
        st.tuples(st.sampled_from(MacStats._DICT_COUNTERS
                                  + MacStats._SCALAR_COUNTERS),
                  st.sampled_from(["tcp_ack", "tcp_data", "C1", "AP"]),
                  st.integers(0, 10 ** 9)),
        _feed_mac_stats, _render_mac_stats),
    Law("QdiscStats", QdiscStats,
        st.one_of(st.sampled_from(QdiscStats.COUNTERS),
                  st.integers(0, 10 ** 10)),
        _feed_qdisc, _render_qdisc),
    Law("FctCollector", FctCollector, FLOW,
        _feed_fct, lambda collector: collector.summary(10 ** 9)),
    Law("merge_counts", dict,
        st.tuples(NAMES, st.integers(0, 10 ** 9)),
        lambda counts, op: merge_counts(counts, dict([op])),
        dict, merge=merge_counts),
    Law("KernelInstrument", lambda: KernelInstrument(max_spans=40),
        st.tuples(st.sampled_from([_tick, _tock, len]),
                  st.integers(0, 10 ** 9), st.integers(0, 10 ** 6)),
        lambda instrument, op: instrument.record(*op),
        lambda instrument: (instrument.as_dict(), instrument.spans)),
    _tracer_law("MediumTracer", None),
    _tracer_law("MediumTracer capped", 7),
]


def _fed(law, ops):
    accumulator = law.make()
    for op in ops:
        law.feed(accumulator, op)
    return accumulator


def _merged(law, shards, data):
    """Merge consecutive ``shards`` (op lists) left to right under a
    drawn parenthesisation; every merge goes into a fresh accumulator
    (so the empty one is exercised as the left identity) and must
    leave its right operand rendering as before."""
    if len(shards) == 1:
        return _fed(law, shards[0])
    split = data.draw(st.integers(1, len(shards) - 1), label="split")
    result = law.make()
    for part in (shards[:split], shards[split:]):
        other = _merged(law, part, data)
        before = copy.deepcopy(law.render(other))
        law.merge(result, other)
        assert law.render(other) == before
    return result


@pytest.mark.parametrize("law", LAWS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sharded_merge_renders_the_unsharded_block(law, data):
    ops = data.draw(law.stream, label="ops")
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(ops)), max_size=3), label="cuts"))
    shards = [ops[lo:hi] for lo, hi in zip([0] + cuts,
                                           cuts + [len(ops)])]
    whole = law.render(_fed(law, ops))
    assert law.render(_merged(law, shards, data)) == whole

    # The empty accumulator is the identity on the right as well.
    padded = _fed(law, ops)
    law.merge(padded, law.make())
    assert law.render(padded) == whole

