"""Queue disciplines: DropTail timestamps, CoDel head-drop state
machine, FQ-CoDel DRR, the shared stats block, and the shard merge."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mac.params import MacParams
from repro.mac.qdisc import CODEL_INTERVAL_NS, CODEL_TARGET_NS, \
    CoDelQueue, DropTailQueue, FqCodelQueue, QdiscStats, make_queue
from repro.sim.engine import Simulator
from repro.sim.units import MS

from tests.helpers import FakePayload
from tests.mac.uncached_fq_codel import UncachedFqCodelQueue


class FlowPayload(FakePayload):
    """Payload carrying a flow_id (stands in for a TcpSegment)."""

    def __init__(self, flow_id, byte_length=1000):
        super().__init__(byte_length=byte_length)
        self.flow_id = flow_id


class TestDropTailQueue:
    def test_fifo_order(self, sim):
        q = DropTailQueue(sim, QdiscStats())
        a, b = FakePayload(), FakePayload()
        q.append(a)
        q.append(b)
        assert q[0] is a
        assert q.popleft() is a and q.popleft() is b

    def test_sojourn_recorded_on_dequeue(self, sim):
        stats = QdiscStats()
        q = DropTailQueue(sim, stats)
        q.append(FakePayload())
        sim.run(until=3 * MS)
        q.popleft()
        assert stats.dequeued == 1
        assert stats.drops == 0
        assert stats.sojourn.percentile(0.5) == \
            pytest.approx(3.0, rel=0.02)

    def test_len_bool_iter(self, sim):
        q = DropTailQueue(sim, QdiscStats())
        assert not q and len(q) == 0
        payloads = [FakePayload() for _ in range(3)]
        for p in payloads:
            q.append(p)
        assert q and len(q) == 3
        assert list(q) == payloads

    def test_filter_out_preserves_order_and_timestamps(self, sim):
        stats = QdiscStats()
        q = DropTailQueue(sim, stats)
        keep, drop = FakePayload(kind="keep"), FakePayload(kind="drop")
        q.append(keep)
        sim.run(until=5 * MS)
        q.append(drop)
        removed = q.filter_out(lambda p: p.kind == "drop")
        assert removed == [drop]
        assert len(q) == 1
        sim.run(until=10 * MS)
        q.popleft()
        # keep's arrival stamp survived the filter: 10 ms sojourn.
        assert stats.sojourn.percentile(0.5) == \
            pytest.approx(10.0, rel=0.02)


class TestCoDelQueue:
    def fill(self, q, n, byte_length=1000):
        for _ in range(n):
            q.append(FakePayload(byte_length=byte_length))

    def test_below_target_never_drops(self, sim):
        stats = QdiscStats()
        q = CoDelQueue(sim, stats)
        for step in range(50):
            q.append(FakePayload())
            sim.run(until=sim.now + 2 * MS)     # sojourn 2 ms < 5 ms
            q.popleft()
        assert stats.drops == 0
        assert stats.dequeued == 50

    def test_standing_queue_drops_after_interval(self, sim):
        stats = QdiscStats()
        q = CoDelQueue(sim, stats)
        self.fill(q, 40)
        # Drain slowly: the head's sojourn exceeds target immediately
        # and stays there; drops begin one interval (100 ms) later.
        drained = 0
        while q and sim.now < 400 * MS:
            sim.run(until=sim.now + 10 * MS)
            if q:
                q.popleft()
                drained += 1
        assert stats.drops > 0
        assert stats.dequeued == drained
        assert stats.drops + stats.dequeued == 40

    def test_first_interval_grace_period(self, sim):
        stats = QdiscStats()
        q = CoDelQueue(sim, stats)
        self.fill(q, 10)
        sim.run(until=50 * MS)      # above target, within interval
        q.popleft()
        assert stats.drops == 0

    def test_never_drops_the_last_packet(self, sim):
        stats = QdiscStats()
        q = CoDelQueue(sim, stats)
        only = FakePayload()
        q.append(only)
        sim.run(until=2_000 * MS)   # ancient, but alone
        assert q[0] is only
        assert q.popleft() is only
        assert stats.drops == 0

    def test_drop_rate_accelerates(self, sim):
        stats = QdiscStats()
        q = CoDelQueue(sim, stats)
        self.fill(q, 200)
        while q and sim.now < 2_000 * MS:
            sim.run(until=sim.now + 5 * MS)
            if q:
                q.popleft()
        # The interval/sqrt(count) law: the dropping state escalated
        # well past a one-per-interval rate.
        assert q._count > 2
        assert stats.drops > 5

    def test_peek_pop_coherent_while_dropping(self, sim):
        q = CoDelQueue(sim, QdiscStats())
        self.fill(q, 40)
        sim.run(until=150 * MS)     # deep in the dropping regime
        head = q[0]
        assert q.popleft() is head


class TestFqCodelQueue:
    def test_flows_isolated_by_drr(self, sim):
        q = FqCodelQueue(sim, QdiscStats())
        fat = [FlowPayload(1) for _ in range(10)]
        mouse = FlowPayload(2)
        for p in fat:
            q.append(p)
        q.append(mouse)
        order = [q.popleft() for _ in range(11)]
        # The mouse does not wait behind the whole fat backlog.
        assert order.index(mouse) < 5
        assert sorted(id(p) for p in order) == \
            sorted(id(p) for p in fat + [mouse])

    def test_payloads_without_flow_id_share_a_bucket(self, sim):
        # Regression: UDP datagrams have no flow_id; the shared bucket
        # key must be a real sentinel, not None (None collides with
        # the scheduler's queue-empty result).
        q = FqCodelQueue(sim, QdiscStats())
        udp = [FakePayload() for _ in range(3)]
        tcp = FlowPayload(7)
        for p in udp:
            q.append(p)
        q.append(tcp)
        drained = []
        while q:
            assert q[0] is not None     # peek stays coherent
            drained.append(q.popleft())
        assert len(drained) == 4
        assert len(q) == 0 and not q

    def test_len_tracks_across_flows(self, sim):
        q = FqCodelQueue(sim, QdiscStats())
        for i in range(6):
            q.append(FlowPayload(i % 2))
        assert len(q) == 6
        for expected in range(5, -1, -1):
            q.popleft()
            assert len(q) == expected

    def test_filter_out_spans_flows(self, sim):
        q = FqCodelQueue(sim, QdiscStats())
        drop = FlowPayload(1, byte_length=99)
        keep_a, keep_b = FlowPayload(1), FlowPayload(2)
        for p in (drop, keep_a, keep_b):
            q.append(p)
        removed = q.filter_out(lambda p: p.byte_length == 99)
        assert removed == [drop]
        assert len(q) == 2
        assert {id(q.popleft()), id(q.popleft())} == \
            {id(keep_a), id(keep_b)}

    def test_iter_yields_all_queued(self, sim):
        q = FqCodelQueue(sim, QdiscStats())
        payloads = [FlowPayload(i) for i in range(4)]
        for p in payloads:
            q.append(p)
        assert sorted(id(p) for p in q) == \
            sorted(id(p) for p in payloads)

    def test_codel_applies_per_flow(self, sim):
        stats = QdiscStats()
        q = FqCodelQueue(sim, stats)
        for _ in range(40):
            q.append(FlowPayload(1))
        while q and sim.now < 400 * MS:
            sim.run(until=sim.now + 10 * MS)
            if q:
                q.popleft()
        assert stats.drops > 0

    def test_pop_from_empty_raises(self, sim):
        q = FqCodelQueue(sim, QdiscStats())
        with pytest.raises(IndexError):
            q.popleft()
        with pytest.raises(IndexError):
            q[0]


#: One round of a differential run: queue a burst of one flow's
#: packets, let time pass (often none, so a peek and a pop share their
#: instant), peek and pop a few times, and now and then withdraw one
#: flow's packets.
_FQ_ROUNDS = st.tuples(
    st.integers(0, 2), st.integers(0, 6), st.integers(40, 3000),
    st.sampled_from([0, 0, 1, 1_500, 3_000, 6_000, 40_000]),
    st.lists(st.sampled_from(["peek", "pop", "peek_pop"]), max_size=3),
    st.sampled_from([None] * 6 + [0, 1, 2]))


class TestFqCodelAgainstTheUncachedQueue:
    """The queue that keeps its DRR head per instant pops, peeks,
    drops and times exactly what the uncached one
    (``tests/mac/uncached_fq_codel.py``) does.  A target of 1 us and an
    interval of 5 us put the flows in CoDel's dropping state within a
    few rounds, where a stale head or a skipped ``_advance`` would
    show."""

    @settings(max_examples=200, deadline=None)
    @given(rounds=st.lists(_FQ_ROUNDS, min_size=1, max_size=40),
           quantum=st.sampled_from([300, 1514]))
    def test_same_queue(self, rounds, quantum):
        sim = Simulator()
        stats, oracle_stats = QdiscStats(), QdiscStats()
        queue = FqCodelQueue(sim, stats, 1_000, 5_000, quantum)
        oracle = UncachedFqCodelQueue(sim, oracle_stats, 1_000, 5_000,
                                      quantum)
        for flow, count, size, wait, actions, withdrawn in rounds:
            for _ in range(count):
                packet = FlowPayload(flow, size)
                queue.append(packet)
                oracle.append(packet)
            sim.run(until=sim.now + wait)
            for action in actions:
                if not oracle:
                    break
                if action in ("peek", "peek_pop"):
                    assert queue[0] is oracle[0]
                if action in ("pop", "peek_pop"):
                    assert queue.popleft() is oracle.popleft()
            if withdrawn is not None:
                assert queue.filter_out(
                    lambda p: p.flow_id == withdrawn) \
                    == oracle.filter_out(lambda p: p.flow_id == withdrawn)
            assert len(queue) == len(oracle)
            assert bool(queue) == bool(oracle)
            assert list(queue) == list(oracle)
            assert stats.drops == oracle_stats.drops
            assert stats.sojourn.bins == oracle_stats.sojourn.bins
            assert stats.sojourn.total == oracle_stats.sojourn.total

    def pair(self, sim):
        return (FqCodelQueue(sim, QdiscStats(), 1_000, 5_000),
                UncachedFqCodelQueue(sim, QdiscStats(), 1_000, 5_000))

    def test_peek_then_pop_in_a_dropping_state(self, sim):
        q, oracle = self.pair(sim)
        for index in range(30):
            packet = FlowPayload(index % 3)
            q.append(packet)
            oracle.append(packet)
        sim.run(until=20_000)
        assert q[0] is oracle[0]        # above target: the clock starts
        sim.run(until=30_000)
        assert q[0] is oracle[0]        # an interval later: dropping
        assert q.stats.drops == oracle.stats.drops > 0
        assert q.popleft() is oracle.popleft()
        assert q.stats.drops == oracle.stats.drops
        assert len(q) == len(oracle)

    def test_a_pop_later_than_the_peek_schedules_again(self, sim):
        """The head kept at a peek is that instant's: by the pop an
        interval later CoDel has dropped it."""
        q, oracle = self.pair(sim)
        for index in range(10):
            packet = FlowPayload(0)
            q.append(packet)
            oracle.append(packet)
        sim.run(until=20_000)
        assert q[0] is oracle[0]
        sim.run(until=30_000)
        assert q.popleft() is oracle.popleft()
        assert q.stats.drops == oracle.stats.drops > 0

    def test_an_append_after_the_peek_schedules_again(self, sim):
        """A flow that arrives after a peek, at the same instant, goes
        first (new flows have priority over the old flow peeked at)."""
        q, oracle = self.pair(sim)
        for _ in range(3):
            packet = FlowPayload(0)
            q.append(packet)
            oracle.append(packet)
        assert q.popleft() is oracle.popleft()   # flow 0 spends its
        assert q.popleft() is oracle.popleft()   # quantum: old list
        assert q[0] is oracle[0]
        newcomer = FlowPayload(1)
        q.append(newcomer)
        oracle.append(newcomer)
        assert q.popleft() is oracle.popleft() is newcomer

    def test_interval_must_be_positive(self, sim):
        with pytest.raises(ValueError, match="interval"):
            FqCodelQueue(sim, QdiscStats(), 1_000, 0)


class TestMakeQueue:
    def test_dispatch(self, sim):
        stats = QdiscStats()
        assert type(make_queue(sim, MacParams(), stats)) \
            is DropTailQueue
        assert type(make_queue(
            sim, MacParams(queue_discipline="codel"), stats)) \
            is CoDelQueue
        assert type(make_queue(
            sim, MacParams(queue_discipline="fq_codel"), stats)) \
            is FqCodelQueue

    def test_unknown_discipline_rejected(self, sim):
        with pytest.raises(ValueError, match="unknown queue"):
            make_queue(sim, MacParams(queue_discipline="red"),
                       QdiscStats())

    def test_codel_knobs_forwarded(self, sim):
        q = make_queue(sim, MacParams(queue_discipline="codel"),
                       QdiscStats())
        assert q.target_ns == CODEL_TARGET_NS
        assert q.interval_ns == CODEL_INTERVAL_NS
        q = CoDelQueue(sim, QdiscStats(), 2 * MS, 50 * MS)
        assert q.target_ns == 2 * MS
        assert q.interval_ns == 50 * MS


class TestStatsAndMerge:
    """Block shape and one worked merge; associativity, the empty
    identity and ``other`` left untouched are the property in
    ``tests/obs/test_merge_law.py``."""

    def drained_stats(self, sim, n=5, gap=2 * MS):
        stats = QdiscStats()
        q = DropTailQueue(sim, stats)
        for _ in range(n):
            q.append(FakePayload())
            sim.run(until=sim.now + gap)
            q.popleft()
        return stats

    def test_block_shape(self, sim):
        block = self.drained_stats(sim).block("droptail")
        assert set(block) == {"discipline", "drops", "dequeued",
                              "sojourn_bins", "sojourn_p50_ms",
                              "sojourn_p99_ms"}
        assert block["dequeued"] == 5
        assert block["sojourn_p50_ms"] <= block["sojourn_p99_ms"]
        assert all(isinstance(k, str) for k in block["sojourn_bins"])

    def test_empty_block_has_none_percentiles(self):
        block = QdiscStats().block("codel")
        assert block["dequeued"] == 0
        assert block["sojourn_p50_ms"] is None
        assert block["sojourn_p99_ms"] is None

    def test_merge_sums_and_recomputes(self, sim):
        a = self.drained_stats(sim, n=4, gap=1 * MS)
        b = self.drained_stats(sim, n=4, gap=20 * MS)
        alone = a.block("droptail")
        a.merge(b)
        merged = a.block("droptail")
        assert merged["dequeued"] == 8
        assert merged["drops"] == 0
        # The merged p99 reflects the slow half, not a's alone.
        assert merged["sojourn_p99_ms"] > alone["sojourn_p99_ms"]
