"""A-MPDU batch construction limits."""

from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mac.aggregation import ampdu_byte_budget, build_batch, \
    drain_batch, max_mpdus_for_txop
from repro.mac.blockack import BlockAckOriginator
from repro.mac.frames import Mpdu
from repro.mac.params import MacParams, mpdu_subframe_bytes
from repro.mac.qdisc import DropTailQueue, QdiscStats
from repro.phy.params import PHY_11N
from repro.sim.engine import Simulator
from repro.sim.units import msec, usec

from tests.helpers import FakePayload


def make_mpdu_factory():
    def make(payload, seq):
        return Mpdu(src="AP", dst="C1", seq=seq, payload=payload)
    return make


def build(queue_sizes, params=None, rate=150.0, origin=None):
    origin = origin or BlockAckOriginator()
    params = params or MacParams(data_rate_mbps=rate, aggregation=True)
    queue = deque(FakePayload(s) for s in queue_sizes)
    batch = build_batch(origin, queue, make_mpdu_factory(), params,
                        PHY_11N, rate)
    return batch, queue, origin


class TestLimits:
    def test_mpdu_count_cap(self):
        batch, queue, _ = build([100] * 100)
        assert len(batch) == 64
        assert len(queue) == 36

    def test_byte_cap(self):
        # 1498-byte payloads -> 1536-byte MPDUs -> 1540-byte subframes;
        # 65535 // 1540 = 42 (the paper's 42-packet batches at 150 Mbps).
        batch, _, _ = build([1498] * 64)
        assert len(batch) == 42

    def test_txop_cap_at_low_rate(self):
        # At 15 Mbps the 4 ms TXOP holds far fewer MPDUs than 64 KiB.
        params = MacParams(data_rate_mbps=15.0, aggregation=True)
        batch, _, _ = build([1498] * 64, params=params, rate=15.0)
        sub = mpdu_subframe_bytes(1498 + 38)
        duration = PHY_11N.frame_duration_ns(len(batch) * sub, 15.0)
        assert duration <= msec(4)
        assert len(batch) < 42

    def test_no_txop_limit(self):
        params = MacParams(data_rate_mbps=15.0, aggregation=True,
                           txop_limit_ns=None)
        batch, _, _ = build([1498] * 64, params=params, rate=15.0)
        assert len(batch) == 42  # byte cap is the only bound

    def test_retries_first_and_in_seq_order(self):
        origin = BlockAckOriginator()
        origin.mark_in_flight([
            Mpdu(src="AP", dst="C1", seq=origin.allocate_seq(),
                 payload=FakePayload(1000)) for _ in range(3)])
        origin.on_block_ack(frozenset({1}))  # 0 and 2 requeued
        batch, _, _ = build([1000] * 2, origin=origin)
        assert [m.seq for m in batch] == [0, 2, 3, 4]

    def test_originator_window_blocks_new_seqs(self):
        origin = BlockAckOriginator()
        # Pin an unresolved retry at seq 0.
        origin.mark_in_flight([Mpdu(src="AP", dst="C1",
                                    seq=origin.allocate_seq(),
                                    payload=FakePayload(100))])
        origin.on_block_ack(frozenset())  # seq 0 requeued
        origin.next_seq = 63
        batch, queue, _ = build([100] * 5, origin=origin)
        # Window is [0, 64): seq 63 fits, 64+ must wait.
        assert [m.seq for m in batch] == [0, 63]
        assert len(queue) == 4


class TestMaxMpdusForTxop:
    def test_150mbps_42_packets(self):
        params = MacParams(data_rate_mbps=150.0, aggregation=True)
        assert max_mpdus_for_txop(1548, params, PHY_11N, 150.0) == 42

    def test_low_rate_txop_bound(self):
        params = MacParams(data_rate_mbps=15.0, aggregation=True)
        n = max_mpdus_for_txop(1548, params, PHY_11N, 15.0)
        assert 1 <= n < 42
        sub = mpdu_subframe_bytes(1548)
        assert PHY_11N.frame_duration_ns(n * sub, 15.0) <= msec(4)

    def test_at_least_one(self):
        params = MacParams(data_rate_mbps=15.0, aggregation=True,
                           txop_limit_ns=usec_1())
        assert max_mpdus_for_txop(1548, params, PHY_11N, 15.0) == 1


def usec_1():
    from repro.sim.units import usec
    return usec(1)


class TestByteBudget:
    """The TXOP airtime test folded into one byte bound."""

    def test_agrees_with_the_airtime_predicate_for_every_length(self):
        # Every 802.11n rate, every A-MPDU length 0..65535: a length is
        # within the budget exactly when it was within both old bounds.
        limit = MacParams().txop_limit_ns
        for rate in PHY_11N.data_rates:
            budget = ampdu_byte_budget(PHY_11N, rate, limit, 65_535)
            fits = [PHY_11N.frame_duration_ns(n, rate) <= limit
                    for n in range(65_536)]
            assert fits == [n <= budget for n in range(65_536)], rate

    def test_byte_cap_and_missing_limit(self):
        assert ampdu_byte_budget(PHY_11N, 150.0, None, 65_535) == 65_535
        assert ampdu_byte_budget(PHY_11N, 150.0, msec(4), 1_000) == 1_000
        # Shorter than the preamble: not even an empty PPDU fits.
        assert ampdu_byte_budget(PHY_11N, 15.0, usec(10), 65_535) == -1
        params = MacParams(data_rate_mbps=15.0, aggregation=True,
                           txop_limit_ns=usec(10))
        batch, queue, _ = build([100] * 3, params=params, rate=15.0)
        assert batch == [] and len(queue) == 3

    def test_unknown_rate_is_still_refused(self):
        with pytest.raises(ValueError, match="not a 802.11n data rate"):
            build([100], rate=54.0)

    def test_max_mpdus_matches_the_stepwise_search(self):
        def stepwise(mpdu_bytes, params, rate):
            sub = mpdu_subframe_bytes(mpdu_bytes)
            n = min(params.ampdu_max_mpdus, params.ampdu_max_bytes // sub)
            if params.txop_limit_ns is None:
                return max(1, n)
            while n > 1 and PHY_11N.frame_duration_ns(
                    n * sub, rate) > params.txop_limit_ns:
                n -= 1
            return max(1, n)

        for limit in (None, usec(10), usec(500), msec(1), msec(4)):
            params = MacParams(aggregation=True, txop_limit_ns=limit)
            for rate in PHY_11N.data_rates:
                for mpdu_bytes in (40, 90, 576, 1536, 4000, 70_000):
                    assert max_mpdus_for_txop(
                        mpdu_bytes, params, PHY_11N, rate) == \
                        stepwise(mpdu_bytes, params, rate)


class TestDrainBatchAgainstBuildBatch:
    """``drain_batch`` (one pass over a drop-tail queue) builds the
    batch ``build_batch`` builds from the same state, MPDU for MPDU —
    sequence numbers, frame ids, timestamps — and leaves the queue, its
    sojourn histogram and the originator as ``build_batch`` does."""

    @staticmethod
    def world(payloads, gaps, retried, acked, skip):
        """A queue of ``payloads`` (``gaps`` ns apart), an originator
        whose ``retried`` MPDUs went out with only ``acked`` of them
        Block-ACKed (the rest wait as retries), ``skip`` sequence
        numbers later."""
        sim = Simulator()
        queue = DropTailQueue(sim, QdiscStats())
        origin = BlockAckOriginator()
        if retried:
            origin.mark_in_flight([
                Mpdu("AP", "C1", origin.allocate_seq(), payload,
                     frame_id=sim.new_frame_id())
                for payload in retried])
            origin.on_block_ack(frozenset(
                seq for seq in range(len(retried)) if seq in acked))
        origin.next_seq += skip
        for payload, gap in zip(payloads, gaps):
            sim.run(until=sim.now + gap)
            queue.append(payload)
        sim.run(until=sim.now + 7_000)
        return sim, queue, origin

    def same_batch(self, sizes, retried, acked, skip, max_mpdus,
                   max_bytes, txop, rate):
        params = MacParams(aggregation=True, ampdu_max_mpdus=max_mpdus,
                           ampdu_max_bytes=max_bytes, txop_limit_ns=txop)
        payloads = [FakePayload(size) for size in sizes]
        retries = [FakePayload(900 + 7 * index)
                   for index in range(retried)]
        gaps = [3_000] * len(sizes)
        sim, queue, origin = self.world(payloads, gaps, retries, acked,
                                        skip)
        oracle_sim, oracle_queue, oracle_origin = self.world(
            payloads, gaps, retries, acked, skip)

        def make_mpdu(payload, seq):
            return Mpdu("AP", "C1", seq, payload, False, False, 0,
                        oracle_sim.now, oracle_sim.new_frame_id())

        want = build_batch(oracle_origin, oracle_queue, make_mpdu, params,
                           PHY_11N, rate)
        got, _ = drain_batch(origin, queue, "AP", "C1", sim, params,
                             PHY_11N, rate)
        assert [(m.seq, m.payload, m.frame_id) for m in got] \
            == [(m.seq, m.payload, m.frame_id) for m in want]
        assert list(queue._items) == list(oracle_queue._items)

    def test_window_count_and_byte_edges(self):
        """Every limit at and one either side of where it binds: the
        originator window (a retry pins its start at 0), the MPDU cap,
        and a byte budget the 1504-byte subframes fill exactly."""
        for skip in range(60, 66):
            for retried in (0, 1, 3):
                for max_mpdus in (1, 2, 3, 64):
                    for budget in (3007, 3008, 3009, 4511, 4512, 4513):
                        self.same_batch([1460] * 6, retried, set(), skip,
                                        max_mpdus, budget, None, 150.0)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.one_of(st.just(1460), st.integers(40, 4000)),
                          max_size=80),
           gaps=st.lists(st.integers(0, 50_000), min_size=80,
                         max_size=80),
           retried=st.integers(0, 6), acked=st.sets(st.integers(0, 5)),
           skip=st.integers(0, 70), max_mpdus=st.integers(1, 64),
           # Budgets a run of 1460-byte payloads (1504-byte subframes)
           # fills exactly, as well as ones it does not.
           max_bytes=st.one_of(st.sampled_from([3_000, 20_000, 65_535]),
                               st.integers(1, 43).map(lambda k: 1504 * k)),
           txop=st.sampled_from([None, usec(300), msec(4)]),
           rate=st.sampled_from(PHY_11N.data_rates))
    def test_same_batch(self, sizes, gaps, retried, acked, skip,
                        max_mpdus, max_bytes, txop, rate):
        params = MacParams(aggregation=True, ampdu_max_mpdus=max_mpdus,
                           ampdu_max_bytes=max_bytes, txop_limit_ns=txop)
        payloads = [FakePayload(size) for size in sizes]
        retries = [FakePayload(900 + 7 * index)
                   for index in range(retried)]
        sim, queue, origin = self.world(payloads, gaps, retries, acked,
                                        skip)
        oracle_sim, oracle_queue, oracle_origin = self.world(
            payloads, gaps, retries, acked, skip)

        def make_mpdu(payload, seq):
            return Mpdu("AP", "C1", seq, payload, False, False, 0,
                        oracle_sim.now, oracle_sim.new_frame_id())

        want = build_batch(oracle_origin, oracle_queue, make_mpdu, params,
                           PHY_11N, rate)
        got, length = drain_batch(origin, queue, "AP", "C1", sim, params,
                                  PHY_11N, rate)

        def fields(batch):
            return [(m.src, m.dst, m.seq, m.payload, m.more_data, m.sync,
                     m.retry_count, m.enqueued_at, m.frame_id,
                     m.byte_length) for m in batch]

        assert fields(got) == fields(want)
        assert length == sum(mpdu_subframe_bytes(m.byte_length)
                             for m in want)
        assert list(queue._items) == list(oracle_queue._items)
        hist, oracle_hist = queue.stats.sojourn, oracle_queue.stats.sojourn
        assert (hist.count, hist.total, hist.min, hist.max, hist.bins) \
            == (oracle_hist.count, oracle_hist.total, oracle_hist.min,
                oracle_hist.max, oracle_hist.bins)
        assert origin.next_seq == oracle_origin.next_seq
        assert [m.seq for m in origin.retry_queue] \
            == [m.seq for m in oracle_origin.retry_queue]
        assert sim.new_frame_id() == oracle_sim.new_frame_id()
