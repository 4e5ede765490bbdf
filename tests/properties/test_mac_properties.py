"""Property-based tests for MAC data structures."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mac.blockack import BlockAckOriginator, BlockAckRecipient
from repro.mac.frames import Mpdu

from tests.helpers import FakePayload


def mpdu(seq):
    return Mpdu(src="AP", dst="C1", seq=seq, payload=FakePayload(100))


class TestRecipientReordering:
    @settings(max_examples=200, deadline=None)
    @given(perm=st.permutations(list(range(20))))
    def test_in_order_delivery_any_arrival_order(self, perm):
        """All 20 MPDUs arriving in any order are delivered exactly
        once and in sequence order (the window never abandons a seq
        that eventually arrives within the window)."""
        recipient = BlockAckRecipient(window=64)
        delivered = []
        # The MAC's form: one list per PPDU that every insert adds to.
        twin, released = BlockAckRecipient(window=64), []
        for seq in perm:
            m = mpdu(seq)
            if recipient.record(m):
                delivered.extend(x.seq for x in recipient.insert(m))
            if twin.record(m):
                assert twin.insert(m, released) is released
        assert delivered == sorted(delivered)
        assert sorted(delivered) == list(range(20))
        assert [x.seq for x in released] == delivered

    @settings(max_examples=100, deadline=None)
    @given(seqs=st.lists(st.integers(0, 50), min_size=1, max_size=80))
    def test_duplicates_never_delivered_twice(self, seqs):
        recipient = BlockAckRecipient(window=64)
        delivered = []
        for seq in seqs:
            m = mpdu(seq)
            if recipient.record(m):
                delivered.extend(x.seq for x in recipient.insert(m))
        assert len(delivered) == len(set(delivered))

    @settings(max_examples=100, deadline=None)
    @given(missing=st.integers(0, 9))
    def test_window_rule_abandons_dropped_seq(self, missing):
        """If one seq never arrives, delivery resumes once the window
        moves 64 past it."""
        recipient = BlockAckRecipient(window=64)
        delivered = []
        for seq in range(0, 100):
            if seq == missing:
                continue
            m = mpdu(seq)
            if recipient.record(m):
                delivered.extend(x.seq for x in recipient.insert(m))
        assert missing not in delivered
        assert delivered == sorted(delivered)
        assert set(delivered) == set(range(100)) - {missing}


class TestOriginatorInvariants:
    @settings(max_examples=100, deadline=None)
    @given(acked=st.sets(st.integers(0, 9)))
    def test_resolution_partitions_batch(self, acked):
        orig = BlockAckOriginator(retry_limit=7)
        batch = [mpdu(orig.allocate_seq()) for _ in range(10)]
        orig.mark_in_flight(batch)
        delivered, requeued, dropped = orig.on_block_ack(
            frozenset(acked))
        seqs = sorted(m.seq for m in delivered + requeued + dropped)
        assert seqs == list(range(10))
        assert {m.seq for m in delivered} == acked
        assert not orig.in_flight

    @settings(max_examples=50, deadline=None)
    @given(rounds=st.lists(st.sets(st.integers(0, 63)), min_size=1,
                           max_size=10))
    def test_window_start_monotone(self, rounds):
        orig = BlockAckOriginator(retry_limit=2)
        last_start = 0
        for acked in rounds:
            limit = orig.window_limit
            batch = [mpdu(orig.allocate_seq()) for _ in range(4)
                     if orig.next_seq < limit]
            if not batch and not orig.retry_queue:
                break
            if batch:
                orig.mark_in_flight(batch)
                orig.on_block_ack(frozenset(
                    m.seq for m in batch if m.seq % 64 in acked))
            assert orig.window_start >= last_start
            last_start = orig.window_start
