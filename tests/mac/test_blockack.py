"""Block ACK originator/recipient logic (pure, no simulator)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mac.blockack import BLOCK_ACK_WINDOW, BlockAckOriginator, \
    BlockAckRecipient
from repro.mac.frames import Mpdu

from tests.helpers import FakePayload, has_seen
from tests.mac.set_scoreboard import SetScoreboardRecipient


def mpdu(seq):
    return Mpdu(src="AP", dst="C1", seq=seq, payload=FakePayload())


def mpdus(origin, n):
    return [Mpdu(src="AP", dst="C1", seq=origin.allocate_seq(),
                 payload=FakePayload()) for _ in range(n)]


class TestOriginatorWindow:
    def test_initial_window(self):
        orig = BlockAckOriginator()
        assert orig.window_start == 0
        assert orig.window_limit == BLOCK_ACK_WINDOW

    def test_window_tracks_oldest_unresolved(self):
        orig = BlockAckOriginator()
        batch = mpdus(orig, 4)
        orig.mark_in_flight(batch)
        assert orig.window_start == 0
        orig.on_block_ack(frozenset({0, 1, 3}))  # 2 missed
        assert orig.window_start == 2
        assert orig.window_limit == 2 + BLOCK_ACK_WINDOW

    def test_window_advances_when_all_resolved(self):
        orig = BlockAckOriginator()
        batch = mpdus(orig, 3)
        orig.mark_in_flight(batch)
        orig.on_block_ack(frozenset({0, 1, 2}))
        assert orig.window_start == 3


class TestOriginatorResolution:
    def test_all_acked(self):
        orig = BlockAckOriginator()
        batch = mpdus(orig, 5)
        orig.mark_in_flight(batch)
        delivered, requeued, dropped = orig.on_block_ack(
            frozenset(range(5)))
        assert [m.seq for m in delivered] == [0, 1, 2, 3, 4]
        assert requeued == [] and dropped == []

    def test_missed_requeued_with_retry_count(self):
        orig = BlockAckOriginator()
        orig.mark_in_flight(mpdus(orig, 3))
        _, requeued, _ = orig.on_block_ack(frozenset({0, 2}))
        assert [m.seq for m in requeued] == [1]
        assert requeued[0].retry_count == 1
        assert orig.retry_queue == requeued

    def test_retry_limit_drops(self):
        orig = BlockAckOriginator(retry_limit=2)
        batch = mpdus(orig, 1)
        batch[0].retry_count = 2
        orig.mark_in_flight(batch)
        _, requeued, dropped = orig.on_block_ack(frozenset())
        assert requeued == []
        assert dropped == batch

    def test_cannot_double_mark(self):
        orig = BlockAckOriginator()
        orig.mark_in_flight(mpdus(orig, 1))
        try:
            orig.mark_in_flight([])
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected RuntimeError")

    def test_retry_queue_stays_sorted(self):
        orig = BlockAckOriginator()
        orig.mark_in_flight(mpdus(orig, 4))
        orig.on_block_ack(frozenset({0, 2}))  # requeue 1, 3
        batch2 = mpdus(orig, 1)  # seq 4
        orig.mark_in_flight(batch2)
        orig.on_block_ack(frozenset())  # requeue 4
        assert [m.seq for m in orig.retry_queue] == [1, 3, 4]


class TestGiveUp:
    def test_give_up_requeues_everything(self):
        orig = BlockAckOriginator()
        batch = mpdus(orig, 3)
        orig.mark_in_flight(batch)
        requeued, dropped = orig.on_give_up()
        assert len(requeued) == 3
        assert dropped == []
        assert all(m.retry_count == 1 for m in requeued)

    def test_give_up_respects_retry_limit(self):
        orig = BlockAckOriginator(retry_limit=1)
        batch = mpdus(orig, 2)
        batch[0].retry_count = 1
        orig.mark_in_flight(batch)
        requeued, dropped = orig.on_give_up()
        assert [m.seq for m in dropped] == [0]
        assert [m.seq for m in requeued] == [1]


class TestRecipient:
    def record(self, rec, seq):
        return rec.record(Mpdu(src="AP", dst="C1", seq=seq,
                               payload=FakePayload()))

    def test_new_mpdu_is_new(self):
        rec = BlockAckRecipient()
        assert self.record(rec, 0)

    def test_duplicate_detected(self):
        rec = BlockAckRecipient()
        self.record(rec, 0)
        assert not self.record(rec, 0)

    def test_acked_set_window(self):
        rec = BlockAckRecipient()
        for seq in (0, 1, 3, 70):
            self.record(rec, seq)
        assert rec.acked_set(0) == frozenset({0, 1, 3})
        assert rec.acked_set(10) == frozenset({70})

    def test_acked_set_includes_duplicates(self):
        # A retransmitted MPDU whose first copy was already delivered
        # must still be reported as received.
        rec = BlockAckRecipient()
        self.record(rec, 5)
        self.record(rec, 5)
        assert 5 in rec.acked_set(0)

    def test_history_pruning_keeps_recent(self):
        rec = BlockAckRecipient(history=64)
        for seq in range(500):
            self.record(rec, seq)
        assert has_seen(rec, 499)
        assert not self.record(rec, 499)
        # Very old state may be pruned, but recent window is intact.
        assert rec.acked_set(499 - 63)


ORACLE = settings(max_examples=200, deadline=None)

#: One recipient call: an A-MPDU (``accept``), a single ``record`` +
#: ``insert``, or a query.  Sequence numbers mostly climb, as an
#: originator's do, with retransmissions a little behind and the odd
#: number far below the window (what a prune forgot).
_OPS = st.one_of(
    st.tuples(st.just("ampdu"),
              st.lists(st.integers(-6, 40), min_size=1, max_size=12)),
    st.tuples(st.just("single"), st.integers(-40, 40)),
    st.tuples(st.just("far_below"), st.integers(1, 200)),
    st.tuples(st.just("acked_set"), st.integers(-80, 20)),
    st.tuples(st.just("has_seen"), st.integers(-80, 20)),
)


class TestScoreboardAgainstTheSet:
    """The window of flags answers as the set of sequence numbers it
    replaced (``tests/mac/set_scoreboard.py``) after any sequence of
    calls; a small ``history`` makes every run prune."""

    @ORACLE
    @given(ops=st.lists(_OPS, min_size=1, max_size=60),
           history=st.sampled_from([4, 8, 16, 1024]),
           window=st.sampled_from([8, 64]))
    def test_same_answers(self, ops, history, window):
        flags = BlockAckRecipient(window=window, history=history)
        oracle = SetScoreboardRecipient(window=window, history=history)
        top = 0
        for kind, arg in ops:
            if kind == "ampdu":
                batch = [mpdu(top + offset) for offset in arg]
                top += max(arg) + 1 if max(arg) > 0 else 0
                got, want = [], []
                assert flags.accept(batch, got) \
                    == oracle.accept(batch, want)
                assert got == want
            elif kind in ("single", "far_below"):
                seq = top + arg if kind == "single" else top - 50 * arg
                m = mpdu(seq)
                is_new = flags.record(m)
                assert is_new == oracle.record(m)
                if is_new:
                    assert flags.insert(m) == oracle.insert(m)
            elif kind == "acked_set":
                assert flags.acked_set(top + arg) \
                    == oracle.acked_set(top + arg)
            else:
                assert has_seen(flags, top + arg) \
                    == oracle.has_seen(top + arg)
            assert flags.max_seq == oracle.max_seq
            assert flags.next_expected == oracle.next_expected
            assert flags._reorder == oracle._reorder
            assert flags._count == len(oracle._seen)
            assert {flags._base + index
                    for index, flag in enumerate(flags._flags)
                    if flag} == oracle._seen
