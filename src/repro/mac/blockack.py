"""Block ACK agreement state (802.11n).

Split into two pure-logic classes with no simulator dependencies so the
window/dedup rules are directly unit-testable:

* :class:`BlockAckOriginator` — transmit side: tracks the in-flight
  batch, the retry queue, and the 64-MPDU originator window; resolves a
  received Block ACK bitmap into delivered / requeued / dropped MPDUs,
  and handles the give-up path (BAR retries exhausted) that triggers
  the paper's SYNC bit.
* :class:`BlockAckRecipient` — receive side: duplicate filter plus the
  scoreboard from which Block ACK bitmaps are generated.

Sequence numbers are monotone integers (see ``frames.py``).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from .frames import Mpdu

#: Block ACK window size (MPDUs) per 802.11n.
BLOCK_ACK_WINDOW = 64


class BlockAckOriginator:
    """Transmit-side Block ACK bookkeeping for one (sender, receiver) pair."""

    def __init__(self, retry_limit: int = 7,
                 window: int = BLOCK_ACK_WINDOW):
        self.retry_limit = retry_limit
        self.window = window
        #: MPDUs from the last transmitted batch awaiting a Block ACK.
        self.in_flight: List[Mpdu] = []
        #: Failed MPDUs waiting to ride in the next batch (seq order).
        self.retry_queue: List[Mpdu] = []
        self.next_seq = 0

    # ------------------------------------------------------------------
    def allocate_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    @property
    def window_start(self) -> int:
        """Oldest unresolved sequence number (the originator window base)."""
        seqs = [m.seq for m in self.retry_queue] + \
               [m.seq for m in self.in_flight]
        return min(seqs) if seqs else self.next_seq

    @property
    def window_limit(self) -> int:
        """First sequence number NOT transmittable yet."""
        return self.window_start + self.window

    def mark_in_flight(self, mpdus: Iterable[Mpdu]) -> None:
        """Record the batch just transmitted (call at TX start)."""
        if self.in_flight:
            raise RuntimeError("previous batch not yet resolved")
        self.in_flight = list(mpdus)

    # ------------------------------------------------------------------
    def on_block_ack(self, acked_seqs: FrozenSet[int]
                     ) -> Tuple[List[Mpdu], List[Mpdu], List[Mpdu]]:
        """Resolve the in-flight batch against a Block ACK bitmap.

        Returns ``(delivered, requeued, dropped)``.
        """
        delivered: List[Mpdu] = []
        requeued: List[Mpdu] = []
        dropped: List[Mpdu] = []
        for mpdu in self.in_flight:
            if mpdu.seq in acked_seqs:
                delivered.append(mpdu)
            else:
                mpdu.retry_count += 1
                if mpdu.retry_count > self.retry_limit:
                    dropped.append(mpdu)
                else:
                    requeued.append(mpdu)
        self.in_flight = []
        self._merge_retries(requeued)
        return delivered, requeued, dropped

    def on_give_up(self) -> Tuple[List[Mpdu], List[Mpdu]]:
        """BAR retries exhausted: the Block ACK will never arrive.

        All unresolved MPDUs are retried (the receiver may or may not
        have them; its duplicate filter disambiguates), subject to the
        per-MPDU retry limit.  Returns ``(requeued, dropped)``.
        """
        requeued: List[Mpdu] = []
        dropped: List[Mpdu] = []
        for mpdu in self.in_flight:
            mpdu.retry_count += 1
            if mpdu.retry_count > self.retry_limit:
                dropped.append(mpdu)
            else:
                requeued.append(mpdu)
        self.in_flight = []
        self._merge_retries(requeued)
        return requeued, dropped

    def _merge_retries(self, mpdus: List[Mpdu]) -> None:
        self.retry_queue.extend(mpdus)
        self.retry_queue.sort(key=lambda m: m.seq)


class BlockAckRecipient:
    """Receive-side scoreboard, duplicate filter, and reorder buffer.

    802.11n recipients deliver MSDUs **in order**: an MPDU received
    ahead of a hole waits in the reorder buffer until the hole fills
    (the originator retries it in the next A-MPDU) or the originator's
    window moves past it (the MPDU hit its retry limit and was
    dropped).  Without this, every link-layer loss would surface as
    TCP-visible reordering and trigger spurious fast retransmits.
    """

    def __init__(self, window: int = BLOCK_ACK_WINDOW,
                 history: int = 1024):
        self.window = window
        self.history = history
        self._seen = set()
        self.max_seq = -1
        self.next_expected = 0
        self._reorder: dict = {}

    def record(self, mpdu: Mpdu) -> bool:
        """Note an FCS-passing MPDU.  True if new (not seen before),
        False if a duplicate (silently discarded, still Block-ACKed)."""
        is_new = mpdu.seq not in self._seen
        self._seen.add(mpdu.seq)
        if mpdu.seq > self.max_seq:
            self.max_seq = mpdu.seq
        self._prune()
        return is_new

    def insert(self, mpdu: Mpdu,
               out: Optional[List[Mpdu]] = None) -> List[Mpdu]:
        """Place a *new* MPDU into the reorder buffer; appends to
        ``out`` (a fresh list by default) the MPDUs now deliverable to
        the upper layer, in sequence order, and returns it."""
        if out is None:
            out = []
        seq = mpdu.seq
        if seq == self.next_expected and not self._reorder:
            # In order with nothing held back: the common case.
            self.next_expected = seq + 1
            out.append(mpdu)
            return out
        if seq < self.next_expected:
            # Behind an abandoned gap: deliver immediately (late but
            # better than never; upper layers tolerate it).
            out.append(mpdu)
            return out
        self._reorder[mpdu.seq] = mpdu
        while self.next_expected in self._reorder:
            out.append(self._reorder.pop(self.next_expected))
            self.next_expected += 1
        # Window rule: a hole the originator has moved its 64-frame
        # window past will never fill — skip it.
        while (self._reorder
               and self.max_seq - self.next_expected >= self.window):
            self.next_expected = min(self._reorder)
            while self.next_expected in self._reorder:
                out.append(self._reorder.pop(self.next_expected))
                self.next_expected += 1
        return out

    def _prune(self) -> None:
        if len(self._seen) > 2 * self.history:
            floor = self.max_seq - self.history
            self._seen = {s for s in self._seen if s >= floor}

    def acked_set(self, start: int) -> FrozenSet[int]:
        """Scoreboard bitmap covering [start, start + window)."""
        # Walk the window against the history, not the (up to
        # 2 * history entries of) history against the window.
        return frozenset(self._seen.intersection(
            range(start, start + self.window)))

    def has_seen(self, seq: int) -> bool:
        return seq in self._seen
