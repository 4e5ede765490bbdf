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

from itertools import compress
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

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

    The scoreboard is the set of sequence numbers seen, held as a
    window of flags: ``_flags[i]`` is 1 when ``_base + i`` was seen,
    over ``[_base, max_seq]``, and nothing below ``_base`` is in the
    set.  It keeps the rule of the set it replaces exactly: once more
    than ``2 * history`` numbers are held, every number below
    ``max_seq - history`` is forgotten (the window's base moves up to
    it), and a number recorded below the base — a retransmission older
    than the last prune — widens the window down to it.
    ``tests/mac/set_scoreboard.py`` keeps that set as the oracle.
    """

    def __init__(self, window: int = BLOCK_ACK_WINDOW,
                 history: int = 1024):
        self.window = window
        self.history = history
        self._flags = bytearray()
        self._base = 0
        #: Numbers in the set (flags that are 1).
        self._count = 0
        self.max_seq = -1
        self.next_expected = 0
        self._reorder: dict = {}

    def _mark(self, seq: int) -> bool:
        """Add ``seq`` to the set; True if it was not in it."""
        flags = self._flags
        if not flags:
            self._base = seq
        index = seq - self._base
        if index < 0:
            flags[0:0] = bytes(-index)
            self._base = seq
            index = 0
        elif index >= len(flags):
            flags.extend(bytes(index + 1 - len(flags)))
        if flags[index]:
            return False
        flags[index] = 1
        self._count += 1
        return True

    def _prune(self) -> None:
        if self._count > 2 * self.history:
            cut = self.max_seq - self.history - self._base
            if cut > 0:
                self._count -= self._flags.count(1, 0, cut)
                del self._flags[:cut]
                self._base += cut

    def record(self, mpdu: Mpdu) -> bool:
        """Note an FCS-passing MPDU.  True if new (not seen before),
        False if a duplicate (silently discarded, still Block-ACKed)."""
        is_new = self._mark(mpdu.seq)
        if mpdu.seq > self.max_seq:
            self.max_seq = mpdu.seq
        self._prune()
        return is_new

    def accept(self, mpdus: Sequence[Mpdu], out: List[Mpdu]) -> int:
        """:meth:`record` every FCS-passing MPDU of one A-MPDU and
        :meth:`insert` each new one, in order, appending to ``out`` the
        MPDUs now deliverable; returns the lowest sequence number.

        The same steps as those two calls per MPDU, with the common
        cases written out: a number one past the window's top is new
        and extends it by one flag, and a new in-order MPDU with
        nothing held back is delivered at once.
        """
        flags = self._flags
        limit = 2 * self.history
        lowest = mpdus[0].seq
        for mpdu in mpdus:
            seq = mpdu.seq
            if seq < lowest:
                lowest = seq
            if flags and seq - self._base == len(flags):
                flags.append(1)
                self._count += 1
                is_new = True
            else:
                is_new = self._mark(seq)
            if seq > self.max_seq:
                self.max_seq = seq
            if self._count > limit:
                self._prune()
            if is_new:
                if seq == self.next_expected and not self._reorder:
                    self.next_expected = seq + 1
                    out.append(mpdu)
                else:
                    self.insert(mpdu, out)
        return lowest

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

    def acked_set(self, start: int) -> FrozenSet[int]:
        """Scoreboard bitmap covering [start, start + window)."""
        base = self._base
        low = max(start, base)
        high = min(start + self.window, base + len(self._flags))
        if low >= high:
            return frozenset()
        return frozenset(compress(range(low, high),
                                  self._flags[low - base:high - base]))

    def has_seen(self, seq: int) -> bool:
        index = seq - self._base
        return 0 <= index < len(self._flags) and self._flags[index] == 1
