"""The Block ACK recipient as it was before its scoreboard became a
window of flags: a set of up to ``2 * history`` sequence numbers.

Kept verbatim (minus the docstrings) as the oracle
``tests/mac/test_blockack.py`` holds
:class:`repro.mac.blockack.BlockAckRecipient` to: the same answers
from ``record``, ``insert``, ``acked_set`` and ``has_seen`` after any
sequence of calls, pruning and retransmissions below the window
included.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.mac.blockack import BLOCK_ACK_WINDOW


class SetScoreboardRecipient:
    def __init__(self, window: int = BLOCK_ACK_WINDOW,
                 history: int = 1024):
        self.window = window
        self.history = history
        self._seen = set()
        self.max_seq = -1
        self.next_expected = 0
        self._reorder: dict = {}

    def record(self, mpdu) -> bool:
        is_new = mpdu.seq not in self._seen
        self._seen.add(mpdu.seq)
        if mpdu.seq > self.max_seq:
            self.max_seq = mpdu.seq
        self._prune()
        return is_new

    def insert(self, mpdu, out: Optional[List] = None) -> List:
        if out is None:
            out = []
        seq = mpdu.seq
        if seq == self.next_expected and not self._reorder:
            self.next_expected = seq + 1
            out.append(mpdu)
            return out
        if seq < self.next_expected:
            out.append(mpdu)
            return out
        self._reorder[mpdu.seq] = mpdu
        while self.next_expected in self._reorder:
            out.append(self._reorder.pop(self.next_expected))
            self.next_expected += 1
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
        return frozenset(self._seen.intersection(
            range(start, start + self.window)))

    def has_seen(self, seq: int) -> bool:
        return seq in self._seen

    def accept(self, mpdus, out: List) -> int:
        """What ``DcfMac._receive_data`` did per A-MPDU with this
        class: record each MPDU, insert the new ones; the lowest
        sequence number is the Block ACK's start."""
        for mpdu in mpdus:
            if self.record(mpdu):
                self.insert(mpdu, out)
        return min(mpdu.seq for mpdu in mpdus)
