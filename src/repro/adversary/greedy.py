"""CW-cheating greedy station (MAC-layer selfishness).

The classic 802.11 misbehaviour: a station that draws its random
backoff from a smaller contention window than the standard mandates
wins a disproportionate share of medium acquisitions.  ``GreedyDcfMac``
is a drop-in :class:`~repro.mac.dcf.DcfMac` subclass that overrides
the ``_current_cw`` hook — the *draw* is cheated, so the cheater still
pays DIFS/EIFS and still doubles its nominal window on losses (it
cheats the lottery, it does not skip the queue), which is exactly how
firmware-level CW cheats behave.
"""

from __future__ import annotations

from ..mac.dcf import DcfMac

#: How many stations cheat: the first client of global cell 0.
GREEDY_STATIONS = 1


class GreedyDcfMac(DcfMac):
    """A `DcfMac` that draws backoff from a shrunken window.

    ``cheat`` in [0, 1] scales the effective contention window to
    ``int(cw * (1 - cheat))``: 0.0 is an honest station, 1.0 always
    draws zero backoff slots.  ``cheated_draws`` counts the draws
    where the shrink actually changed the window bound.
    """

    def __init__(self, *args, cheat: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        self._cheat = min(1.0, max(0.0, cheat))
        self.cheated_draws = 0

    def _current_cw(self) -> int:
        honest = super()._current_cw()
        shrunk = int(honest * (1.0 - self._cheat))
        if shrunk != honest:
            self.cheated_draws += 1
        return shrunk
