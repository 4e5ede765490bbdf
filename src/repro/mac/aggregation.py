"""A-MPDU batch construction.

A batch is bounded by four limits, all from 802.11n / the paper:

* 65 535-byte maximum A-MPDU length (the "64 KByte A-MPDU bound"),
* 64 MPDUs (the Block ACK window),
* the EDCA TXOP airtime limit (4 ms in the paper's experiments, which
  caps batch size at the lower PHY rates — Fig 11's observation), and
* the originator window: no MPDU with seq >= window_start + 64 may be
  sent while older MPDUs are unresolved.

Retried MPDUs (lowest sequence numbers) are always placed first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Deque, List, Optional

from ..phy.params import PhyParams
from .blockack import BlockAckOriginator
from .frames import Mpdu
from .params import MAC_DATA_OVERHEAD, MacParams, mpdu_subframe_bytes


@lru_cache(maxsize=None)
def ampdu_byte_budget(phy: PhyParams, rate_mbps: float,
                      txop_limit_ns: Optional[int],
                      max_bytes: int) -> int:
    """Largest A-MPDU length within ``max_bytes`` whose PPDU at
    ``rate_mbps`` also fits the TXOP limit (-1: not even an empty one).

    Airtime never shrinks as bytes are added, so the per-MPDU airtime
    test is a comparison against this one number, found by bisection
    over :meth:`PhyParams.frame_duration_ns` once per distinct input.
    """
    if (txop_limit_ns is None
            or phy.frame_duration_ns(max_bytes, rate_mbps) <= txop_limit_ns):
        return max_bytes
    fits, too_long = -1, max_bytes
    while too_long - fits > 1:
        middle = (fits + too_long) // 2
        if phy.frame_duration_ns(middle, rate_mbps) <= txop_limit_ns:
            fits = middle
        else:
            too_long = middle
    return fits


def build_batch(originator: BlockAckOriginator,
                new_queue: Deque,
                make_mpdu: Callable[[object, int], Mpdu],
                params: MacParams,
                phy: PhyParams,
                rate_mbps: float) -> List[Mpdu]:
    """Drain retries + fresh payloads into one A-MPDU worth of MPDUs.

    ``new_queue`` holds higher-layer payloads not yet assigned MPDUs;
    ``make_mpdu(payload, seq)`` wraps one into an MPDU.  The queue is
    consumed only for payloads that fit this batch.
    """
    batch: List[Mpdu] = []
    total_bytes = 0
    window_limit = originator.window_limit
    byte_budget = ampdu_byte_budget(phy, rate_mbps, params.txop_limit_ns,
                                    params.ampdu_max_bytes)

    # Retries first (they carry the oldest sequence numbers).
    while originator.retry_queue:
        mpdu = originator.retry_queue[0]
        sub = mpdu_subframe_bytes(mpdu.byte_length)
        if len(batch) >= params.ampdu_max_mpdus:
            break
        if total_bytes + sub > byte_budget:
            break
        originator.retry_queue.pop(0)
        batch.append(mpdu)
        total_bytes += sub

    # Then fresh payloads, respecting the originator window.
    while new_queue:
        payload = new_queue[0]
        if originator.next_seq >= window_limit:
            break
        if len(batch) >= params.ampdu_max_mpdus:
            break
        sub = mpdu_subframe_bytes(
            MAC_DATA_OVERHEAD + payload.byte_length)
        if total_bytes + sub > byte_budget:
            break
        new_queue.popleft()
        mpdu = make_mpdu(payload, originator.allocate_seq())
        batch.append(mpdu)
        total_bytes += sub

    return batch


def max_mpdus_for_txop(mpdu_bytes: int, params: MacParams,
                       phy: PhyParams, rate_mbps: float) -> int:
    """How many equal-size MPDUs fit one A-MPDU under all bounds.

    Used by the analytical capacity model (Fig 1) and tests.
    """
    sub = mpdu_subframe_bytes(mpdu_bytes)
    byte_budget = ampdu_byte_budget(phy, rate_mbps, params.txop_limit_ns,
                                    params.ampdu_max_bytes)
    return max(1, min(params.ampdu_max_mpdus, byte_budget // sub))
