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
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..phy.params import PhyParams
from .blockack import BlockAckOriginator
from .frames import Mpdu
from .params import MAC_DATA_OVERHEAD, MacParams, mpdu_subframe_bytes
from .qdisc import DropTailQueue


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


def _take_retries(originator: BlockAckOriginator, params: MacParams,
                  byte_budget: int) -> Tuple[List[Mpdu], int]:
    """The retried MPDUs that open a batch (they carry the oldest
    sequence numbers), and their A-MPDU bytes."""
    batch: List[Mpdu] = []
    total_bytes = 0
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
    return batch, total_bytes


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
    window_limit = originator.window_limit
    byte_budget = ampdu_byte_budget(phy, rate_mbps, params.txop_limit_ns,
                                    params.ampdu_max_bytes)
    batch, total_bytes = _take_retries(originator, params, byte_budget)

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


def drain_batch(originator: BlockAckOriginator, queue: DropTailQueue,
                src: Any, dst: Any, sim: Any, params: MacParams,
                phy: PhyParams, rate_mbps: float
                ) -> Tuple[List[Mpdu], int]:
    """:func:`build_batch` for a drop-tail queue, with ``make_mpdu``
    wrapping a payload as ``Mpdu(src, dst, seq, payload, enqueued_at=
    sim.now, frame_id=sim.new_frame_id())``; also returns the A-MPDU's
    length.

    Equivalence: a drop-tail queue's head neither changes nor drops
    anything between a peek and a pop, so the payloads ``build_batch``
    pops are exactly the longest prefix of the queue that passes its
    three tests — fewer than ``window_limit - next_seq`` and than the
    MPDU cap less the retries, and within the byte budget.  This finds
    that prefix in one pass over the queue, takes it with
    :meth:`DropTailQueue.take` (the same sojourns, folded in the same
    order), and numbers it from ``next_seq`` up with a block of frame
    ids, as ``allocate_seq`` and ``new_frame_id`` would one MPDU at a
    time.  ``tests/mac/test_aggregation.py`` holds it to
    ``build_batch`` on random queues, windows and budgets.
    """
    window_limit = originator.window_limit
    byte_budget = ampdu_byte_budget(phy, rate_mbps, params.txop_limit_ns,
                                    params.ampdu_max_bytes)
    batch, total_bytes = _take_retries(originator, params, byte_budget)
    room = min(window_limit - originator.next_seq,
               params.ampdu_max_mpdus - len(batch))
    count = 0
    if room > 0:
        for payload in queue:
            sub = mpdu_subframe_bytes(
                MAC_DATA_OVERHEAD + payload.byte_length)
            if total_bytes + sub > byte_budget:
                break
            total_bytes += sub
            count += 1
            if count == room:
                break
    if count:
        now, first = sim.now, originator.next_seq
        originator.next_seq = first + count
        batch += [Mpdu(src, dst, seq, payload, False, False, 0, now,
                       frame_id)
                  for seq, payload, frame_id in zip(
                      range(first, first + count), queue.take(count),
                      sim.new_frame_ids(count))]
    return batch, total_bytes


def max_mpdus_for_txop(mpdu_bytes: int, params: MacParams,
                       phy: PhyParams, rate_mbps: float) -> int:
    """How many equal-size MPDUs fit one A-MPDU under all bounds.

    Used by the analytical capacity model (Fig 1) and tests.
    """
    sub = mpdu_subframe_bytes(mpdu_bytes)
    byte_budget = ampdu_byte_budget(phy, rate_mbps, params.txop_limit_ns,
                                    params.ampdu_max_bytes)
    return max(1, min(params.ampdu_max_mpdus, byte_budget // sub))
