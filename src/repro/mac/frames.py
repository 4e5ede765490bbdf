"""MAC frame types.

MPDU sequence numbers are monotonically increasing integers rather than
mod-4096 counters: wraparound is a wire-representation detail that has
no timing consequence, and monotone sequence numbers make window logic
and duplicate detection transparent.  This departs from 802.11's
12-bit sequence field on purpose; no airtime or delivery decision
reads the difference.

``hack_payload`` on ACK / Block ACK frames is the serialised compressed
TCP ACK frame (bytes) that TCP/HACK appends; its length lengthens the
control frame's airtime exactly as in the paper.

Performance notes (these classes are the per-event hot path):

* Everything here is a ``__slots__`` class, not a dataclass — frames
  are created at MPDU/transmission rate and attribute storage is the
  dominant cost.
* **Geometry is cached at construction.**  ``byte_length`` used to be
  a property re-summing subframe bytes on every access, and it is
  queried by aggregation, the medium, the tracer and DCF duration
  arithmetic; it is now computed exactly once.  The invariants that
  make this sound: an ``Mpdu``'s payload is immutable once wrapped, an
  ``AmpduFrame``'s MPDU tuple is fixed at construction, and the only
  late-bound length contributor — ``hack_payload`` on ACK/Block ACK —
  is a managed property whose setter re-derives the cached length
  (mutation *invalidates correctly* instead of being silently stale).
* Frame ids are allocated by the caller (``DcfMac`` draws them from
  its Simulator's counter, so ids are per-run deterministic —
  identical runs produce identical ids regardless of what else the
  process executed).  Constructing an ``Mpdu`` without an explicit id
  falls back to a module counter, which only direct unit-test
  construction uses.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

from .params import ACK_BYTES, BAR_BYTES, BLOCK_ACK_BYTES, \
    MAC_DATA_OVERHEAD, mpdu_subframe_bytes

#: Fallback allocator for Mpdus constructed without an explicit
#: frame_id (unit tests); simulation paths pass per-Simulator ids.
_frame_ids = itertools.count(1)


class Mpdu:
    """One MAC data frame (carrying an IP packet or probe payload)."""

    __slots__ = ("src", "dst", "seq", "payload", "more_data", "sync",
                 "retry_count", "enqueued_at", "frame_id",
                 "byte_length")

    def __init__(self, src: Any, dst: Any, seq: int, payload: Any,
                 more_data: bool = False, sync: bool = False,
                 retry_count: int = 0, enqueued_at: int = 0,
                 frame_id: Optional[int] = None):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload = payload
        self.more_data = more_data
        self.sync = sync
        self.retry_count = retry_count
        self.enqueued_at = enqueued_at
        self.frame_id = next(_frame_ids) if frame_id is None else \
            frame_id
        #: Cached: payloads are immutable once wrapped (retry_count /
        #: flag mutations never change the frame's length).
        self.byte_length = MAC_DATA_OVERHEAD + payload.byte_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(c for c, on in (("M", self.more_data),
                                        ("S", self.sync),
                                        ("R", self.retry_count > 0)) if on)
        return f"<Mpdu #{self.seq} {self.src}->{self.dst} {flags}>"


class DataFrame:
    """A PPDU carrying a single MPDU (802.11a-style operation)."""

    __slots__ = ("mpdu", "rate_mbps", "is_control", "byte_length")

    def __init__(self, mpdu: Mpdu, rate_mbps: float,
                 is_control: bool = False):
        self.mpdu = mpdu
        self.rate_mbps = rate_mbps
        self.is_control = is_control
        self.byte_length = mpdu.byte_length

    @property
    def src(self) -> Any:
        return self.mpdu.src

    @property
    def dst(self) -> Any:
        return self.mpdu.dst

    @property
    def mpdus(self) -> List[Mpdu]:
        return [self.mpdu]

    @property
    def more_data(self) -> bool:
        return self.mpdu.more_data

    @property
    def sync(self) -> bool:
        return self.mpdu.sync


class AmpduFrame:
    """A PPDU aggregating several MPDUs to one receiver (802.11n)."""

    __slots__ = ("mpdus", "rate_mbps", "is_control", "byte_length",
                 "src", "dst")

    def __init__(self, mpdus, rate_mbps: float,
                 is_control: bool = False):
        mpdus = tuple(mpdus)
        if not mpdus:
            raise ValueError("A-MPDU must contain at least one MPDU")
        first_dst = mpdus[0].dst
        for m in mpdus:
            if m.dst != first_dst:
                raise ValueError(
                    "all MPDUs in an A-MPDU share one receiver")
        #: Immutable after construction (a tuple): the cached aggregate
        #: length below can never go stale.
        self.mpdus = mpdus
        self.rate_mbps = rate_mbps
        self.is_control = is_control
        self.byte_length = sum(
            mpdu_subframe_bytes(m.byte_length) for m in mpdus)
        self.src = mpdus[0].src
        self.dst = first_dst

    @classmethod
    def of_batch(cls, mpdus: Tuple[Mpdu, ...], byte_length: int,
                 rate_mbps: float) -> "AmpduFrame":
        """The A-MPDU of a batch :func:`~repro.mac.aggregation.
        drain_batch` built: one receiver by construction, and the
        length it summed while building (each MPDU's subframe bytes),
        so neither is walked again."""
        frame = cls.__new__(cls)
        frame.mpdus = mpdus
        frame.rate_mbps = rate_mbps
        frame.is_control = False
        frame.byte_length = byte_length
        frame.src = mpdus[0].src
        frame.dst = mpdus[0].dst
        return frame

    @property
    def more_data(self) -> bool:
        return any(m.more_data for m in self.mpdus)

    @property
    def sync(self) -> bool:
        return any(m.sync for m in self.mpdus)


class _HackCarrier:
    """Shared machinery for control frames that may carry a HACK
    payload: ``hack_payload`` is a managed property so assigning a new
    payload after construction re-derives the cached ``byte_length``
    instead of leaving it stale."""

    __slots__ = ()
    _STOCK_BYTES = 0

    @property
    def hack_payload(self) -> Optional[bytes]:
        return self._hack_payload

    @hack_payload.setter
    def hack_payload(self, payload: Optional[bytes]) -> None:
        self._hack_payload = payload
        self.byte_length = self._STOCK_BYTES + \
            (len(payload) if payload else 0)


class AckFrame(_HackCarrier):
    """Single link-layer ACK; may carry a HACK compressed-ACK payload."""

    __slots__ = ("src", "dst", "acked_seq", "_hack_payload",
                 "rate_mbps", "is_control", "byte_length")
    _STOCK_BYTES = ACK_BYTES

    def __init__(self, src: Any, dst: Any, acked_seq: int,
                 hack_payload: Optional[bytes] = None,
                 rate_mbps: float = 24.0, is_control: bool = True):
        self.src = src
        self.dst = dst
        self.acked_seq = acked_seq
        self.rate_mbps = rate_mbps
        self.is_control = is_control
        self.hack_payload = hack_payload   # setter caches byte_length


class BlockAckFrame(_HackCarrier):
    """Block ACK reporting per-MPDU reception; may carry HACK payload."""

    __slots__ = ("src", "dst", "win_start", "acked_seqs",
                 "_hack_payload", "rate_mbps", "is_control",
                 "byte_length")
    _STOCK_BYTES = BLOCK_ACK_BYTES

    def __init__(self, src: Any, dst: Any, win_start: int,
                 acked_seqs: frozenset,
                 hack_payload: Optional[bytes] = None,
                 rate_mbps: float = 24.0, is_control: bool = True):
        self.src = src
        self.dst = dst
        self.win_start = win_start
        self.acked_seqs = acked_seqs
        self.rate_mbps = rate_mbps
        self.is_control = is_control
        self.hack_payload = hack_payload   # setter caches byte_length


class BarFrame:
    """Block ACK Request: solicits a Block ACK after one was lost."""

    __slots__ = ("src", "dst", "win_start", "rate_mbps", "is_control",
                 "byte_length")

    def __init__(self, src: Any, dst: Any, win_start: int,
                 rate_mbps: float = 24.0, is_control: bool = True):
        self.src = src
        self.dst = dst
        self.win_start = win_start
        self.rate_mbps = rate_mbps
        self.is_control = is_control
        self.byte_length = BAR_BYTES
