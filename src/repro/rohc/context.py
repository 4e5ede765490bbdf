"""ROHC contexts and CID derivation.

A context caches the static TCP/IP fields of one flow (the 5-tuple and
friends) plus the reference values of the dynamic fields from which
deltas are encoded.  Per the paper's TCP/HACK-specific optimisations
(§3.3.2):

* No Initialize-Refresh packets: contexts are created at both endpoints
  by observing *uncompressed* (vanilla) TCP ACKs for the flow.
* CIDs are computed independently at each endpoint as the lowest byte
  of the MD5 hash over the flow's 5-tuple — no CID negotiation.

CID collisions (two flows hashing to the same byte) are possible by
construction; the compressor detects them and simply declines to
compress the newer flow, which degrades gracefully to vanilla ACKs.

Hot-path notes: CID derivation runs per ACK (the compressor looks its
context up by CID on every send), so the MD5 is memoised per 5-tuple
key; :class:`DynamicState` is a ``__slots__`` class because one is
allocated per encoded/decoded entry (built positionally there), and
its reference CRC input is serialised with one ``struct.pack`` call
(byte-identical to the historical ``b"".join`` of five 8-byte
big-endian fields).
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Tuple

from ..tcp.segment import FiveTuple, TcpSegment

_U64 = 2**64 - 1
_CRC_PACK = struct.Struct(">QQQQQ").pack


@lru_cache(maxsize=65_536)
def cid_for_key(key: Tuple[str, str, int, int]) -> int:
    """CID from a raw 5-tuple key (see :func:`cid_for_flow`)."""
    text = "tcp|%s|%s|%d|%d" % key
    digest = hashlib.md5(text.encode("ascii")).digest()
    return digest[0]


def cid_for_flow(five_tuple: FiveTuple) -> int:
    """Lowest byte of MD5 over the 5-tuple (paper §3.3.2, item 2)."""
    return cid_for_key(five_tuple.key())


class DynamicState:
    """Reference values for delta encoding (shared shape at both ends)."""

    __slots__ = ("ack", "ack_delta", "ts_val", "ts_ecr", "rwnd", "seq")

    def __init__(self, ack: int = 0, ack_delta: int = 0,
                 ts_val: int = 0, ts_ecr: int = 0, rwnd: int = 0,
                 seq: int = 0):
        self.ack = ack
        #: Previous inter-ACK stride (delta-of-delta reference).
        self.ack_delta = ack_delta
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.rwnd = rwnd
        self.seq = seq

    def crc_input(self) -> bytes:
        """Canonical serialisation of the reconstructed dynamic header
        fields, over which the per-packet CRC-3 is computed (the codec
        gets the same CRC from :func:`~repro.rohc.crc.crc3_u64x5`
        without building these bytes; this is the reference)."""
        return _CRC_PACK(self.ack & _U64, self.ts_val & _U64,
                         self.ts_ecr & _U64, self.rwnd & _U64,
                         self.seq & _U64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynamicState(ack={self.ack}, "
                f"ack_delta={self.ack_delta}, ts_val={self.ts_val}, "
                f"ts_ecr={self.ts_ecr}, rwnd={self.rwnd}, "
                f"seq={self.seq})")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DynamicState) and (
            self.ack == other.ack
            and self.ack_delta == other.ack_delta
            and self.ts_val == other.ts_val
            and self.ts_ecr == other.ts_ecr
            and self.rwnd == other.rwnd
            and self.seq == other.seq)


class CompressorContext:
    """Transmit-side per-flow state."""

    __slots__ = ("cid", "five_tuple", "flow_id", "src", "dst", "state",
                 "vanilla_seen", "rebase_needed")

    def __init__(self, cid: int, five_tuple: FiveTuple, flow_id: int,
                 src: str, dst: str):
        self.cid = cid
        self.five_tuple = five_tuple
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.state = DynamicState()
        #: Vanilla ACKs observed so far (context considered established
        #: after ``init_threshold`` of them have been sent normally).
        self.vanilla_seen = 0
        #: Set when delta references may not match the decompressor
        #: (after an unconfirmed flush, or after vanilla ACKs advanced
        #: the state): forces the next compressed ACK to be absolute.
        self.rebase_needed = True

    def note_vanilla(self, segment: TcpSegment) -> None:
        self.vanilla_seen += 1
        state = self.state
        state.ack = segment.ack
        state.ack_delta = 0
        state.ts_val = segment.ts_val
        state.ts_ecr = segment.ts_ecr
        state.rwnd = segment.rwnd
        state.seq = segment.seq
        self.rebase_needed = True


class DecompressorContext:
    """Receive-side per-CID state."""

    __slots__ = ("cid", "five_tuple", "flow_id", "src", "dst", "state")

    def __init__(self, cid: int, five_tuple: FiveTuple, flow_id: int,
                 src: str, dst: str):
        self.cid = cid
        self.five_tuple = five_tuple
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.state = DynamicState()

    def note_vanilla(self, segment: TcpSegment) -> bool:
        """Re-anchor the reference state on ``segment``; False when the
        segment was stale and changed nothing."""
        # Monotone guard: link-layer retries can reorder vanilla ACKs
        # behind newer compressed ones; a stale ACK must not regress
        # the reference state the compressor has already moved past.
        # Duplicate ACKs share the cumulative ACK number, so the tie
        # is broken by the (monotone per-host) timestamp.
        state = self.state
        if (segment.ack, segment.ts_val) < (state.ack, state.ts_val):
            return False
        state.ack = segment.ack
        state.ack_delta = 0
        state.ts_val = segment.ts_val
        state.ts_ecr = segment.ts_ecr
        state.rwnd = segment.rwnd
        state.seq = segment.seq
        return True
