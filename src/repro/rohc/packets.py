"""Wire format of compressed TCP ACKs (the bytes HACK appends to LL ACKs).

A **HACK frame** is what rides on one LL ACK / Block ACK::

    [count u8][first_msn u8][entry 0][entry 1]...[entry count-1]

The first entry's master sequence number (MSN) is carried as a full
8-bit LSB field (the paper's §3.4 widening, because an A-MPDU can carry
64 packets' worth of retained ACKs); subsequent entries carry a 4-bit
MSN residue that must match the implicit ``first + i`` progression.

Each **entry** compresses one pure TCP ACK:

    byte0 (ctrl):  bits 7-6 ack_mode   0 = stride repeat (ack += previous
                                           inter-ACK delta; the paper's
                                           "constant payload" 3-byte case)
                                       1 = new u8 delta
                                       2 = new u16 delta
                                       3 = absolute rebase entry
                   bits 5-4 ts_mode    0 = both timestamps unchanged
                                       1 = zigzag u8 deltas
                                       2 = zigzag u16 deltas
                                       3 = (with ack_mode 3) absolutes
                   bit 3    same_cid   previous compressed ACK's CID applies
                   bits 2-0 crc3       ROHC CRC-3 over the reconstructed
                                       dynamic fields
    byte1:         bits 7-4 msn residue (low nibble of this entry's MSN)
                   bit 3    wnd_present (zigzag u16 rwnd delta follows)
                   bit 2    sack_present
                   bits 1-0 reserved (0)
    [cid u8]                     if not same_cid
    [ack bytes]                  per ack_mode (mode 3: ack u32, seq u32,
                                 wnd u16)
    [ts bytes]                   per ts_mode (mode 3 with ack_mode 3:
                                 ts_val u32, ts_ecr u32)
    [wnd zigzag u16]             if wnd_present and ack_mode != 3
    [sack: u8 n, then n x (u32 start, u32 end)]   if sack_present

A typical steady-state ACK (constant stride, unchanged ms-granularity
timestamps, same flow) costs 2 bytes, a changing one 3-5 — bracketing
the paper's "about 4 bytes, or even 3" (§3.3.2).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .context import DynamicState
from .crc import crc3_u64x5

ACK_STRIDE, ACK_D8, ACK_D16, ACK_ABSOLUTE = 0, 1, 2, 3
TS_UNCHANGED, TS_D8, TS_D16, TS_ABSOLUTE = 0, 1, 2, 3


def zigzag(n: int) -> int:
    """Map a signed int to an unsigned one (0, -1, 1, -2, ... order)."""
    return (n << 1) if n >= 0 else ((-n) << 1) - 1


def unzigzag(z: int) -> int:
    return (z >> 1) if z % 2 == 0 else -((z + 1) >> 1)


class CompressedAck:
    """One compressed ACK, serialised once at compression time."""

    __slots__ = ("msn", "cid", "data", "segment", "sent_once")

    def __init__(self, msn: int, cid: int, data: bytes,
                 segment: object = None, sent_once: bool = False):
        self.msn = msn
        self.cid = cid
        self.data = data
        #: The original segment (kept so vanilla fallback can resend it).
        self.segment = segment
        self.sent_once = sent_once


class EncodingError(ValueError):
    """The segment cannot be expressed in the requested mode."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_entry(state: DynamicState, segment, cid: int, same_cid: bool,
                 msn: int, force_absolute: bool = False
                 ) -> Tuple[bytes, DynamicState]:
    """Serialise one pure ACK against ``state``; returns (bytes,
    new_state).  ``state`` is not mutated."""
    if segment.payload_bytes != 0:
        raise EncodingError("only pure ACKs are compressible")
    d_ack = segment.ack - state.ack
    d_tv = segment.ts_val - state.ts_val
    d_te = segment.ts_ecr - state.ts_ecr
    d_wnd = segment.rwnd - state.rwnd

    # A backwards cumulative ACK (duplicate of an older ACK after a
    # vanilla/compressed interleaving) cannot be delta-encoded.
    absolute = (force_absolute or d_ack < 0 or d_ack > 0xFFFF
                or segment.seq != state.seq
                or not -0x4000 <= d_wnd <= 0x3FFF
                or not -0x4000 <= d_tv <= 0x3FFF
                or not -0x4000 <= d_te <= 0x3FFF
                or segment.ack >= 1 << 32
                or segment.ts_val >= 1 << 32
                or segment.ts_ecr >= 1 << 32)

    new_state = DynamicState(
        segment.ack, 0 if absolute else d_ack, segment.ts_val,
        segment.ts_ecr, segment.rwnd, segment.seq)
    # The CRC-3 of new_state.crc_input(), fields in that order.
    crc = crc3_u64x5(segment.ack, segment.ts_val, segment.ts_ecr,
                     segment.rwnd, segment.seq)

    # The entry is assembled into one bytearray: two header bytes are
    # reserved up front and patched once the modes are known, avoiding
    # the historical body-then-concatenate copy per ACK.
    sack = segment.sack_blocks
    out = bytearray(2)
    if not same_cid:
        out.append(cid & 0xFF)
    if absolute:
        ack_mode, ts_mode = ACK_ABSOLUTE, TS_ABSOLUTE
        wnd_present = False
        out += segment.ack.to_bytes(4, "big")
        out += segment.seq.to_bytes(4, "big")
        out += segment.rwnd.to_bytes(4, "big")
        out += segment.ts_val.to_bytes(4, "big")
        out += segment.ts_ecr.to_bytes(4, "big")
    else:
        if d_ack == state.ack_delta:
            ack_mode = ACK_STRIDE
            new_state.ack_delta = state.ack_delta
        elif d_ack <= 0xFF:
            ack_mode = ACK_D8
            out.append(d_ack)
            new_state.ack_delta = d_ack
        else:
            ack_mode = ACK_D16
            out.append(d_ack >> 8)
            out.append(d_ack & 0xFF)
            new_state.ack_delta = d_ack
        if d_tv == 0 and d_te == 0:
            ts_mode = TS_UNCHANGED
        else:
            z_tv, z_te = zigzag(d_tv), zigzag(d_te)
            if z_tv <= 0xFF and z_te <= 0xFF:
                ts_mode = TS_D8
                out.append(z_tv)
                out.append(z_te)
            else:
                ts_mode = TS_D16
                out += z_tv.to_bytes(2, "big")
                out += z_te.to_bytes(2, "big")
        wnd_present = d_wnd != 0
        if wnd_present:
            out += zigzag(d_wnd).to_bytes(2, "big")

    if sack:
        out.append(len(sack))
        for start, end in sack:
            out += start.to_bytes(4, "big")
            out += end.to_bytes(4, "big")

    out[0] = (ack_mode << 6) | (ts_mode << 4) | \
        ((1 if same_cid else 0) << 3) | crc
    out[1] = ((msn & 0xF) << 4) | ((1 if wnd_present else 0) << 3) | \
        ((1 if sack else 0) << 2)
    return bytes(out), new_state


def encode_update(state: DynamicState, segment, cid: int, same_cid: bool,
                  msn: int, force_absolute: bool = False) -> bytes:
    """:func:`encode_entry`'s bytes, with the new state it returns
    written into ``state`` instead of a fresh object.

    A compressor encodes every ACK against its context's state and then
    drops the old one, so updating it in place is the same state for
    one allocation less.  The common entry — a delta entry without
    SACK blocks — is assembled here in one list; any other entry (an
    absolute one, SACK blocks, a data segment) is :func:`encode_entry`'s
    own, copied in.  ``tests/rohc/test_packets.py`` holds the two to
    the same bytes and states on random states and segments.
    """
    ack, ts_val, ts_ecr = segment.ack, segment.ts_val, segment.ts_ecr
    rwnd = segment.rwnd
    d_ack = ack - state.ack
    d_tv = ts_val - state.ts_val
    d_te = ts_ecr - state.ts_ecr
    d_wnd = rwnd - state.rwnd
    # encode_entry's tests for an absolute entry, folded: a value is in
    # [0, 2**k) exactly when shifting it right by k leaves 0 (a negative
    # value shifts to -1), and an OR has a bit at k or above, or is
    # negative, exactly when one of its operands does.
    if (force_absolute or segment.payload_bytes != 0
            or segment.sack_blocks or segment.seq != state.seq
            or d_ack >> 16 or ((ack | ts_val | ts_ecr) >> 32)
            or (d_wnd + 0x4000 | d_tv + 0x4000 | d_te + 0x4000) >> 15):
        data, new_state = encode_entry(state, segment, cid, same_cid,
                                       msn, force_absolute)
        state.ack, state.ack_delta = new_state.ack, new_state.ack_delta
        state.ts_val, state.ts_ecr = new_state.ts_val, new_state.ts_ecr
        state.rwnd, state.seq = new_state.rwnd, new_state.seq
        return data
    out = [0, 0] if same_cid else [0, 0, cid & 0xFF]
    if d_ack == state.ack_delta:
        ack_mode = ACK_STRIDE
    elif d_ack <= 0xFF:
        ack_mode = ACK_D8
        out.append(d_ack)
        state.ack_delta = d_ack
    else:
        ack_mode = ACK_D16
        out.append(d_ack >> 8)
        out.append(d_ack & 0xFF)
        state.ack_delta = d_ack
    if d_tv == 0 and d_te == 0:
        ts_mode = TS_UNCHANGED
    else:
        z_tv, z_te = zigzag(d_tv), zigzag(d_te)
        if z_tv <= 0xFF and z_te <= 0xFF:
            ts_mode = TS_D8
            out.append(z_tv)
            out.append(z_te)
        else:
            ts_mode = TS_D16
            out += (z_tv >> 8, z_tv & 0xFF, z_te >> 8, z_te & 0xFF)
    if d_wnd:
        z_wnd = zigzag(d_wnd)
        out.append(z_wnd >> 8)
        out.append(z_wnd & 0xFF)
    # The CRC-3 of the new state's crc_input(), fields in that order.
    out[0] = (ack_mode << 6) | (ts_mode << 4) | (8 if same_cid else 0) \
        | crc3_u64x5(ack, ts_val, ts_ecr, rwnd, segment.seq)
    out[1] = ((msn & 0xF) << 4) | (8 if d_wnd else 0)
    state.ack, state.ts_val, state.ts_ecr, state.rwnd = \
        ack, ts_val, ts_ecr, rwnd
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
class DecodedEntry:
    """Parsed wire entry, not yet applied to a context."""

    __slots__ = ("ack_mode", "ts_mode", "same_cid", "crc",
                 "msn_nibble", "wnd_present", "cid", "d_ack",
                 "abs_ack", "abs_seq", "abs_wnd", "abs_ts_val",
                 "abs_ts_ecr", "d_tv", "d_te", "d_wnd", "sack_blocks",
                 "size")

    def __init__(self, ack_mode: int, ts_mode: int, same_cid: bool,
                 crc: int, msn_nibble: int, wnd_present: bool,
                 cid: Optional[int], d_ack: int = 0, abs_ack: int = 0,
                 abs_seq: int = 0, abs_wnd: int = 0,
                 abs_ts_val: int = 0, abs_ts_ecr: int = 0,
                 d_tv: int = 0, d_te: int = 0, d_wnd: int = 0,
                 sack_blocks: Tuple[Tuple[int, int], ...] = (),
                 size: int = 0):
        self.ack_mode = ack_mode
        self.ts_mode = ts_mode
        self.same_cid = same_cid
        self.crc = crc
        self.msn_nibble = msn_nibble
        self.wnd_present = wnd_present
        self.cid = cid
        self.d_ack = d_ack
        self.abs_ack = abs_ack
        self.abs_seq = abs_seq
        self.abs_wnd = abs_wnd
        self.abs_ts_val = abs_ts_val
        self.abs_ts_ecr = abs_ts_ecr
        self.d_tv = d_tv
        self.d_te = d_te
        self.d_wnd = d_wnd
        self.sack_blocks = sack_blocks
        self.size = size


class ParseError(ValueError):
    """Malformed HACK frame bytes."""


def parse_entry(data: bytes, offset: int) -> DecodedEntry:
    """Parse one entry starting at ``offset`` (structure only)."""
    end = len(data)
    try:
        ctrl = data[offset]
        byte1 = data[offset + 1]
    except IndexError:
        raise ParseError("truncated entry header")
    pos = offset + 2
    ack_mode, ts_mode = (ctrl >> 6) & 0x3, (ctrl >> 4) & 0x3
    same_cid, wnd_present = bool(ctrl & 0x08), bool(byte1 & 0x08)
    cid = None
    d_ack = abs_ack = abs_seq = abs_wnd = abs_ts_val = abs_ts_ecr = 0
    d_tv = d_te = d_wnd = 0
    sack_blocks: Tuple[Tuple[int, int], ...] = ()

    if not same_cid:
        if pos + 1 > end:
            raise ParseError("truncated entry body")
        cid = data[pos]
        pos += 1
    if ack_mode == ACK_ABSOLUTE:
        if pos + 20 > end:
            raise ParseError("truncated entry body")
        abs_ack = int.from_bytes(data[pos:pos + 4], "big")
        abs_seq = int.from_bytes(data[pos + 4:pos + 8], "big")
        abs_wnd = int.from_bytes(data[pos + 8:pos + 12], "big")
        abs_ts_val = int.from_bytes(data[pos + 12:pos + 16], "big")
        abs_ts_ecr = int.from_bytes(data[pos + 16:pos + 20], "big")
        pos += 20
    else:
        if ack_mode == ACK_D8:
            if pos + 1 > end:
                raise ParseError("truncated entry body")
            d_ack = data[pos]
            pos += 1
        elif ack_mode == ACK_D16:
            if pos + 2 > end:
                raise ParseError("truncated entry body")
            d_ack = (data[pos] << 8) | data[pos + 1]
            pos += 2
        if ts_mode == TS_D8:
            if pos + 2 > end:
                raise ParseError("truncated entry body")
            d_tv = unzigzag(data[pos])
            d_te = unzigzag(data[pos + 1])
            pos += 2
        elif ts_mode == TS_D16:
            if pos + 4 > end:
                raise ParseError("truncated entry body")
            d_tv = unzigzag((data[pos] << 8) | data[pos + 1])
            d_te = unzigzag((data[pos + 2] << 8) | data[pos + 3])
            pos += 4
        elif ts_mode == TS_ABSOLUTE:
            raise ParseError("absolute timestamps require ack_mode 3")
        if wnd_present:
            if pos + 2 > end:
                raise ParseError("truncated entry body")
            d_wnd = unzigzag((data[pos] << 8) | data[pos + 1])
            pos += 2
    if byte1 & 0x04:
        if pos + 1 > end:
            raise ParseError("truncated entry body")
        count = data[pos]
        pos += 1
        if pos + 8 * count > end:
            raise ParseError("truncated entry body")
        blocks: List[Tuple[int, int]] = []
        for _ in range(count):
            blocks.append((int.from_bytes(data[pos:pos + 4], "big"),
                           int.from_bytes(data[pos + 4:pos + 8],
                                          "big")))
            pos += 8
        sack_blocks = tuple(blocks)
    return DecodedEntry(
        ack_mode, ts_mode, same_cid, ctrl & 0x07, (byte1 >> 4) & 0xF,
        wnd_present, cid, d_ack, abs_ack, abs_seq, abs_wnd, abs_ts_val,
        abs_ts_ecr, d_tv, d_te, d_wnd, sack_blocks, pos - offset)


def apply_entry(entry: DecodedEntry, state: DynamicState
                ) -> DynamicState:
    """Apply a parsed entry to a context's dynamic state (pure)."""
    if entry.ack_mode == ACK_ABSOLUTE:
        return DynamicState(entry.abs_ack, 0, entry.abs_ts_val,
                            entry.abs_ts_ecr, entry.abs_wnd,
                            entry.abs_seq)
    if entry.ack_mode == ACK_STRIDE:
        d_ack, new_stride = state.ack_delta, state.ack_delta
    else:
        d_ack, new_stride = entry.d_ack, entry.d_ack
    return DynamicState(
        state.ack + d_ack, new_stride, state.ts_val + entry.d_tv,
        state.ts_ecr + entry.d_te, state.rwnd + entry.d_wnd, state.seq)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def build_frame(entries: List[CompressedAck]) -> bytes:
    """Concatenate compressed ACKs into one HACK frame."""
    if not entries:
        raise ValueError("empty HACK frame")
    if len(entries) > 255:
        raise ValueError("HACK frame limited to 255 entries")
    first = entries[0].msn
    for i, entry in enumerate(entries):
        if entry.msn != first + i:
            raise ValueError("HACK frame entries must have consecutive "
                             f"MSNs (got {entry.msn}, expected "
                             f"{first + i})")
    out = bytearray([len(entries), first & 0xFF])
    for entry in entries:
        out += entry.data
    return bytes(out)


def parse_frame(data: bytes) -> Tuple[int, List[DecodedEntry]]:
    """Parse a HACK frame into (first_msn_lsb8, entries)."""
    if len(data) < 2:
        raise ParseError("frame too short")
    count = data[0]
    first_msn8 = data[1]
    entries: List[DecodedEntry] = []
    pos = 2
    for _ in range(count):
        entry = parse_entry(data, pos)
        entries.append(entry)
        pos += entry.size
    if pos != len(data):
        raise ParseError("trailing bytes after last entry")
    return first_msn8, entries
