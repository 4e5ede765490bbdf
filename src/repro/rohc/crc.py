"""CRC functions used by the ROHC profile (RFC 5795 §5.3.1.1).

ROHC defines 3-, 7- and 8-bit CRCs over the uncompressed header to
detect decompressor context damage.  TCP/HACK uses the 3-bit CRC in
each compressed ACK's control byte (it is what lets the paper claim
"no decompression CRC failures" under loss); the 7/8-bit variants are
provided for completeness and used in tests.

The public functions are **table-driven** (one 256-entry table per
width, folded bytewise): CRC-3 runs once per compressed ACK on both
ends of the link, and the historical bit-by-bit fold was the single
hottest function in the HACK data plane (~18% of a 4-client cell's
wall time).  For a reflected CRC of width <= 8 the bytewise recurrence
collapses to ``crc = table[crc ^ byte]``, which is bit-identical to
the bitwise fold — ``_crc_bitwise`` is retained as the executable
reference the equivalence tests check the tables against.

The codec's own CRC input is always the same shape — five u64 fields,
40 bytes, most of them zero — so :func:`crc3_u64x5` skips both the
serialisation and the zero bytes: the bytewise table is linear over
GF(2) (``table[a ^ b] == table[a] ^ table[b]``), hence the CRC of the
40 bytes is the CRC of 40 zero bytes XOR one per-position table entry
for every non-zero byte.  ``crc3(DynamicState.crc_input())`` stays the
reference it is property-tested against.
"""

from __future__ import annotations

from typing import List, Tuple

#: Polynomials from RFC 5795: C(x) listed LSB-first as used there.
CRC3_POLY = 0x6   # x^3 + x + 1
CRC7_POLY = 0x79  # x^7 + x^6 + x^5 + x^4 + x^3 + x + 1 (bit-reversed)
CRC8_POLY = 0xE0  # x^8 + x^2 + x + 1 (bit-reversed)


def _crc_bitwise(data: bytes, width: int, poly: int, init: int) -> int:
    """Reflected (LSB-first) CRC as specified for ROHC.

    Every input bit is folded in LSB-first; ``poly`` is the
    bit-reversed generator polynomial.  Reference implementation — the
    tables below must (and are tested to) agree with it exactly.
    """
    crc = init
    mask = (1 << width) - 1
    for byte in data:
        for i in range(8):
            bit = (byte >> i) & 1
            if (crc ^ bit) & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
    return crc & mask


def _make_table(width: int, poly: int) -> List[int]:
    """256-entry bytewise table: entry b is the CRC state after folding
    byte ``b`` into a zero state (for width <= 8 the previous state is
    XORed into the index)."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc & ((1 << width) - 1))
    return table


_CRC3_TABLE = _make_table(3, CRC3_POLY)
_CRC7_TABLE = _make_table(7, CRC7_POLY)
_CRC8_TABLE = _make_table(8, CRC8_POLY)


def crc3(data: bytes) -> int:
    """ROHC CRC-3 (returns 0..7)."""
    crc = 0x7
    table = _CRC3_TABLE
    for byte in data:
        crc = table[crc ^ byte]
    return crc


def crc7(data: bytes) -> int:
    """ROHC CRC-7 (returns 0..127)."""
    crc = 0x7F
    table = _CRC7_TABLE
    for byte in data:
        crc = table[crc ^ byte]
    return crc


def crc8(data: bytes) -> int:
    """ROHC CRC-8 (returns 0..255)."""
    crc = 0xFF
    table = _CRC8_TABLE
    for byte in data:
        crc = table[crc ^ byte]
    return crc


def _make_position_tables(table: List[int], init: int, length: int
                          ) -> Tuple[List[List[int]], int]:
    """Per-position tables for ``length``-byte inputs of a width <= 8
    reflected CRC: ``tables[p][b]`` is what byte ``b`` at offset ``p``
    contributes to the final state, and the second result is the CRC
    of ``length`` zero bytes.  A byte's contribution passes through one
    more zero-byte step (``table[state]``) for every byte after it, so
    each table is built from the next one: ``length * 256`` lookups."""
    tables = [table] * length
    for position in range(length - 2, -1, -1):
        tables[position] = [table[entry]
                            for entry in tables[position + 1]]
    zeros = init
    for _ in range(length):
        zeros = table[zeros]
    return tables, zeros


_CRC3_AT, _CRC3_ZEROS = _make_position_tables(_CRC3_TABLE, 0x7, 40)
_U64 = 2**64 - 1


def crc3_u64x5(a: int, b: int, c: int, d: int, e: int) -> int:
    """``crc3(struct.pack(">QQQQQ", a, b, c, d, e))`` with every value
    taken modulo 2**64, without building the bytes.

    Values in ``[0, 2**32)`` — every field of a TCP ACK the codec
    compresses — have only their four low bytes non-zero, and a zero
    byte contributes nothing (``tables[p][0] == 0``): their CRC is the
    zero-input CRC XOR at most twenty fixed lookups, written out, with
    the ones of bytes that are zero in most ACKs skipped.  Anything
    else takes :func:`_crc3_u64x5_bytewise`, the byte-by-byte fold the
    property tests hold both to."""
    if 0 <= a | b | c | d | e < 0x1_0000_0000:
        t = _CRC3_AT
        crc = (_CRC3_ZEROS
               ^ t[7][a & 255] ^ t[6][a >> 8 & 255]
               ^ t[5][a >> 16 & 255] ^ t[4][a >> 24]
               ^ t[15][b & 255] ^ t[14][b >> 8 & 255]
               ^ t[23][c & 255] ^ t[22][c >> 8 & 255]
               ^ t[31][d & 255] ^ t[30][d >> 8 & 255]
               ^ t[29][d >> 16 & 255] ^ t[28][d >> 24])
        # Millisecond timestamps rarely pass 16 bits, and a pure ACK's
        # sequence number is 0.
        if (b | c) >> 16:
            crc ^= (t[13][b >> 16 & 255] ^ t[12][b >> 24]
                    ^ t[21][c >> 16 & 255] ^ t[20][c >> 24])
        if e:
            crc ^= (t[39][e & 255] ^ t[38][e >> 8 & 255]
                    ^ t[37][e >> 16 & 255] ^ t[36][e >> 24])
        return crc
    return _crc3_u64x5_bytewise(a, b, c, d, e)


def _crc3_u64x5_bytewise(a: int, b: int, c: int, d: int, e: int
                         ) -> int:
    """:func:`crc3_u64x5` for any values: one table lookup per byte up
    to each value's highest non-zero one."""
    crc = _CRC3_ZEROS
    tables = _CRC3_AT
    lowest = 7  # offset of the first value's least significant byte
    for value in (a, b, c, d, e):
        value &= _U64
        position = lowest
        while value:
            crc ^= tables[position][value & 0xFF]
            value >>= 8
            position -= 1
        lowest += 8
    return crc
