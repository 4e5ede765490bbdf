"""Property-based tests for the ROHC subsystem (hypothesis)."""

import struct

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.rohc.compressor import Compressor
from repro.rohc.context import DynamicState
from repro.rohc.crc import _crc3_u64x5_bytewise, crc3, crc3_u64x5, crc8
from repro.rohc.decompressor import Decompressor
from repro.rohc.packets import apply_entry, build_frame, encode_entry, \
    parse_entry, unzigzag, zigzag
from repro.rohc.wlsb import lsb_decode, lsb_encode
from repro.tcp.segment import FiveTuple, TcpSegment

FT = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)


def ack_segment(ack, ts_val, ts_ecr, rwnd, seq=0, sack=()):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=seq,
                      payload_bytes=0, ack=ack, rwnd=rwnd,
                      ts_val=ts_val, ts_ecr=ts_ecr,
                      sack_blocks=sack, five_tuple=FT)


header_values = st.integers(min_value=0, max_value=2**31 - 1)


class TestZigzagProperties:
    @given(st.integers(min_value=-2**40, max_value=2**40))
    def test_roundtrip(self, n):
        assert unzigzag(zigzag(n)) == n

    @given(st.integers(min_value=-2**20, max_value=2**20))
    def test_nonnegative(self, n):
        assert zigzag(n) >= 0


class TestWlsbProperties:
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=64))
    def test_decode_within_window(self, v_ref, k, p):
        # Any non-negative value inside the interpretation interval
        # [v_ref - p, v_ref - p + 2^k - 1] round-trips.
        low = v_ref - p
        high = low + (1 << k) - 1
        candidates = {value for value in (low, (low + high) // 2, high)
                      if low <= value <= high and value >= 0}
        for value in candidates:
            assert lsb_decode(lsb_encode(value, k), k, v_ref,
                              p=p) == value


class TestEntryProperties:
    @settings(max_examples=200)
    @given(prev_ack=header_values, d_ack=st.integers(0, 10**6),
           ts1=st.integers(0, 2**30), dts=st.integers(-1000, 1000),
           rwnd1=st.integers(0, 2**20), drwnd=st.integers(-5000, 5000),
           msn=st.integers(0, 10**6),
           force=st.booleans())
    def test_encode_decode_identity(self, prev_ack, d_ack, ts1, dts,
                                    rwnd1, drwnd, msn, force):
        state = DynamicState(ack=prev_ack, ack_delta=0, ts_val=ts1,
                             ts_ecr=max(0, ts1 - 5), rwnd=rwnd1, seq=0)
        segment = ack_segment(
            ack=prev_ack + d_ack, ts_val=max(0, ts1 + dts),
            ts_ecr=max(0, ts1 - 5 + dts), rwnd=max(0, rwnd1 + drwnd))
        data, new_state = encode_entry(state, segment, cid=9,
                                       same_cid=False, msn=msn,
                                       force_absolute=force)
        entry = parse_entry(data, 0)
        decoded = apply_entry(entry, state)
        assert decoded.ack == segment.ack
        assert decoded.ts_val == segment.ts_val
        assert decoded.ts_ecr == segment.ts_ecr
        assert decoded.rwnd == segment.rwnd
        assert decoded == new_state
        assert entry.msn_nibble == (msn & 0xF)
        assert crc3(decoded.crc_input()) == entry.crc

    @settings(max_examples=100)
    @given(blocks=st.lists(
        st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
        min_size=0, max_size=3))
    def test_sack_roundtrip(self, blocks):
        state = DynamicState(ack=100, ts_val=1, ts_ecr=1, rwnd=1000)
        segment = ack_segment(ack=200, ts_val=1, ts_ecr=1, rwnd=1000,
                              sack=tuple(blocks))
        data, _ = encode_entry(state, segment, 3, False, 0)
        entry = parse_entry(data, 0)
        assert entry.sack_blocks == tuple(blocks)


class TestStreamProperties:
    @settings(max_examples=50, deadline=None)
    @given(deltas=st.lists(st.integers(0, 65_000), min_size=1,
                           max_size=40),
           chunks=st.integers(1, 5))
    def test_any_ack_stream_roundtrips(self, deltas, chunks):
        """Whatever the ACK number progression, compress->frame->
        decompress reproduces the stream exactly and in order."""
        comp, decomp = Compressor(), Decompressor()
        first = ack_segment(ack=1, ts_val=1, ts_ecr=1, rwnd=65535)
        comp.note_vanilla_ack(first)
        decomp.note_vanilla_ack(first)
        ack_no, ts = 1, 1
        entries = []
        expected = []
        for delta in deltas:
            ack_no += delta
            ts += 1
            seg = ack_segment(ack=ack_no, ts_val=ts, ts_ecr=ts - 1,
                              rwnd=65535)
            entries.append(comp.compress(seg))
            expected.append(ack_no)
        # Deliver in arbitrary chunk sizes (frames are consecutive).
        out = []
        size = max(1, len(entries) // chunks)
        for i in range(0, len(entries), size):
            frame = build_frame(entries[i:i + size])
            out.extend(s.ack for s in decomp.decompress_frame(frame))
        assert out == expected
        assert decomp.crc_failures == 0

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 30), resend_from=st.integers(0, 29))
    def test_duplicate_prefix_never_reapplied(self, n, resend_from):
        comp, decomp = Compressor(), Decompressor()
        first = ack_segment(ack=1, ts_val=1, ts_ecr=1, rwnd=65535)
        comp.note_vanilla_ack(first)
        decomp.note_vanilla_ack(first)
        entries = [comp.compress(ack_segment(
            ack=1 + 1460 * (i + 1), ts_val=1, ts_ecr=1, rwnd=65535))
            for i in range(n)]
        decomp.decompress_frame(build_frame(entries))
        start = min(resend_from, n - 1)
        again = decomp.decompress_frame(build_frame(entries[start:]))
        assert again == []


class TestCrcProperties:
    @settings(max_examples=200)
    @given(data=st.binary(min_size=1, max_size=64),
           bit=st.integers(0, 511))
    def test_crc8_single_bit_sensitivity(self, data, bit):
        index = bit % (len(data) * 8)
        mutated = bytearray(data)
        mutated[index // 8] ^= 1 << (index % 8)
        assert crc8(bytes(mutated)) != crc8(data)

    #: Header-sized values, the u64 edges, and what lies outside them
    #: (taken modulo 2**64, as ``DynamicState.crc_input`` masks).
    u64ish = st.one_of(
        st.sampled_from([0, 1, 0xFF, 0x100, 2**32 - 1, 2**63,
                         2**64 - 1, 2**64, 2**64 + 1, -1, -2**63]),
        st.integers(0, 2**32), st.integers(-2**70, 2**70))

    @settings(max_examples=500)
    @given(values=st.tuples(u64ish, u64ish, u64ish, u64ish, u64ish))
    def test_crc3_u64x5_is_crc3_of_the_packed_fields(self, values):
        packed = struct.pack(">QQQQQ", *(v & 2**64 - 1 for v in values))
        assert crc3_u64x5(*values) == crc3(packed)

    #: The written-out lookups cover values in [0, 2**32); the edges
    #: and one step outside them take the bytewise fold.
    u32ish = st.one_of(
        st.sampled_from([0, 1, 0xFF, 0x100, 0xFFFF, 0x10000, 2**24,
                         2**32 - 1]),
        st.integers(0, 2**32 - 1), st.integers(0, 0xFFFF))

    @settings(max_examples=300)
    @given(values=st.tuples(u32ish, u32ish, u32ish, u32ish, u32ish),
           outside=st.sampled_from([None, 2**32, -1, 2**40]),
           where=st.integers(0, 4))
    def test_crc3_u64x5_header_values_match_the_bytewise_fold(
            self, values, outside, where):
        if outside is not None:
            values = values[:where] + (outside,) + values[where + 1:]
        packed = struct.pack(">QQQQQ", *(v & 2**64 - 1 for v in values))
        assert crc3_u64x5(*values) == _crc3_u64x5_bytewise(*values) \
            == crc3(packed)

    @settings(max_examples=200)
    @given(ack=u64ish, ts_val=u64ish, ts_ecr=u64ish, rwnd=u64ish,
           seq=u64ish)
    def test_crc3_u64x5_is_the_crc_of_crc_input(self, ack, ts_val,
                                                ts_ecr, rwnd, seq):
        state = DynamicState(ack, 0, ts_val, ts_ecr, rwnd, seq)
        assert crc3_u64x5(ack, ts_val, ts_ecr, rwnd, seq) \
            == crc3(state.crc_input())
