"""Wire-format round trips for compressed ACK entries and frames."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.rohc.context import DynamicState
from repro.rohc.crc import crc3
from repro.rohc.packets import ACK_ABSOLUTE, ACK_D8, ACK_STRIDE, \
    CompressedAck, EncodingError, ParseError, apply_entry, build_frame, \
    encode_entry, encode_update, parse_entry, parse_frame, unzigzag, \
    zigzag
from repro.tcp.segment import TcpSegment


def ack_segment(ack=2920, ts_val=10, ts_ecr=9, rwnd=65535, seq=0,
                sack=()):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=seq,
                      payload_bytes=0, ack=ack, rwnd=rwnd,
                      ts_val=ts_val, ts_ecr=ts_ecr, sack_blocks=sack)


def roundtrip(state, segment, cid=7, same_cid=False, msn=0,
              force_absolute=False):
    data, new_state = encode_entry(state, segment, cid, same_cid, msn,
                                   force_absolute)
    entry = parse_entry(data, 0)
    assert entry.size == len(data)
    decoded = apply_entry(entry, state)
    assert decoded.ack == segment.ack
    assert decoded.ts_val == segment.ts_val
    assert decoded.ts_ecr == segment.ts_ecr
    assert decoded.rwnd == segment.rwnd
    assert crc3(decoded.crc_input()) == entry.crc
    assert decoded == new_state
    return data, entry


class TestZigzag:
    @pytest.mark.parametrize("n", [0, 1, -1, 2, -2, 1000, -1000])
    def test_roundtrip(self, n):
        assert unzigzag(zigzag(n)) == n

    def test_ordering(self):
        assert zigzag(0) == 0
        assert zigzag(-1) == 1
        assert zigzag(1) == 2


class TestEntryRoundtrip:
    def test_first_ack_absolute(self):
        state = DynamicState()
        data, entry = roundtrip(state, ack_segment(), force_absolute=True)
        assert entry.ack_mode == ACK_ABSOLUTE

    def test_delta_entry(self):
        state = DynamicState(ack=1460, ts_val=10, ts_ecr=9, rwnd=65535)
        data, entry = roundtrip(state, ack_segment(ack=1460 + 2920,
                                                   ts_val=10, ts_ecr=9))
        assert entry.ack_mode != ACK_ABSOLUTE
        # ctrl+msn byte + cid + 2-byte delta.
        assert len(data) <= 5

    def test_stride_repeat_is_tiny(self):
        # Steady-state bulk download: constant 2920-byte stride and
        # unchanged ms timestamps -> the paper's "3 bytes or fewer".
        state = DynamicState(ack=5840, ack_delta=2920, ts_val=10,
                             ts_ecr=9, rwnd=65535)
        data, entry = roundtrip(
            state, ack_segment(ack=5840 + 2920, ts_val=10, ts_ecr=9),
            same_cid=True)
        assert entry.ack_mode == ACK_STRIDE
        assert len(data) == 2

    def test_dup_ack_zero_delta(self):
        state = DynamicState(ack=2920, ack_delta=2920, ts_val=10,
                             ts_ecr=9, rwnd=65535)
        data, entry = roundtrip(
            state, ack_segment(ack=2920, ts_val=10, ts_ecr=9),
            same_cid=True)
        assert entry.ack_mode == ACK_D8
        assert entry.d_ack == 0

    def test_timestamp_deltas(self):
        state = DynamicState(ack=0, ts_val=100, ts_ecr=90, rwnd=65535)
        roundtrip(state, ack_segment(ack=1460, ts_val=103, ts_ecr=95))

    def test_negative_ts_delta(self):
        state = DynamicState(ack=0, ts_val=100, ts_ecr=90, rwnd=65535)
        roundtrip(state, ack_segment(ack=1460, ts_val=100, ts_ecr=85))

    def test_window_update_delta(self):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=65535)
        data, entry = roundtrip(
            state, ack_segment(ack=1460, ts_val=1, ts_ecr=1, rwnd=60000))
        assert entry.wnd_present

    def test_large_window_change_forces_absolute(self):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=1000)
        data, entry = roundtrip(
            state, ack_segment(ack=1460, ts_val=1, ts_ecr=1,
                               rwnd=4 * 1024 * 1024))
        assert entry.ack_mode == ACK_ABSOLUTE

    def test_ack_regression_forces_absolute(self):
        state = DynamicState(ack=9999, ts_val=1, ts_ecr=1, rwnd=65535)
        data, entry = roundtrip(
            state, ack_segment(ack=5000, ts_val=1, ts_ecr=1))
        assert entry.ack_mode == ACK_ABSOLUTE

    def test_seq_change_forces_absolute(self):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=65535,
                             seq=0)
        data, entry = roundtrip(
            state, ack_segment(ack=1460, ts_val=1, ts_ecr=1, seq=777))
        assert entry.ack_mode == ACK_ABSOLUTE
        assert apply_entry(entry, state).seq == 777

    def test_sack_blocks_roundtrip(self):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=65535)
        data, entry = roundtrip(
            state, ack_segment(ack=1460, ts_val=1, ts_ecr=1,
                               sack=((2920, 4380), (7300, 8760))))
        assert entry.sack_blocks == ((2920, 4380), (7300, 8760))

    def test_data_segment_rejected(self):
        seg = TcpSegment(flow_id=1, src="a", dst="b", seq=0,
                         payload_bytes=100, ack=0, rwnd=0)
        with pytest.raises(EncodingError):
            encode_entry(DynamicState(), seg, 0, False, 0)

    def test_msn_nibble_recorded(self):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=65535)
        data, _ = encode_entry(state, ack_segment(ack=100, ts_val=1,
                                                  ts_ecr=1), 7, False, 0x2B)
        assert parse_entry(data, 0).msn_nibble == 0xB

    def test_same_cid_omits_cid_byte(self):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=65535)
        with_cid, _ = encode_entry(state, ack_segment(ack=100, ts_val=1,
                                                      ts_ecr=1),
                                   7, False, 0)
        without, _ = encode_entry(state, ack_segment(ack=100, ts_val=1,
                                                     ts_ecr=1),
                                  7, True, 0)
        assert len(with_cid) == len(without) + 1


class TestFrames:
    def entries(self, n, start_msn=0):
        state = DynamicState(ack=0, ts_val=1, ts_ecr=1, rwnd=65535)
        out = []
        for i in range(n):
            seg = ack_segment(ack=(i + 1) * 2920, ts_val=1, ts_ecr=1)
            data, state = encode_entry(state, seg, 7, i > 0,
                                       start_msn + i,
                                       force_absolute=(i == 0))
            out.append(CompressedAck(msn=start_msn + i, cid=7,
                                     data=data, segment=seg))
        return out

    def test_build_and_parse(self):
        frame = build_frame(self.entries(3))
        first_msn8, entries = parse_frame(frame)
        assert first_msn8 == 0
        assert len(entries) == 3

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            build_frame([])

    def test_nonconsecutive_msns_rejected(self):
        entries = self.entries(2)
        entries[1].msn = 5
        with pytest.raises(ValueError):
            build_frame(entries)

    def test_first_msn_wraps_mod_256(self):
        entries = self.entries(1, start_msn=300)
        frame = build_frame(entries)
        first_msn8, _ = parse_frame(frame)
        assert first_msn8 == 300 % 256

    def test_truncated_frame_rejected(self):
        frame = build_frame(self.entries(2))
        with pytest.raises(ParseError):
            parse_frame(frame[:-1])

    def test_trailing_garbage_rejected(self):
        frame = build_frame(self.entries(2))
        with pytest.raises(ParseError):
            parse_frame(frame + b"\x00")


#: Steps of a field between two ACKs, at and around every boundary
#: the encoding switches modes at, and anywhere else.
_ACK_STEPS = st.one_of(
    st.sampled_from([0, 1, 2920, 0xFE, 0xFF, 0x100, 0xFFFF, 0x10000,
                     0x10001, -1]),
    st.integers(-0x100, 0x20000))
_SIGNED_STEPS = st.one_of(
    st.sampled_from([0, 1, -1, 0x7F, 0x80, -0x80, -0x81, 0x3FFF, 0x4000,
                     -0x4000, -0x4001]),
    st.integers(-0x5000, 0x5000))


class TestEncodeUpdateAgainstEncodeEntry:
    """``encode_update`` writes the state ``encode_entry`` returns into
    the state it was given, and emits the same bytes — for delta
    entries of every mode, absolute ones, SACK blocks, data segments
    and values past 32 bits (refused by both)."""

    @settings(max_examples=300, deadline=None)
    @given(state=st.tuples(st.integers(0x5000, 2**32 - 0x20000),
                           st.sampled_from([0, 1, 0xFF, 2920]),
                           st.integers(0x5000, 2**20),
                           st.integers(0x5000, 2**20),
                           st.integers(0x5000, 2**23), st.integers(0, 3)),
           steps=st.tuples(_ACK_STEPS, _SIGNED_STEPS, _SIGNED_STEPS,
                           _SIGNED_STEPS),
           wide=st.sampled_from([None, None, None, 0, 1, 2]),
           seq_step=st.sampled_from([0, 0, 0, 1]),
           sack=st.sampled_from([(), (), ((5000, 6460),)]),
           payload=st.sampled_from([0, 0, 0, 1460]),
           cid=st.integers(0, 255), same_cid=st.booleans(),
           msn=st.integers(0, 1000), force=st.sampled_from([False] * 3
                                                           + [True]))
    def test_same_bytes_and_state(self, state, steps, wide, seq_step,
                                  sack, payload, cid, same_cid, msn,
                                  force):
        ack, ack_delta, ts_val, ts_ecr, rwnd, seq = state
        d_ack, d_tv, d_te, d_wnd = steps
        fields = [ack + d_ack, ts_val + d_tv, ts_ecr + d_te]
        if wide is not None:
            fields[wide] += 2**32   # past the 32-bit wire fields
        segment = TcpSegment(1, "C1", "SRV", seq + seq_step, payload,
                             fields[0], rwnd + d_wnd, fields[1],
                             fields[2], sack)
        reference = DynamicState(*state)
        updated = DynamicState(*state)
        try:
            want, want_state = encode_entry(reference, segment, cid,
                                            same_cid, msn, force)
        except (EncodingError, OverflowError) as refused:
            # A data segment, or a value past 32 bits in an absolute
            # entry: refused alike, the state untouched.
            with pytest.raises(type(refused)):
                encode_update(updated, segment, cid, same_cid, msn, force)
            assert updated == DynamicState(*state)
            return
        assert encode_update(updated, segment, cid, same_cid, msn,
                             force) == want
        assert updated == want_state

    def test_every_mode_boundary(self):
        """Each ack / timestamp / window step at and around the values
        the encoding switches modes at, against a state whose stride
        is 2920."""
        state = (10**6, 2920, 50_000, 40_000, 65_535, 0)
        ack_steps = (0, 1, 0xFE, 0xFF, 0x100, 2920, 0xFFFF, 0x10000, -1)
        signed_steps = (0, 0x7F, 0x80, -0x80, -0x81, 0x3FFF, 0x4000,
                        -0x4000, -0x4001)
        for d_ack in ack_steps:
            for d_ts in signed_steps:
                for d_wnd in signed_steps:
                    segment = ack_segment(ack=10**6 + d_ack,
                                          ts_val=50_000 + d_ts,
                                          ts_ecr=40_000 - d_ts,
                                          rwnd=65_535 + d_wnd)
                    for same_cid in (False, True):
                        updated = DynamicState(*state)
                        want, want_state = encode_entry(
                            DynamicState(*state), segment, 7, same_cid, 3)
                        assert encode_update(updated, segment, 7,
                                             same_cid, 3) == want
                        assert updated == want_state
