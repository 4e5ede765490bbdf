"""Frame size arithmetic and A-MPDU invariants."""

import pytest

from repro.mac.frames import AckFrame, AmpduFrame, BarFrame, \
    BlockAckFrame, DataFrame, Mpdu
from repro.mac.params import ACK_BYTES, BAR_BYTES, BLOCK_ACK_BYTES, \
    MAC_DATA_OVERHEAD, mpdu_subframe_bytes

from tests.helpers import FakePayload


def mpdu(seq=0, size=1500, dst="C1"):
    return Mpdu(src="AP", dst=dst, seq=seq, payload=FakePayload(size))


class TestMpdu:
    def test_byte_length_includes_mac_overhead(self):
        assert mpdu(size=1500).byte_length == 1500 + MAC_DATA_OVERHEAD

    def test_retransmission_flag(self):
        m = mpdu()
        assert m.retry_count == 0
        m.retry_count = 1
        assert m.retry_count > 0

    def test_frame_ids_unique(self):
        assert mpdu().frame_id != mpdu().frame_id


class TestDataFrame:
    def test_wraps_single_mpdu(self):
        m = mpdu()
        frame = DataFrame(mpdu=m, rate_mbps=54.0)
        assert frame.mpdus == [m]
        assert frame.byte_length == m.byte_length
        assert not frame.is_control
        assert frame.src == "AP" and frame.dst == "C1"


class TestAmpduFrame:
    def test_subframe_padding(self):
        # 1538-byte MPDU: pad to 1540, plus 4-byte delimiter.
        assert mpdu_subframe_bytes(1538) == 1544

    def test_already_aligned(self):
        assert mpdu_subframe_bytes(1540) == 1544

    def test_aggregate_length(self):
        mpdus = [mpdu(seq=i) for i in range(3)]
        frame = AmpduFrame(mpdus=mpdus, rate_mbps=150.0)
        expected = 3 * mpdu_subframe_bytes(1500 + MAC_DATA_OVERHEAD)
        assert frame.byte_length == expected

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AmpduFrame(mpdus=[], rate_mbps=150.0)

    def test_rejects_mixed_receivers(self):
        with pytest.raises(ValueError):
            AmpduFrame(mpdus=[mpdu(dst="C1"), mpdu(dst="C2")],
                       rate_mbps=150.0)

    def test_flag_aggregation(self):
        mpdus = [mpdu(seq=i) for i in range(3)]
        mpdus[1].more_data = True
        frame = AmpduFrame(mpdus=mpdus, rate_mbps=150.0)
        assert frame.more_data
        assert not frame.sync


class TestControlFrames:
    def test_stock_ack_size(self):
        ack = AckFrame(src="C1", dst="AP", acked_seq=3)
        assert ack.byte_length == ACK_BYTES
        assert ack.is_control

    def test_hack_payload_lengthens_ack(self):
        ack = AckFrame(src="C1", dst="AP", acked_seq=3,
                       hack_payload=b"\x01" * 10)
        assert ack.byte_length == ACK_BYTES + 10

    def test_stock_block_ack_size(self):
        ba = BlockAckFrame(src="C1", dst="AP", win_start=0,
                           acked_seqs=frozenset({1, 2}))
        assert ba.byte_length == BLOCK_ACK_BYTES

    def test_hack_payload_lengthens_block_ack(self):
        ba = BlockAckFrame(src="C1", dst="AP", win_start=0,
                           acked_seqs=frozenset(), hack_payload=b"abc")
        assert ba.byte_length == BLOCK_ACK_BYTES + 3

    def test_bar_size(self):
        bar = BarFrame(src="AP", dst="C1", win_start=7)
        assert bar.byte_length == BAR_BYTES
        assert bar.is_control
