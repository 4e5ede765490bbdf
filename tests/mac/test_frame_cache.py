"""Cached frame geometry: construction-time lengths stay correct.

PR 4 converted the hot frame classes to ``__slots__`` with
``byte_length`` computed once at construction instead of a re-summing
property.  That is only sound if every mutation a frame admits after
construction either *cannot* change its geometry (retry counts,
flags), *re-derives* the cache (``hack_payload`` on control frames),
or is *rejected* outright (the A-MPDU's MPDU tuple).  These tests pin
each of those invariants, property-style where the input space is
wide, and check the airtime memo tracks the cached lengths.
"""

import pytest
from hypothesis import given, strategies as st

from repro.mac.frames import AckFrame, AmpduFrame, BarFrame, \
    BlockAckFrame, DataFrame, Mpdu
from repro.mac.params import ACK_BYTES, BAR_BYTES, BLOCK_ACK_BYTES, \
    MAC_DATA_OVERHEAD, mpdu_subframe_bytes
from repro.phy.params import PHY_11N

from tests.helpers import FakePayload


def mpdu(size=1500, seq=0, dst="C1"):
    return Mpdu(src="AP", dst=dst, seq=seq,
                payload=FakePayload(byte_length=size))


class TestMpduGeometry:
    @given(size=st.integers(min_value=0, max_value=65_535))
    def test_cached_length_matches_formula(self, size):
        frame = mpdu(size=size)
        assert frame.byte_length == MAC_DATA_OVERHEAD + size

    @given(retries=st.integers(min_value=1, max_value=12))
    def test_geometry_free_mutations_keep_length(self, retries):
        frame = mpdu(size=1200)
        before = frame.byte_length
        for _ in range(retries):
            frame.retry_count += 1
        frame.more_data = True
        frame.sync = True
        frame.enqueued_at = 12345
        assert frame.byte_length == before

    def test_dataframe_mirrors_mpdu_length(self):
        inner = mpdu(size=777)
        frame = DataFrame(mpdu=inner, rate_mbps=150.0)
        assert frame.byte_length == inner.byte_length


class TestAmpduGeometry:
    @given(sizes=st.lists(st.integers(min_value=40, max_value=4000),
                          min_size=1, max_size=16))
    def test_cached_aggregate_matches_subframe_sum(self, sizes):
        mpdus = [mpdu(size=s, seq=i) for i, s in enumerate(sizes)]
        frame = AmpduFrame(mpdus=mpdus, rate_mbps=150.0)
        assert frame.byte_length == sum(
            mpdu_subframe_bytes(m.byte_length) for m in mpdus)

    def test_mpdu_list_mutation_is_rejected(self):
        # The cache can never go stale because the MPDU collection is
        # a tuple: there is no append/assignment to invalidate it.
        frame = AmpduFrame(mpdus=[mpdu(seq=0), mpdu(seq=1)],
                           rate_mbps=150.0)
        assert isinstance(frame.mpdus, tuple)
        with pytest.raises(AttributeError):
            frame.mpdus.append(mpdu(seq=2))
        with pytest.raises(TypeError):
            frame.mpdus[0] = mpdu(seq=9)

    def test_builds_from_any_iterable(self):
        frame = AmpduFrame(mpdus=(m for m in [mpdu(seq=0)]),
                           rate_mbps=150.0)
        assert len(frame.mpdus) == 1


class TestHackPayloadInvalidation:
    @given(payloads=st.lists(
        st.one_of(st.none(),
                  st.binary(min_size=0, max_size=64)),
        min_size=1, max_size=6))
    def test_ack_setter_rederives_length(self, payloads):
        frame = AckFrame(src="C1", dst="AP", acked_seq=1)
        for payload in payloads:
            frame.hack_payload = payload
            expected = ACK_BYTES + (len(payload) if payload else 0)
            assert frame.byte_length == expected
            assert frame.hack_payload == payload

    @given(payloads=st.lists(
        st.one_of(st.none(),
                  st.binary(min_size=0, max_size=64)),
        min_size=1, max_size=6))
    def test_block_ack_setter_rederives_length(self, payloads):
        frame = BlockAckFrame(src="C1", dst="AP", win_start=0,
                              acked_seqs=frozenset({0, 1}))
        for payload in payloads:
            frame.hack_payload = payload
            expected = BLOCK_ACK_BYTES + \
                (len(payload) if payload else 0)
            assert frame.byte_length == expected

    def test_construction_payload_included(self):
        frame = AckFrame(src="C1", dst="AP", acked_seq=1,
                         hack_payload=b"\x01" * 10)
        assert frame.byte_length == ACK_BYTES + 10

    def test_empty_bytes_counts_as_absent(self):
        # b"" is falsy: historical behaviour (property re-sum) treated
        # it as no payload; the cached setter must agree.
        frame = AckFrame(src="C1", dst="AP", acked_seq=1,
                         hack_payload=b"")
        assert frame.byte_length == ACK_BYTES

    def test_bar_length_constant(self):
        frame = BarFrame(src="AP", dst="C1", win_start=7)
        assert frame.byte_length == BAR_BYTES


class TestAirtimeMemo:
    def test_matches_duration_arithmetic(self):
        frame = AmpduFrame(mpdus=[mpdu(seq=0), mpdu(seq=1)],
                           rate_mbps=150.0)
        assert PHY_11N.frame_airtime_ns(frame, 150.0) == \
            PHY_11N.frame_duration_ns(frame.byte_length, 150.0)

    def test_tracks_hack_payload_mutation(self):
        # The memo keys on the *current* cached length, so a control
        # frame whose payload was swapped after construction gets the
        # longer airtime, never the stale one.
        frame = BlockAckFrame(src="C1", dst="AP", win_start=0,
                              acked_seqs=frozenset({0}))
        rate = 24.0
        bare = PHY_11N.control_duration_ns(frame.byte_length, rate)
        frame.hack_payload = b"\xAB" * 40
        augmented = PHY_11N.control_duration_ns(frame.byte_length,
                                                rate)
        assert augmented > bare
        assert augmented == PHY_11N.control_duration_ns(
            BLOCK_ACK_BYTES + 40, rate)

    @given(size=st.integers(min_value=0, max_value=10_000),
           rate=st.sampled_from(PHY_11N.data_rates))
    def test_memoised_duration_equals_fresh_arithmetic(self, size,
                                                       rate):
        import math
        bits = PHY_11N.service_bits + PHY_11N.tail_bits + 8 * size
        per_symbol = rate * (PHY_11N.symbol_ns / 1_000.0)
        expected = PHY_11N.preamble_ns + \
            math.ceil(bits / per_symbol) * PHY_11N.symbol_ns
        assert PHY_11N.frame_duration_ns(size, rate) == expected
