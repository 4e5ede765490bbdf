"""Coverage-driven fuzzing of the HACK wire format and receive path.

The adversarial scenario family stands on one invariant: *no byte
sequence the air can deliver may crash the receive path*.  Parsing may
reject (``ParseError``), the decompressor may drop and count, but
nothing escapes.  The second invariant is quantitative: the only thing
standing between a mutated-but-FCS-clean frame and a wrong TCP ACK is
ROHC's CRC-3, so the single-bit-flip false-accept rate must stay in
the neighbourhood of 2^-3 — measured here by deterministic enumeration
of every bit position in a valid multi-entry frame.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.adversary import AdversaryConfig
from repro.adversary.mutator import AirframeMutator
from repro.rohc.compressor import Compressor
from repro.rohc.decompressor import Decompressor
from repro.rohc.packets import ParseError, build_frame, parse_entry, \
    parse_frame
from repro.tcp.segment import FiveTuple, TcpSegment

FT = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)


def ack_segment(ack, ts_val, ts_ecr, rwnd):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack, rwnd=rwnd,
                      ts_val=ts_val, ts_ecr=ts_ecr, five_tuple=FT)


def make_stream(n=8):
    """A realistic compressed stream: (first vanilla ACK, entries,
    expected (ack, ts_val, ts_ecr, rwnd) per entry).  Varies deltas so
    the frame mixes stride/u8/u16 ack modes and ts/wnd fields; no SACK
    blocks, so every payload byte feeds a CRC-covered field or the
    framing itself."""
    comp = Compressor()
    first = ack_segment(ack=1000, ts_val=50, ts_ecr=49, rwnd=65535)
    comp.note_vanilla_ack(first)
    entries, expected = [], []
    ack_no, ts = 1000, 50
    for i in range(n):
        ack_no += 1460 + 997 * (i % 3)
        ts += i % 2
        rwnd = 65535 - 200 * i
        entries.append(comp.compress(
            ack_segment(ack=ack_no, ts_val=ts, ts_ecr=ts - 1,
                        rwnd=rwnd)))
        expected.append((ack_no, ts, ts - 1, rwnd))
    return first, entries, expected


def fresh_decompressor(first):
    decomp = Decompressor()
    decomp.note_vanilla_ack(first)
    return decomp


class TestParserTotality:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_parse_frame_rejects_cleanly(self, data):
        try:
            _, entries = parse_frame(data)
        except ParseError:
            return
        for entry in entries:
            assert 2 <= entry.size <= len(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(min_size=1, max_size=64),
           offset=st.integers(0, 63))
    def test_parse_entry_rejects_cleanly(self, data, offset):
        try:
            entry = parse_entry(data, offset % len(data))
        except ParseError:
            return
        assert entry.size >= 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=300))
    def test_decompressor_is_total_on_arbitrary_bytes(self, data):
        first, entries, _ = make_stream(2)
        decomp = fresh_decompressor(first)
        out = decomp.decompress_frame(data)
        assert all(isinstance(s, TcpSegment) for s in out)
        assert decomp.frames_processed == 1
        # Internal errors are for bugs, not for wire garbage: malformed
        # input must be *recognised* as such.
        assert decomp.internal_errors == 0

    @settings(max_examples=200, deadline=None)
    @given(flips=st.lists(st.integers(0, 10_000), min_size=1,
                          max_size=16),
           split=st.integers(1, 7))
    def test_mutated_valid_frames_never_crash(self, flips, split):
        """Bit-storms on genuine frames — delivered across arbitrary
        frame boundaries — drop or decode, never raise."""
        first, entries, expected = make_stream()
        frames = [build_frame(entries[:split]),
                  build_frame(entries[split:])]
        mutated = []
        for i, frame in enumerate(frames):
            data = bytearray(frame)
            for flip in flips[i::2]:
                bit = flip % (len(data) * 8)
                data[bit // 8] ^= 1 << (bit % 8)
            mutated.append(bytes(data))
        decomp = fresh_decompressor(first)
        out = []
        for data in mutated:
            out.extend(decomp.decompress_frame(data))
        # Totality is the claim here; value-correctness under
        # corruption is only probabilistic (CRC-3) and is quantified
        # by the deterministic false-accept bound below.
        assert decomp.internal_errors == 0
        assert all(isinstance(s, TcpSegment) for s in out)


class TestCrcFalseAcceptBound:
    def test_single_bit_flip_false_accept_rate(self):
        """Enumerate EVERY single-bit corruption of a valid frame.
        CRC-3 passes a corrupted entry with probability ~2^-3; framing
        bits mostly fail structurally.  The measured false-accept rate
        over all positions must stay within the CRC-width bound (with
        slack for stride aliasing), and detection must actually fire."""
        first, entries, expected = make_stream()
        frame = build_frame(entries)
        good = set(expected)
        total_bits = len(frame) * 8
        false_accepts = 0
        detections = 0
        for bit in range(total_bits):
            data = bytearray(frame)
            data[bit // 8] ^= 1 << (bit % 8)
            decomp = fresh_decompressor(first)
            out = decomp.decompress_frame(bytes(data))
            if any((s.ack, s.ts_val, s.ts_ecr, s.rwnd) not in good
                   for s in out):
                false_accepts += 1
            if decomp.crc_failures or decomp.parse_errors:
                detections += 1
        rate = false_accepts / total_bits
        # Empirically the rate is 0.0: aliasing CRC-3 needs the carry
        # propagation of multi-bit damage, which single flips rarely
        # cause.  The bound is a ceiling (2^-3 plus slack) guarding
        # against regressions in what the CRC covers.
        assert rate <= 0.35, f"false-accept rate {rate:.3f}"
        # The defence is load-bearing: most flips are caught outright.
        assert detections > total_bits // 2


class _Frame:
    def __init__(self, payload):
        self.hack_payload = payload


class TestMutatorTotality:
    @settings(max_examples=200, deadline=None)
    @given(payload=st.binary(max_size=120),
           seed=st.integers(0, 2**16),
           mode=st.sampled_from(["flip", "storm"]))
    def test_mutator_never_raises_on_junk(self, payload, seed, mode):
        mutator = AirframeMutator(
            random.Random(seed),
            AdversaryConfig(kind="mutator", intensity=1.0,
                            mutate_mode=mode))
        frame = _Frame(payload)
        mutator(frame)
        assert mutator.tamper_errors == 0
        # Equal-length rewrite: airtime accounting stays untouched.
        assert len(frame.hack_payload) == len(payload)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_mutated_output_still_contained(self, seed):
        """Close the loop: mutator-corrupted genuine frames flow into
        the decompressor without a single escaped exception."""
        first, entries, _ = make_stream()
        frame = _Frame(build_frame(entries))
        mutator = AirframeMutator(
            random.Random(seed),
            AdversaryConfig(kind="mutator", intensity=1.0,
                            mutate_mode="flip"))
        mutator(frame)
        assert mutator.frames_mutated == 1
        decomp = fresh_decompressor(first)
        decomp.decompress_frame(frame.hack_payload)
        assert decomp.internal_errors == 0
