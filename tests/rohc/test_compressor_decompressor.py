"""Compressor <-> decompressor protocol: contexts, MSN dedup, repair."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.rohc.compressor import Compressor
from repro.rohc.context import cid_for_flow
from repro.rohc.decompressor import Decompressor
from repro.rohc.packets import build_frame
from repro.tcp.segment import FiveTuple, TcpSegment

FT1 = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)
FT2 = FiveTuple("10.0.0.1", "10.0.1.2", 5002, 80)


def ack(ft=FT1, ack_no=2920, ts_val=10, ts_ecr=9, rwnd=65535,
        flow_id=1):
    return TcpSegment(flow_id=flow_id, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack_no, rwnd=rwnd,
                      ts_val=ts_val, ts_ecr=ts_ecr, five_tuple=ft)


def linked_pair():
    comp, decomp = Compressor(), Decompressor()
    first = ack(ack_no=1460)
    comp.note_vanilla_ack(first)
    decomp.note_vanilla_ack(first)
    return comp, decomp


class TestContextEstablishment:
    def test_cannot_compress_before_vanilla(self):
        comp = Compressor()
        assert not comp.can_compress(ack())
        with pytest.raises(ValueError):
            comp.compress(ack())

    def test_vanilla_establishes_context(self):
        comp, _ = linked_pair()
        assert comp.can_compress(ack(ack_no=2920))

    def test_init_threshold(self):
        comp = Compressor(init_threshold=2)
        comp.note_vanilla_ack(ack(ack_no=1460))
        assert not comp.can_compress(ack(ack_no=2920))
        comp.note_vanilla_ack(ack(ack_no=2920))
        assert comp.can_compress(ack(ack_no=4380))

    def test_data_segments_ignored(self):
        comp = Compressor()
        data = TcpSegment(flow_id=1, src="a", dst="b", seq=0,
                          payload_bytes=100, ack=0, rwnd=0,
                          five_tuple=FT1)
        comp.note_vanilla_ack(data)
        assert not comp.can_compress(ack())

    def test_cid_collision_blocks_newer_flow(self):
        comp = Compressor()
        comp.note_vanilla_ack(ack(ft=FT1))
        # Find a tuple that collides with FT1's CID.
        target = cid_for_flow(FT1)
        port = 1000
        while True:
            candidate = FiveTuple("10.9.9.9", "10.8.8.8", port, 80)
            if cid_for_flow(candidate) == target:
                break
            port += 1
        comp.note_vanilla_ack(ack(ft=candidate, flow_id=2))
        assert not comp.can_compress(ack(ft=candidate, flow_id=2,
                                         ack_no=99999))
        assert comp.collisions == 1
        # The original flow is unaffected.
        assert comp.can_compress(ack(ft=FT1, ack_no=2920))


    def test_established_context_agrees_with_can_compress(self):
        """One lookup answers both "may this ACK be compressed" and
        "against what": None on every branch ``can_compress`` refuses,
        the flow's context where it agrees — and ``compress`` given
        that context writes the bytes it writes looking it up."""
        comp, twin = Compressor(init_threshold=2), \
            Compressor(init_threshold=2)
        collider = next(
            ft for ft in (FiveTuple("10.9.9.9", "10.8.8.8", port, 80)
                          for port in range(1000, 70_000))
            if cid_for_flow(ft) == cid_for_flow(FT1))
        data = TcpSegment(flow_id=1, src="a", dst="b", seq=0,
                          payload_bytes=100, ack=0, rwnd=0,
                          five_tuple=FT1)

        def agree(segment, established):
            context = comp.established_context(segment)
            assert (context is not None) == established \
                == comp.can_compress(segment) \
                == twin.can_compress(segment)
            return context

        agree(ack(), False)                       # never seen
        for c in (comp, twin):
            c.note_vanilla_ack(ack(ack_no=1460))
        agree(ack(ack_no=2920), False)            # below init_threshold
        for c in (comp, twin):
            c.note_vanilla_ack(ack(ack_no=2920))
        context = agree(ack(ack_no=4380), True)
        assert context is comp.contexts[cid_for_flow(FT1)]
        agree(data, False)                        # a data segment
        for c in (comp, twin):
            c.note_vanilla_ack(ack(ft=collider, flow_id=2))
            c.note_vanilla_ack(ack(ft=collider, flow_id=2))
        agree(ack(ft=collider, flow_id=2), False)     # CID collision
        agree(ack(ft=collider, flow_id=2), False)     # now blocked
        assert comp.collisions == twin.collisions == 1
        for ack_no in (4380, 5840, 5840, 100_000):
            segment = ack(ack_no=ack_no)
            given_it = comp.compress(segment, agree(segment, True))
            looked_up = twin.compress(segment)
            assert (given_it.msn, given_it.cid, given_it.data) == \
                (looked_up.msn, looked_up.cid, looked_up.data)


class TestRoundtrip:
    def test_single_ack(self):
        comp, decomp = linked_pair()
        entry = comp.compress(ack(ack_no=4380))
        out = decomp.decompress_frame(build_frame([entry]))
        assert len(out) == 1
        assert out[0].ack == 4380
        assert out[0].is_pure_ack
        assert out[0].five_tuple.key() == FT1.key()

    def test_stream_of_acks(self):
        comp, decomp = linked_pair()
        entries = [comp.compress(ack(ack_no=1460 + 2920 * (i + 1),
                                     ts_val=10 + i, ts_ecr=9 + i))
                   for i in range(20)]
        out = decomp.decompress_frame(build_frame(entries))
        assert [s.ack for s in out] == \
            [1460 + 2920 * (i + 1) for i in range(20)]
        assert decomp.crc_failures == 0

    def test_steady_state_compression_ratio(self):
        # Table 2: ~12x compression on a bulk download's ACK stream.
        comp, decomp = linked_pair()
        entries = [comp.compress(ack(ack_no=1460 + 2920 * (i + 1),
                                     ts_val=10 + i // 8,
                                     ts_ecr=9 + i // 8))
                   for i in range(200)]
        out = decomp.decompress_frame(build_frame(entries))
        assert len(out) == 200
        uncompressed = 52 * 200
        ratio = uncompressed / comp.compressed_bytes
        assert ratio > 8  # paper: 12x

    def test_multiple_flows_interleaved(self):
        comp, decomp = Compressor(), Decompressor()
        for ft, fid in ((FT1, 1), (FT2, 2)):
            first = ack(ft=ft, ack_no=1460, flow_id=fid)
            comp.note_vanilla_ack(first)
            decomp.note_vanilla_ack(first)
        entries = []
        for i in range(6):
            ft, fid = ((FT1, 1), (FT2, 2))[i % 2]
            entries.append(comp.compress(
                ack(ft=ft, flow_id=fid, ack_no=1460 + 2920 * (i + 1))))
        out = decomp.decompress_frame(build_frame(entries))
        assert len(out) == 6
        assert {s.flow_id for s in out} == {1, 2}
        assert decomp.crc_failures == 0


class TestRetentionSemantics:
    def test_duplicate_frames_deduplicated(self):
        comp, decomp = linked_pair()
        entry = comp.compress(ack(ack_no=4380))
        frame = build_frame([entry])
        assert len(decomp.decompress_frame(frame)) == 1
        assert len(decomp.decompress_frame(frame)) == 0
        assert decomp.duplicates_skipped == 1

    def test_retained_prefix_plus_new(self):
        # The client re-sends unconfirmed entries with new ones appended
        # (Fig 5/6): the AP must apply only the new suffix.
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=4380))
        decomp.decompress_frame(build_frame([e1]))
        e2 = comp.compress(ack(ack_no=7300))
        out = decomp.decompress_frame(build_frame([e1, e2]))
        assert [s.ack for s in out] == [7300]

    def test_lost_frame_recovered_by_retention(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=4380))
        build_frame([e1])  # frame lost in flight
        e2 = comp.compress(ack(ack_no=7300))
        out = decomp.decompress_frame(build_frame([e1, e2]))
        assert [s.ack for s in out] == [4380, 7300]

    def test_rebase_after_discard(self):
        # Fig 7: the client discards unconfirmed entries; the stream
        # resumes with an MSN gap and an absolute entry.
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=4380))
        e2 = comp.compress(ack(ack_no=7300))
        del e1, e2  # never delivered
        comp.rebase_all()
        e3 = comp.compress(ack(ack_no=10220))
        out = decomp.decompress_frame(build_frame([e3]))
        assert [s.ack for s in out] == [10220]
        assert decomp.crc_failures == 0

    def test_vanilla_interleaving_stays_synced(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=4380))
        decomp.decompress_frame(build_frame([e1]))
        # Flow falls back to vanilla for a while (both ends note it).
        mid = ack(ack_no=10220)
        comp.note_vanilla_ack(mid)
        decomp.note_vanilla_ack(mid)
        # Back to compressed.
        e2 = comp.compress(ack(ack_no=13140))
        out = decomp.decompress_frame(build_frame([e2]))
        assert [s.ack for s in out] == [13140]
        assert decomp.crc_failures == 0

    def test_stale_vanilla_does_not_regress(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=40000))
        decomp.decompress_frame(build_frame([e1]))
        # A reordered old vanilla ACK arrives late at the decompressor.
        decomp.note_vanilla_ack(ack(ack_no=2920))
        assert decomp.contexts[cid_for_flow(FT1)].state.ack == 40000


class TestFailureContainment:
    def test_unknown_cid_counted(self):
        comp, _ = linked_pair()
        entry = comp.compress(ack(ack_no=4380))
        fresh = Decompressor()
        out = fresh.decompress_frame(build_frame([entry]))
        assert out == []
        assert fresh.unknown_cid == 1

    def test_corrupted_entry_crc_detected(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=4380))
        frame = bytearray(build_frame([e1]))
        frame[-1] ^= 0xFF  # corrupt the ack delta
        out = decomp.decompress_frame(bytes(frame))
        assert out == []
        assert decomp.crc_failures == 1
        # A first mismatch is treated as transient: the entry's MSN is
        # not consumed (mid-frame abort), so the §3.4 re-offer of the
        # clean bytes decodes normally and no desync is declared.
        assert decomp.mid_frame_aborts == 1
        assert decomp.desync_events == 0
        out = decomp.decompress_frame(build_frame([e1]))
        assert [s.ack for s in out] == [4380]

    def test_damaged_context_repaired_by_absolute(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(ack_no=4380))
        frame = bytearray(build_frame([e1]))
        frame[-1] ^= 0xFF
        # A second consecutive mismatch on the same context declares
        # a desynchronization (two-stage containment).
        decomp.decompress_frame(bytes(frame))
        decomp.decompress_frame(bytes(frame))
        assert decomp.crc_failures == 2
        assert decomp.desync_events == 1
        assert decomp.open_desyncs == 1
        # Delta entries are suppressed while damaged...
        e2 = comp.compress(ack(ack_no=7300))
        assert decomp.decompress_frame(build_frame([e2])) == []
        assert decomp.damaged_skips == 1
        # ...until an absolute entry repairs the context (and the
        # repair is counted as a measured recovery).
        comp.rebase_all()
        e3 = comp.compress(ack(ack_no=10220))
        out = decomp.decompress_frame(build_frame([e3]))
        assert [s.ack for s in out] == [10220]
        assert decomp.recoveries == 1
        assert decomp.open_desyncs == 0

    def test_garbage_frame_counted(self):
        decomp = Decompressor()
        assert decomp.decompress_frame(b"\xFF") == []
        assert decomp.parse_errors == 1


def _colliding_tuples():
    """FT1, a second tuple sharing its CID, and one that does not."""
    target = cid_for_flow(FT1)
    for port in range(6000, 70_000):
        other = FiveTuple("10.0.0.1", "10.0.1.9", port, 80)
        if cid_for_flow(other) == target:
            return [FT1, other, FT2]
    raise AssertionError("no CID collision below port 70000")


_POOL = _colliding_tuples()


def _established_by_cid(comp, segment):
    """``established_context`` as it read before it kept contexts by
    flow: through the CID table, hash and owner test included."""
    if not segment.is_pure_ack:
        return None
    context = comp._context_for(segment, create=False)
    if context is None or context.vanilla_seen < comp.init_threshold:
        return None
    return context


class TestContextByFlowAgainstTheCidTable:
    """``established_context`` reads a flow's context from the map the
    compressor keeps by flow key; after any mix of vanilla ACKs,
    compressed ACKs, CID collisions and released flows it answers what
    the CID table (``_context_for``) answers — the same object."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(st.tuples(
               st.sampled_from(["vanilla", "vanilla", "compress",
                                "release"]),
               st.integers(0, len(_POOL) - 1)), max_size=40),
           threshold=st.integers(1, 2))
    def test_same_context(self, ops, threshold):
        comp = Compressor(init_threshold=threshold)
        ack_no = 0
        for op, index in ops:
            ack_no += 1460
            segment = ack(ft=_POOL[index], ack_no=ack_no)
            if op == "vanilla":
                comp.note_vanilla_ack(segment)
            elif op == "compress":
                if comp.can_compress(segment):
                    comp.compress(segment)
            else:
                comp.release_flow(_POOL[index])
            for flow in _POOL:
                probe = ack(ft=flow, ack_no=ack_no + 1460)
                assert comp.established_context(probe) \
                    is _established_by_cid(comp, probe)
