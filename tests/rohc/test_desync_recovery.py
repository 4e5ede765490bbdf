"""Two-stage CRC containment: retry, desync declaration, recovery.

Exercises the hardened decompressor's state machine directly:
first-mismatch retry via §3.4 retention, consecutive-mismatch desync
declaration, both repair paths (absolute rebase and snooped vanilla
ACK), and the recovery-latency measurement against an injected clock.
"""

from repro.rohc.compressor import Compressor
from repro.rohc.context import cid_for_flow
from repro.rohc.decompressor import Decompressor
from repro.rohc.packets import build_frame
from repro.tcp.segment import FiveTuple, TcpSegment

FT = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)


def ack(ack_no, ts=10, ft=FT):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack_no, rwnd=65535,
                      ts_val=ts, ts_ecr=ts - 1, five_tuple=ft)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def linked_pair(clock=None):
    comp = Compressor()
    decomp = Decompressor(clock=clock)
    first = ack(1460)
    comp.note_vanilla_ack(first)
    decomp.note_vanilla_ack(first)
    return comp, decomp


def corrupt(entries):
    frame = bytearray(build_frame(entries))
    frame[-1] ^= 0xFF
    return bytes(frame)


class TestTwoStageContainment:
    def test_first_miss_is_retryable(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(2920))
        assert decomp.decompress_frame(corrupt([e1])) == []
        assert (decomp.crc_failures, decomp.mid_frame_aborts,
                decomp.desync_events) == (1, 1, 0)
        # Retention re-offers the clean bytes: full recovery, no
        # context damage, streak cleared.
        out = decomp.decompress_frame(build_frame([e1]))
        assert [s.ack for s in out] == [2920]
        assert decomp.open_desyncs == 0

    def test_success_resets_the_streak(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(2920))
        decomp.decompress_frame(corrupt([e1]))
        decomp.decompress_frame(build_frame([e1]))  # clean retry
        e2 = comp.compress(ack(4380))
        decomp.decompress_frame(corrupt([e2]))
        # Not consecutive: still a first-stage retry, no desync.
        assert decomp.desync_events == 0
        assert decomp.crc_failures == 2

    def test_consecutive_misses_declare_desync(self):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(2920))
        bad = corrupt([e1])
        decomp.decompress_frame(bad)
        decomp.decompress_frame(bad)
        assert decomp.desync_events == 1
        assert decomp.open_desyncs == 1
        assert set(decomp._damage_marks) == {cid_for_flow(FT)}


class TestRecoveryPaths:
    def desynced_pair(self, clock=None):
        comp, decomp = linked_pair(clock)
        e1 = comp.compress(ack(2920))
        bad = corrupt([e1])
        decomp.decompress_frame(bad)
        decomp.decompress_frame(bad)
        assert decomp.open_desyncs == 1
        return comp, decomp

    def test_absolute_entry_recovers_in_band(self):
        comp, decomp = self.desynced_pair()
        comp.rebase_all()
        e2 = comp.compress(ack(4380, ts=11))
        out = decomp.decompress_frame(build_frame([e2]))
        assert [s.ack for s in out] == [4380]
        assert decomp.recoveries == 1
        assert decomp.open_desyncs == 0

    def test_vanilla_ack_recovers_out_of_band(self):
        _, decomp = self.desynced_pair()
        decomp.note_vanilla_ack(ack(7300, ts=12))
        assert decomp.recoveries == 1
        assert decomp.open_desyncs == 0
        assert not decomp._damage_marks

    def test_stale_vanilla_ack_does_not_recover(self):
        """Only a vanilla ACK that re-anchors the state repairs it."""
        _, decomp = self.desynced_pair()
        decomp.note_vanilla_ack(ack(1000, ts=5))   # behind the state
        assert decomp.recoveries == 0
        assert decomp.open_desyncs == 1

    def test_recovery_latency_measured(self):
        clock = FakeClock()
        clock.now = 1_000_000
        comp, decomp = self.desynced_pair(clock)
        clock.now = 5_000_000  # 4 ms pass before the repair lands
        comp.rebase_all()
        e2 = comp.compress(ack(4380, ts=11))
        decomp.decompress_frame(build_frame([e2]))
        assert decomp.recoveries == 1
        assert decomp.recovery_ns_total == 4_000_000
        assert decomp.recovery_frames_total == 1
        block = decomp.robustness_counters()
        assert block["recovery_ns_total"] == 4_000_000

    def test_released_flow_closes_the_mark_without_recovery(self):
        _, decomp = self.desynced_pair()
        assert decomp.release_flow(FT)
        assert decomp.open_desyncs == 0
        assert decomp.recoveries == 0
        assert decomp.released_desyncs == 1

    def test_open_desyncs_sum_their_ages(self):
        clock = FakeClock()
        clock.now = 1_000_000
        _, decomp = self.desynced_pair(clock)
        clock.now = 3_500_000
        assert decomp.open_desync_ns_total == 2_500_000
        assert decomp.robustness_counters()["open_desync_ns_total"] \
            == 2_500_000


class TestDesyncBook:
    def test_every_desync_is_recovered_open_or_released(self):
        """``desync_events == recoveries + open_desyncs +
        released_desyncs`` after each step of a three-flow history."""
        flows = [FiveTuple("10.0.0.1", "10.0.1.1", 5001 + i, 80)
                 for i in range(3)]
        comp, decomp = Compressor(), Decompressor()

        def balanced():
            block = decomp.robustness_counters()
            return block["desync_events"] == (
                block["recoveries"] + block["open_desyncs"]
                + block["released_desyncs"])

        for ft in flows:
            first = ack(1460, ft=ft)
            comp.note_vanilla_ack(first)
            decomp.note_vanilla_ack(first)
        for ft in flows:
            bad = corrupt([comp.compress(ack(2920, ft=ft))])
            decomp.decompress_frame(bad)
            decomp.decompress_frame(bad)
            assert balanced()
        assert decomp.open_desyncs == 3
        decomp.note_vanilla_ack(ack(7300, ts=12, ft=flows[0]))
        assert balanced() and decomp.recoveries == 1
        assert decomp.release_flow(flows[1])
        assert balanced() and decomp.released_desyncs == 1
        assert decomp.open_desyncs == 1 and decomp.desync_events == 3


class TestInternalErrorContainment:
    def test_apply_crash_is_counted_not_raised(self, monkeypatch):
        comp, decomp = linked_pair()
        e1 = comp.compress(ack(2920))
        frame = build_frame([e1])
        monkeypatch.setattr(
            "repro.rohc.decompressor.apply_entry",
            lambda *a: (_ for _ in ()).throw(RuntimeError("boom")))
        assert decomp.decompress_frame(frame) == []
        assert decomp.internal_errors == 1

    def test_parse_crash_is_counted_not_raised(self, monkeypatch):
        _, decomp = linked_pair()
        monkeypatch.setattr(
            "repro.rohc.decompressor.parse_frame",
            lambda *a: (_ for _ in ()).throw(RuntimeError("boom")))
        assert decomp.decompress_frame(b"\x01\x00\x00") == []
        assert decomp.internal_errors == 1
