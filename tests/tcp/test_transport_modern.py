"""Modern-transport sender features and the correctness fixes that
shipped with them: the RTO-backoff ceiling, zero-window persist
probes, and sender pacing."""

import pytest

from repro.sim.units import MS, SEC
from repro.tcp.segment import TcpSegment
from repro.tcp.sender import TcpSender

from tests.helpers import pending_events

MSS = 1460


def make_sender(sim, total=None, **kw):
    sent = []
    sender = TcpSender(sim, 1, "SRV", "C1", output=sent.append,
                       total_bytes=total, **kw)
    return sender, sent


def ack_for(ack, ts_ecr=0, rwnd=1 << 30):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack, rwnd=rwnd,
                      ts_val=0, ts_ecr=ts_ecr)


class TestRtoBackoffCeiling:
    """Regression: rto_ns * backoff must respect max_rto_ns too
    (RFC 6298 §5.5) — rto_ns alone being clamped is not enough."""

    def test_backed_off_delay_clamped_to_max_rto(self, sim):
        sender, _ = make_sender(sim, min_rto_ns=200 * MS,
                                max_rto_ns=200 * MS)
        sender.start()
        sim.run(until=2 * SEC)
        # With the ceiling honoured the timer fires every 200 ms even
        # though the backoff multiplier keeps doubling; unclamped, the
        # 1 s initial RTO backs off to 1, 2, 4... s and only ~1 timeout
        # fits in two seconds.
        assert sender.timeouts >= 8
        assert sender._backoff >= 32

    def test_armed_event_never_beyond_ceiling(self, sim):
        sender, _ = make_sender(sim, max_rto_ns=1 * SEC)
        sender.start()
        sim.run(until=10 * SEC)
        assert sender.timeouts >= 2
        assert sender._rto_timer.armed
        assert sender._rto_timer.deadline - sim.now <= sender.max_rto_ns


class TestZeroWindowPersist:
    """Regression: a genuine rwnd=0 advertisement must stall the flow
    and fall back to persist probes, not be ignored."""

    def prime(self, sim):
        sender, sent = make_sender(sim, initial_cwnd_segments=10)
        sender.start()
        assert len(sent) == 10
        sender.on_ack(ack_for(10 * MSS, rwnd=0))
        return sender, sent

    def test_zero_window_stalls_new_data(self, sim):
        sender, sent = self.prime(sim)
        assert len(sent) == 10          # nothing released past the ACK
        assert sender.peer_rwnd == 0
        assert sender._persist_timer.armed

    def test_probe_is_one_byte_at_una(self, sim):
        sender, sent = self.prime(sim)
        sim.run(until=sender.rto_ns + MS)
        assert sender.persist_probes == 1
        probe = sent[-1]
        assert probe.payload_bytes == 1
        assert probe.seq == sender.snd_una

    def test_probe_backoff_doubles(self, sim):
        sender, _ = self.prime(sim)
        # rto_ns = 1 s: probes at ~1 s, 3 s (backoff 2), 7 s (4)...
        sim.run(until=7 * SEC + 10 * MS)
        assert sender.persist_probes == 3
        assert sender._persist_backoff == 8

    def test_window_reopen_resumes_and_resets(self, sim):
        sender, sent = self.prime(sim)
        sim.run(until=sender.rto_ns + MS)   # one probe out
        count = len(sent)
        sender.on_ack(ack_for(10 * MSS))
        assert len(sent) > count            # new data flows again
        assert not sender._persist_timer.armed
        assert sender._persist_backoff == 1

    def test_no_probe_when_no_data_pending(self, sim):
        sender, sent = make_sender(sim, total=2 * MSS)
        sender.start()
        sender.on_ack(ack_for(2 * MSS, rwnd=0))
        assert sender.completed
        assert not sender._persist_timer.armed
        sim.run(until=10 * SEC)
        assert sender.persist_probes == 0


class TestPacing:
    def prime(self, sim, **kw):
        sent = []
        sender = TcpSender(
            sim, 1, "SRV", "C1",
            output=lambda seg: sent.append((sim.now, seg)),
            pacing=True, **kw)
        return sender, sent

    def test_unpaced_before_first_rtt_sample(self, sim):
        sender, sent = self.prime(sim, initial_cwnd_segments=8)
        sender.start()
        assert len(sent) == 8
        assert len({t for t, _ in sent}) == 1   # one burst at t=0

    def establish_srtt(self, sim, sender, sent):
        sim.schedule(10 * MS, sender.start)
        sim.run(until=50 * MS)
        sender.on_ack(ack_for(8 * MSS, ts_ecr=sent[0][1].ts_val))
        assert sender.srtt_ns == pytest.approx(40 * MS, rel=0.1)

    def test_sends_spread_at_two_cwnd_per_srtt(self, sim):
        sender, sent = self.prime(sim, initial_cwnd_segments=8)
        self.establish_srtt(sim, sender, sent)
        sim.run(until=200 * MS)
        times = [t for t, _ in sent[8:]]
        assert len(times) == 9          # cwnd grew to 9 MSS, all sent
        gap = sender._pace_gap_ns()
        assert gap == 40 * MS * MSS // (2 * sender.cwnd)
        assert all(b - a >= gap for a, b in zip(times, times[1:]))

    def test_retransmit_bypasses_gate(self, sim):
        sender, sent = self.prime(sim, initial_cwnd_segments=8)
        self.establish_srtt(sim, sender, sent)
        sender._next_pace_ns = sim.now + SEC    # gate shut
        before = len(sent)
        # More data was queued at 8*MSS..; dup-ACK it three times.
        for _ in range(3):
            sender.on_ack(ack_for(8 * MSS))
        retx = [seg for _, seg in sent[before:] if seg.seq == 8 * MSS]
        assert len(retx) == 1
        assert sender.in_recovery

    def test_completion_cancels_pacing_timer(self, sim):
        sender, sent = self.prime(sim, total_bytes=12 * MSS,
                                  initial_cwnd_segments=8)
        self.establish_srtt(sim, sender, sent)
        sim.run(until=SEC)
        sender.on_ack(ack_for(12 * MSS))
        assert sender.completed
        assert not sender._pacing_timer.armed
        assert pending_events(sim) == 0

    def test_paced_transfer_still_completes(self, sim):
        done = []
        sender = TcpSender(sim, 1, "SRV", "C1", output=lambda s: None,
                           total_bytes=4 * MSS, pacing=True,
                           on_complete=lambda: done.append(sim.now))
        sender.start()
        sender.on_ack(ack_for(2 * MSS))
        sender.on_ack(ack_for(4 * MSS))
        assert sender.completed and done
