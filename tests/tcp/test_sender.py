"""NewReno sender: slow start, CA, fast retransmit/recovery, RTO."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC
from repro.tcp.segment import TcpSegment
from repro.tcp.sender import TcpSender

MSS = 1460


def make_sender(sim, total=None, **kw):
    sent = []
    sender = TcpSender(sim, 1, "SRV", "C1", output=sent.append,
                       total_bytes=total, **kw)
    return sender, sent


def ack_for(sender, ack, ts_ecr=0, rwnd=1 << 30):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack, rwnd=rwnd,
                      ts_val=0, ts_ecr=ts_ecr)


class TestSlowStart:
    def test_initial_window(self, sim):
        sender, sent = make_sender(sim, initial_cwnd_segments=2)
        sender.start()
        assert len(sent) == 2
        assert sent[0].seq == 0 and sent[1].seq == MSS

    def test_cwnd_grows_per_ack(self, sim):
        sender, sent = make_sender(sim)
        sender.start()
        sender.on_ack(ack_for(sender, MSS))
        assert sender.cwnd == 3 * MSS
        sender.on_ack(ack_for(sender, 2 * MSS))
        assert sender.cwnd == 4 * MSS

    def test_ack_releases_new_segments(self, sim):
        sender, sent = make_sender(sim)
        sender.start()
        sender.on_ack(ack_for(sender, 2 * MSS))
        # cwnd grew to 3 MSS (byte counting), una = 2 MSS: the highest
        # outstanding segment starts at 4 MSS.
        assert sent[-1].seq == 4 * MSS

    def test_delayed_ack_covering_two_segments(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sender.on_ack(ack_for(sender, 2 * MSS))
        # Byte counting caps growth at 1 MSS per ACK.
        assert sender.cwnd == 3 * MSS


class TestCongestionAvoidance:
    def test_linear_growth_past_ssthresh(self, sim):
        sender, _ = make_sender(sim, initial_ssthresh_bytes=4 * MSS)
        sender.cwnd = 4 * MSS
        sender.start()
        # One full window of ACKs grows cwnd by ~1 MSS.
        for i in range(1, 5):
            sender.on_ack(ack_for(sender, i * MSS))
        assert sender.cwnd == pytest.approx(5 * MSS, abs=MSS // 2)


class TestFastRetransmit:
    def prime(self, sim, segments=10):
        sender, sent = make_sender(sim, initial_cwnd_segments=segments)
        sender.start()
        assert len(sent) == segments
        return sender, sent

    def test_three_dupacks_trigger_retransmit(self, sim):
        sender, sent = self.prime(sim)
        before = len(sent)
        for _ in range(3):
            sender.on_ack(ack_for(sender, 0))
        retx = [s for s in sent[before:] if s.seq == 0]
        assert len(retx) == 1
        assert sender.fast_retransmits == 1
        assert sender.in_recovery

    def test_two_dupacks_do_not(self, sim):
        sender, sent = self.prime(sim)
        before = len(sent)
        for _ in range(2):
            sender.on_ack(ack_for(sender, 0))
        assert all(s.seq != 0 for s in sent[before:])

    def test_ssthresh_halves_flight(self, sim):
        sender, _ = self.prime(sim)
        flight = sender.flight_size
        for _ in range(3):
            sender.on_ack(ack_for(sender, 0))
        assert sender.ssthresh == flight // 2
        # RFC 6582: the window is inflated by the three segments the
        # dup ACKs say have left the network.
        assert sender.cwnd == sender.ssthresh + 3 * MSS

    def test_ssthresh_floor_is_two_segments(self, sim):
        sender, _ = self.prime(sim, segments=2)
        for _ in range(3):
            sender.on_ack(ack_for(sender, 0))
        assert sender.in_recovery
        assert sender.ssthresh == 2 * MSS   # half the flight is 1 MSS
        assert sender.cwnd == 5 * MSS

    def test_full_ack_exits_recovery(self, sim):
        sender, _ = self.prime(sim)
        recover_target = sender.snd_nxt
        for _ in range(3):
            sender.on_ack(ack_for(sender, 0))
        sender.on_ack(ack_for(sender, recover_target))
        assert not sender.in_recovery
        assert sender.cwnd == sender.ssthresh

    def test_partial_ack_retransmits_next_hole(self, sim):
        sender, sent = self.prime(sim)
        for _ in range(3):
            sender.on_ack(ack_for(sender, 0))
        before, cwnd = len(sent), sender.cwnd
        sender.on_ack(ack_for(sender, 2 * MSS))  # partial
        assert sender.in_recovery
        retx = [s for s in sent[before:] if s.seq == 2 * MSS]
        assert len(retx) == 1
        # RFC 6582 deflation: less what the ACK covered, plus one MSS.
        assert sender.cwnd == cwnd - 2 * MSS + MSS

    def test_dupacks_inflate_cwnd(self, sim):
        sender, _ = self.prime(sim)
        for _ in range(3):
            sender.on_ack(ack_for(sender, 0))
        cwnd = sender.cwnd
        sender.on_ack(ack_for(sender, 0))
        assert sender.cwnd == cwnd + MSS


class TestRto:
    def test_rto_fires_and_retransmits(self, sim):
        sender, sent = make_sender(sim)
        sender.start()
        sim.run(until=3 * SEC)
        assert sender.timeouts >= 1
        assert any(s.seq == 0 for s in sent[2:])
        assert sender.cwnd == MSS

    def test_rto_backoff_doubles(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sim.run(until=4 * SEC)
        assert sender.timeouts >= 2
        assert sender._backoff >= 4

    def test_ack_cancels_rto(self, sim):
        sender, _ = make_sender(sim, total=2 * MSS)
        sender.start()
        sender.on_ack(ack_for(sender, 2 * MSS))
        sim.run(until=5 * SEC)
        assert sender.timeouts == 0

    def test_rtt_sampling_from_timestamps(self, sim):
        sender, sent = make_sender(sim)
        sim.schedule(10 * MS, sender.start)
        sim.run(until=50 * MS)  # start at 10 ms, ack arrives at 50 ms
        ts = sent[0].ts_val
        assert ts == 10  # milliseconds
        sender.on_ack(ack_for(sender, MSS, ts_ecr=ts))
        assert sender.srtt_ns == pytest.approx(40 * MS, rel=0.1)
        assert sender.rto_ns >= sender.min_rto_ns


class TestFlowControl:
    def test_receiver_window_limits(self, sim):
        sender, sent = make_sender(sim, initial_cwnd_segments=10)
        sender.peer_rwnd = 3 * MSS
        sender.start()
        assert len(sent) == 3

    def test_window_update_releases(self, sim):
        sender, sent = make_sender(sim, initial_cwnd_segments=10)
        sender.peer_rwnd = 2 * MSS
        sender.start()
        sender.on_ack(ack_for(sender, 0, rwnd=8 * MSS))
        assert len(sent) > 2


class TestCompletion:
    def test_finite_transfer_completes(self, sim):
        done = []
        sender = TcpSender(sim, 1, "SRV", "C1",
                           output=lambda s: None, total_bytes=3 * MSS,
                           on_complete=lambda: done.append(sim.now))
        sender.start()
        sender.on_ack(ack_for(sender, 2 * MSS))
        sender.on_ack(ack_for(sender, 3 * MSS))
        assert sender.completed
        assert done

    def test_short_tail_segment(self, sim):
        sender, sent = make_sender(sim, total=MSS + 100)
        sender.start()
        assert sent[1].payload_bytes == 100

    def test_old_acks_ignored(self, sim):
        sender, sent = make_sender(sim)
        sender.start()
        sender.on_ack(ack_for(sender, 2 * MSS))
        count = len(sent)
        sender.on_ack(ack_for(sender, MSS))  # stale
        assert len(sent) == count
        assert sender.snd_una == 2 * MSS


#: What a sender is, for the differential test: its whole visible
#: state, its timers' deadlines, and the kernel's sequence counter (an
#: arm takes a sequence number, so a skipped or extra arm shows).
_STATE = ("snd_una", "snd_nxt", "cwnd", "ssthresh", "peer_rwnd",
          "_ca_acked_bytes", "dup_acks", "in_recovery", "recover",
          "_peer_ts_val", "srtt_ns", "rttvar_ns", "rto_ns", "_backoff",
          "_persist_backoff", "segments_sent", "retransmits", "timeouts",
          "fast_retransmits", "persist_probes", "completed")


def _snapshot(sender, sent):
    timers = (sender._rto_timer, sender._persist_timer,
              sender._pacing_timer)
    return ([getattr(sender, name) for name in _STATE],
            [timer.deadline for timer in timers],
            [(s.seq, s.payload_bytes, s.ts_val, s.ts_ecr) for s in sent],
            sender.sim.sequence, sender.sim.stats.scheduled)


class TestPlainAckAgainstTheGeneralPath:
    """``on_ack`` sends the common ACK — new, cumulative, window open,
    outside recovery, Reno without pacing — down
    ``_on_plain_new_ack``; a twin fed the same ACKs through ``_on_ack``
    (every ACK's path) must stay in the same state, timers and kernel
    sequence numbers included, whatever mix of new (whole or part of a
    segment), duplicate, old and zero-window ACKs, timeouts, RTOs at
    their ceiling and completions the stream brings."""

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(
               st.sampled_from(["new", "new", "new", "part", "dup",
                                "old"]),
               st.integers(1, 3),
               st.sampled_from([0, 3 * MSS, 1 << 20, 1 << 30]),
               st.integers(0, 400),
               st.sampled_from([0, 0, 1 * MS, 30 * MS, 900 * MS])),
               min_size=1, max_size=60),
           total=st.sampled_from([None, 40 * MSS, 40 * MSS + 100]),
           ssthresh=st.sampled_from([4 * MSS, 65_535]),
           max_rto=st.sampled_from([60 * SEC, 300 * MS]),
           variant=st.sampled_from([{}, {}, {"cc": "cubic"},
                                    {"pacing": True}]))
    def test_same_sender(self, steps, total, ssthresh, max_rto, variant):
        pair = []
        for _ in range(2):
            sim = Simulator()
            sender, sent = make_sender(
                sim, total=total, initial_ssthresh_bytes=ssthresh,
                min_rto_ns=50 * MS, max_rto_ns=max_rto, **variant)
            sender.start()
            pair.append((sim, sender, sent))
        (sim, fast, sent), (oracle_sim, oracle, oracle_sent) = pair
        for kind, segments, rwnd, echo_ms, wait in steps:
            if kind == "new":
                ack = min(fast.snd_una + segments * MSS, fast.snd_nxt)
            elif kind == "part":    # short of a whole segment
                ack = min(fast.snd_una + segments * 100, fast.snd_nxt)
            elif kind == "dup":
                ack = fast.snd_una
            else:
                ack = max(0, fast.snd_una - segments * MSS)
            echo = min(echo_ms, sim.now // MS)
            segment = TcpSegment(1, "C1", "SRV", 0, 0, ack, rwnd,
                                 sim.now // MS, echo)
            fast.on_ack(segment)
            if not oracle.completed:    # on_ack's own first test
                oracle._on_ack(segment)
            assert _snapshot(fast, sent) == _snapshot(oracle, oracle_sent)
            sim.run(until=sim.now + wait)
            oracle_sim.run(until=oracle_sim.now + wait)
            assert _snapshot(fast, sent) == _snapshot(oracle, oracle_sent)
