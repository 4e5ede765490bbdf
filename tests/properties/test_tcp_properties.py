"""Property-based TCP sender invariants.

A model receiver acks a randomly lossy, occasionally reordered copy of
everything the NewReno sender emits with cumulative ACKs only (the
paper's TCP carries no SACK); after every ACK and every idle stretch
the sender must hold its structural invariants (ordered sequence
space, cwnd >= 1 MSS, an RTO and an armed retransmission timer within
the RTO ceiling), and every transfer must eventually complete with
recovery exited."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC
from repro.tcp.segment import TcpSegment
from repro.tcp.sender import TcpSender

MSS = 1460
TOTAL = 30 * MSS


def ack_segment(ack, ts_ecr):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack, rwnd=1 << 30,
                      ts_ecr=ts_ecr)


class ModelReceiver:
    """Tracks received byte ranges; its ACK is the cumulative one."""

    def __init__(self):
        self.ranges = []

    def deliver(self, segment):
        self.ranges.append(
            (segment.seq, segment.seq + segment.payload_bytes))
        self.ranges.sort()
        merged = []
        for start, end in self.ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0],
                              max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self.ranges = merged

    @property
    def cum_ack(self):
        if self.ranges and self.ranges[0][0] == 0:
            return self.ranges[0][1]
        return 0


def check_invariants(sender):
    assert sender.snd_una <= sender.snd_nxt
    assert sender.cwnd >= sender.mss
    assert sender.rto_ns <= sender.max_rto_ns
    deadline = sender._rto_timer.deadline
    if deadline is not None:
        assert deadline - sender.sim.now <= sender.max_rto_ns


class TestSenderInvariants:
    @settings(max_examples=40, deadline=None)
    @given(drops=st.lists(st.booleans(), max_size=60),
           swaps=st.lists(st.booleans(), max_size=30),
           cc=st.sampled_from(["reno", "cubic"]),
           pacing=st.booleans(),
           max_rto=st.sampled_from([60 * SEC, 1 * SEC, 300 * MS]))
    def test_invariants_hold_and_transfer_completes(
            self, drops, swaps, cc, pacing, max_rto):
        sim = Simulator()
        sent = []
        sender = TcpSender(sim, 1, "SRV", "C1", output=sent.append,
                           total_bytes=TOTAL,
                           initial_cwnd_segments=10, max_rto_ns=max_rto,
                           cc=cc, pacing=pacing)
        receiver = ModelReceiver()
        sender.start()
        drop_iter, swap_iter = iter(drops), iter(swaps)
        delivered = 0
        for _ in range(600):
            if sender.completed:
                break
            if delivered < len(sent):
                batch = sent[delivered:delivered + 2]
                if len(batch) == 2 and next(swap_iter, False):
                    batch = batch[::-1]     # reorder in flight
                delivered += len(batch)
                for segment in batch:
                    if segment.payload_bytes \
                            and not next(drop_iter, False):
                        receiver.deliver(segment)
                    sender.on_ack(
                        ack_segment(receiver.cum_ack, segment.ts_val))
                    check_invariants(sender)
            else:
                # Everything acked-or-dropped is in: let the RTO (and
                # any pacing timer) clock out repairs.
                sim.run(until=sim.now + 2 * SEC)
                check_invariants(sender)
        assert sender.completed
        assert not sender.in_recovery
        assert sender.snd_una == TOTAL
