"""Receiver: delayed ACKs, dup ACKs, reordering, SACK generation."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.units import SEC
from repro.tcp.receiver import DELACK_TIMEOUT_NS, RWND_BYTES, TcpReceiver
from repro.tcp.segment import TcpSegment

MSS = 1460


def make_receiver(sim, **kw):
    acks = []
    receiver = TcpReceiver(sim, 1, "C1", "SRV", output=acks.append, **kw)
    return receiver, acks


def data(seq, length=MSS, ts_val=7):
    return TcpSegment(flow_id=1, src="SRV", dst="C1", seq=seq,
                      payload_bytes=length, ack=0, rwnd=0, ts_val=ts_val)


class TestDelayedAck:
    def test_every_second_segment_acked(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(0))
        assert acks == []
        receiver.on_segment(data(MSS))
        assert len(acks) == 1
        assert acks[0].ack == 2 * MSS

    def test_delack_timer_fires(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(0))
        sim.run(until=DELACK_TIMEOUT_NS - 1)
        assert acks == []
        sim.run(until=SEC)
        assert len(acks) == 1
        assert acks[0].ack == MSS

    def test_disabled_delayed_ack(self, sim):
        receiver, acks = make_receiver(sim, delayed_ack=False)
        receiver.on_segment(data(0))
        assert len(acks) == 1

    def test_ack_carries_rwnd_and_ts(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(0, ts_val=99))
        receiver.on_segment(data(MSS, ts_val=100))
        assert acks[0].rwnd == RWND_BYTES
        assert acks[0].ts_ecr == 100
        assert acks[0].is_pure_ack


class TestReordering:
    def test_out_of_order_dup_ack(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(MSS))  # hole at 0
        assert len(acks) == 1
        assert acks[0].ack == 0
        assert receiver.dup_acks_sent == 1

    def test_hole_fill_delivers_all(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(MSS))
        receiver.on_segment(data(2 * MSS))
        receiver.on_segment(data(0))
        assert receiver.rcv_nxt == 3 * MSS
        assert receiver.bytes_delivered == 3 * MSS
        assert acks[-1].ack == 3 * MSS

    def test_duplicate_segment_reacked(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(0))
        receiver.on_segment(data(MSS))
        count = len(acks)
        receiver.on_segment(data(0))  # duplicate
        assert receiver.duplicates_received == 1
        assert len(acks) == count + 1
        assert receiver.bytes_delivered == 2 * MSS

    def test_partial_hole_fill_acks_immediately(self, sim):
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(2 * MSS))  # ooo
        receiver.on_segment(data(0))        # fills part of hole
        assert acks[-1].ack == MSS

    def test_delivered_bytes_counted(self, sim):
        receiver, _ = make_receiver(sim)
        receiver.on_segment(data(0))
        assert receiver.bytes_delivered == MSS
        receiver.on_segment(data(2 * MSS))      # out of order: held
        assert receiver.bytes_delivered == MSS
        receiver.on_segment(data(MSS))          # fills the hole
        assert receiver.bytes_delivered == 3 * MSS


class TestSack:
    def test_no_sack_by_default(self, sim):
        """ACKs carry no SACK blocks, holes or not (the paper's
        NewReno)."""
        receiver, acks = make_receiver(sim)
        receiver.on_segment(data(2 * MSS))
        receiver.on_segment(data(5 * MSS))
        receiver.on_segment(data(0))
        assert len(acks) == 3
        assert all(ack.sack_blocks == () for ack in acks)


class TestAckClock:
    def test_burst_produces_half_as_many_acks(self, sim):
        # 42 segments arriving back-to-back (an A-MPDU's worth) must
        # produce 21 ACKs under delayed ACK — the paper's assumption.
        receiver, acks = make_receiver(sim)
        for i in range(42):
            receiver.on_segment(data(i * MSS))
        assert len(acks) == 21
        assert acks[-1].ack == 42 * MSS
