"""SACK-based sender recovery (simplified RFC 6675)."""

import pytest

from repro.sim.engine import Simulator
from repro.tcp.segment import TcpSegment
from repro.tcp.sender import TcpSender

MSS = 1460


def make_sender(sim, cwnd=10):
    sent = []
    sender = TcpSender(sim, 1, "SRV", "C1", output=sent.append,
                       initial_cwnd_segments=cwnd, use_sack=True)
    return sender, sent


def ack(ack_no, sack=()):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack_no, rwnd=1 << 30,
                      sack_blocks=tuple(sack))


class TestScoreboard:
    def test_blocks_merge(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sender._register_sack(((MSS, 2 * MSS), (2 * MSS, 3 * MSS)))
        assert sender._sack_scoreboard == [(MSS, 3 * MSS)]

    def test_blocks_below_una_dropped(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sender.snd_una = 2 * MSS
        sender._register_sack(((0, MSS),))
        assert sender._sack_scoreboard == []

    def test_holes_enumerated_per_mss(self, sim):
        sender, _ = make_sender(sim)
        sender.start()
        sender._register_sack(((2 * MSS, 3 * MSS), (4 * MSS, 5 * MSS)))
        holes = sender._sack_holes()
        assert holes == [(0, MSS), (MSS, MSS), (3 * MSS, MSS)]


class TestRecovery:
    def lose_segments(self, sim, lost):
        """Simulate a window where `lost` (set of indices) are dropped:
        feed dup ACKs carrying the SACKs a real receiver would send."""
        sender, sent = make_sender(sim, cwnd=10)
        sender.start()
        assert len(sent) == 10
        received = [i for i in range(10) if i not in lost]
        blocks = []
        events = []
        for i in received:
            if i == 0 and 0 not in lost:
                continue  # would advance cumulative ACK
            blocks.append((i * MSS, (i + 1) * MSS))
            merged = self.merge(blocks)
            events.append(ack(0, sack=tuple(merged[:3])))
        # Tail dup ACKs: the receiver keeps dup-ACKing while holes
        # remain, which is what clocks out the later retransmissions.
        final_sack = tuple(self.merge(blocks)[:3])
        for _ in range(4):
            events.append(ack(0, sack=final_sack))
        for event in events:
            sender.on_ack(event)
        return sender, sent

    @staticmethod
    def merge(blocks):
        out = []
        for start, end in sorted(blocks):
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        return out

    def test_multiple_holes_repaired_in_one_rtt(self, sim):
        # Segments 0, 3 and 6 lost: SACK recovery retransmits all
        # three without waiting for partial ACK round trips.
        sender, sent = self.lose_segments(sim, lost={0, 3, 6})
        retx = [s.seq for s in sent[10:]]
        assert 0 in retx and 3 * MSS in retx and 6 * MSS in retx

    def test_each_hole_retransmitted_once(self, sim):
        sender, sent = self.lose_segments(sim, lost={0, 3})
        retx = [s.seq for s in sent[10:]]
        assert retx.count(0) == 1
        assert retx.count(3 * MSS) == 1

    def test_no_inflation_in_sack_mode(self, sim):
        sender, sent = self.lose_segments(sim, lost={0})
        assert sender.in_recovery
        assert sender.cwnd == sender.ssthresh

    def test_full_ack_exits_and_clears(self, sim):
        sender, sent = self.lose_segments(sim, lost={0})
        recover_point = sender.recover
        sender.on_ack(ack(recover_point))
        assert not sender.in_recovery
        assert sender._sack_scoreboard == []
        assert not sender._sack_retransmitted

    def test_new_data_flows_on_pipe_space(self, sim):
        # SACKed bytes leave the pipe, freeing window for new data
        # even before recovery completes.
        sender, sent = self.lose_segments(sim, lost={0})
        new_data = [s.seq for s in sent[10:] if s.seq >= 10 * MSS]
        assert new_data  # something new was sent during recovery

    def test_rto_discards_scoreboard(self, sim):
        from repro.sim.units import SEC
        sender, sent = make_sender(sim)
        sender.start()
        sender._register_sack(((MSS, 2 * MSS),))
        sim.run(until=3 * SEC)
        assert sender.timeouts >= 1
        assert sender._sack_scoreboard == []


class TestEndToEnd:
    def test_sack_survives_heavy_tcp_visible_loss(self):
        from repro import HackPolicy, ScenarioConfig
        from repro.sim.units import SEC
        from repro.workloads.scenarios import build_simulation, collect
        world = build_simulation(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0,
            policy=HackPolicy.MORE_DATA,
            ap_queue_per_client=30,  # small queue: real TCP drops
            duration_ns=2 * SEC, warmup_ns=1 * SEC, stagger_ns=0))
        # SACK is no scenario knob: switch it on in the built world.
        for flow in world.flows:
            flow.sender.use_sack = flow.receiver.generate_sack = True
        world.run()
        res = collect(world)
        assert res.aggregate_goodput_mbps > 40
        assert res.decomp_counters["crc_failures"] == 0
