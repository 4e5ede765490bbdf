"""End-to-end reproductions of the paper's loss scenarios (Figs 5-8).

A real AP-side MAC+driver talks to a real client-side MAC+driver over
the simulated medium, with control-frame losses injected by script.
The client auto-generates TCP ACKs for arriving data (a stand-in for
its TCP stack), and the tests verify the retention / SYNC / flush
rules deliver every TCP ACK exactly once to the AP.
"""

from typing import List

import pytest

from repro.core.driver import HackDriver
from repro.core.policies import HackConfig, HackPolicy
from repro.mac.dcf import DcfMac
from repro.mac.params import MacParams
from repro.phy.params import PHY_11A, PHY_11N
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.units import usec
from repro.tcp.segment import FiveTuple, TcpSegment

FT = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)


class ScriptedControlLoss:
    """Loses the i-th LL response (ACK / Block ACK) sent by the
    client when script[i] is True — the frames the Fig 5-8 scenarios
    lose."""

    def __init__(self, script: List[bool] = ()):
        self.script = list(script)
        self.seen = 0

    def is_lost(self, sender, receiver, frame):
        from repro.mac.frames import AckFrame, BlockAckFrame
        if not isinstance(frame, (AckFrame, BlockAckFrame)):
            return False
        if getattr(frame, "src", None) != "C1":
            return False
        index = self.seen
        self.seen += 1
        if index < len(self.script):
            return self.script[index]
        return False

    def ppdu_lost(self, sender, receiver, frame):
        return False

    def mpdu_lost(self, sender, receiver, mpdu, rate):
        return False


class ApSide:
    """AP node double: counts TCP ACKs arriving (vanilla or HACK)."""

    def __init__(self):
        self.acks_received = []

    def on_packets_received(self, packets, sender):
        self.acks_received.extend(
            packet.ack for packet in packets
            if isinstance(packet, TcpSegment) and packet.is_pure_ack)


class ClientSide:
    """Client node double: ACKs every data segment after a stack delay."""

    def __init__(self, sim, driver, delayed_ack=False):
        self.sim = sim
        self.driver = driver
        self.delayed_ack = delayed_ack
        self.rcv_nxt = 0
        self.pending = 0
        self.data_received = []
        self.ts = 100

    def on_packets_received(self, packets, sender):
        for packet in packets:
            self.on_packet_received(packet, sender)

    def on_packet_received(self, packet, sender):
        if not isinstance(packet, TcpSegment) or packet.is_pure_ack:
            return
        self.data_received.append(packet.seq)
        self.rcv_nxt = max(self.rcv_nxt, packet.end_seq)
        self.pending += 1
        if not self.delayed_ack or self.pending >= 2:
            self.pending = 0
            self.sim.schedule(usec(100), self._emit_ack, self.rcv_nxt)

    def _emit_ack(self, ack_no):
        self.ts += 1
        ack = TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                         payload_bytes=0, ack=ack_no, rwnd=65535,
                         ts_val=self.ts, ts_ecr=self.ts - 1,
                         five_tuple=FT)
        self.driver.send_packet(ack, "AP")


def tcp_data(seq):
    return TcpSegment(flow_id=1, src="SRV", dst="C1", seq=seq,
                      payload_bytes=1460, ack=0, rwnd=0,
                      five_tuple=FT.reversed())


class Rng:
    def __init__(self):
        self.n = 0

    def randint(self, lo, hi):
        # Deterministic, desynchronised backoffs.
        self.n += 1
        return (self.n * 3) % (hi - lo + 1) + lo


def build_testbed(loss_script=(), aggregation=True, delayed_ack=False,
                  bar_retry_limit=7):
    sim = Simulator()
    loss = ScriptedControlLoss(loss_script)
    medium = Medium(sim, loss_model=loss)
    phy = PHY_11N if aggregation else PHY_11A
    rate = 150.0 if aggregation else 54.0

    def make(addr):
        # Small batches (4 MPDUs) so that multi-batch exchanges — and
        # hence the MORE DATA bit — occur with test-sized workloads.
        params = MacParams(data_rate_mbps=rate, aggregation=aggregation,
                           bar_retry_limit=bar_retry_limit,
                           ampdu_max_mpdus=4)
        mac = DcfMac(sim, medium, phy, addr, params, Rng(),
                     loss_model=loss)
        driver = HackDriver(
            sim, mac, HackConfig.for_policy(HackPolicy.MORE_DATA))
        return mac, driver

    ap_mac, ap_driver = make("AP")
    client_mac, client_driver = make("C1")
    ap = ApSide()
    ap_driver.node = ap
    client = ClientSide(sim, client_driver, delayed_ack=delayed_ack)
    client_driver.node = client
    return sim, medium, (ap_mac, ap_driver, ap), \
        (client_mac, client_driver, client)


def feed(ap_mac, n, start=0):
    for i in range(n):
        ap_mac.enqueue(tcp_data((start + i) * 1460), "C1")


class TestLosslessBaseline:
    def test_all_acks_arrive_via_hack(self):
        sim, _, (ap_mac, ap_driver, ap), (_, cd, client) = \
            build_testbed()
        feed(ap_mac, 8)
        sim.run()
        assert len(client.data_received) == 8
        # First ACK vanilla (context init); every ACK number arrives.
        assert ap.acks_received[-1] == 8 * 1460
        assert cd.stats.hack_frames_attached > 0
        assert ap_driver.decompressor_counters()["crc_failures"] == 0

    def test_no_duplicate_acks_delivered(self):
        sim, _, (ap_mac, _, ap), _ = build_testbed()
        feed(ap_mac, 10)
        sim.run()
        assert len(ap.acks_received) == len(set(ap.acks_received))


class TestFig5BlockAckLoss:
    def test_lost_block_ack_recovered_by_retention(self):
        # Fig 5(a): the Block ACK carrying compressed TCP ACKs is lost;
        # the AP sends a BAR; the re-sent Block ACK carries the same
        # compressed ACKs; the AP deduplicates.
        # Control frames: [BA(batch1)] lost.
        sim, medium, (ap_mac, ap_driver, ap), (_, cd, client) = \
            build_testbed(loss_script=[False, True])
        # 1st control frame: BA of batch 1 (no hack yet) - keep.
        # Script: feed two batches; exact indices depend on schedule,
        # so instead lose the *second* control frame (the Block ACK
        # that would carry compressed ACKs 1..k).
        feed(ap_mac, 6)
        sim.run()
        counters = ap_driver.decompressor_counters()
        assert ap.acks_received[-1] == 6 * 1460
        assert len(ap.acks_received) == len(set(ap.acks_received))
        assert counters["crc_failures"] == 0

    def test_repeated_block_ack_loss(self):
        script = [False, True, True, True, False, False, False]
        sim, _, (ap_mac, ap_driver, ap), _ = build_testbed(
            loss_script=script)
        feed(ap_mac, 10)
        sim.run()
        assert ap.acks_received[-1] == 10 * 1460
        assert len(ap.acks_received) == len(set(ap.acks_received))
        assert ap_driver.decompressor_counters()["crc_failures"] == 0


class TestFig5bSingleAckLoss:
    def test_lost_ll_ack_802_11a(self):
        # Fig 5(b): single-MPDU mode; an LL ACK carrying a compressed
        # TCP ACK is lost; the AP retransmits the MPDU (same seq); the
        # client's re-sent LL ACK carries the same compressed ACK.
        script = [False, False, True, False, False, False, False]
        sim, _, (ap_mac, ap_driver, ap), (_, _, client) = build_testbed(
            loss_script=script, aggregation=False)
        feed(ap_mac, 5)
        sim.run()
        assert len(client.data_received) == 5
        assert ap.acks_received[-1] == 5 * 1460
        assert len(ap.acks_received) == len(set(ap.acks_received))
        assert ap_driver.decompressor_counters()["crc_failures"] == 0


class TestFig8SyncBit:
    def test_sync_preserves_compressed_acks(self):
        # Lose the Block ACK and all BAR-elicited Block ACKs so the AP
        # exhausts its BAR retries and moves on with SYNC set; the
        # client must retain and re-attach its compressed ACKs.
        sim, _, (ap_mac, ap_driver, ap), (_, cd, client) = \
            build_testbed(loss_script=[False] + [True] * 9,
                          bar_retry_limit=3)
        feed(ap_mac, 6)
        sim.run()
        # Despite the giant loss burst the ACK stream recovers.
        assert ap.acks_received
        assert ap.acks_received[-1] == 6 * 1460
        assert cd.stats.sync_events >= 1
        assert ap_driver.decompressor_counters()["crc_failures"] == 0


class TestFig7FlushToVanilla:
    def test_unlatch_then_vanilla_cumulative_covers(self):
        # Feed one batch with no follow-up: MORE DATA clear, the
        # compressed ACKs ride the final Block ACK; if that is lost the
        # next vanilla ACKs (cumulative) cover the gap.
        sim, _, (ap_mac, ap_driver, ap), (_, cd, client) = \
            build_testbed(loss_script=[True, True])
        feed(ap_mac, 4)
        sim.run()
        # Feed a second wave: ACKs resume vanilla, cumulative numbers
        # cover anything lost.
        feed(ap_mac, 4, start=4)
        sim.run()
        assert ap.acks_received
        assert max(ap.acks_received) == 8 * 1460
        assert ap_driver.decompressor_counters()["crc_failures"] == 0


@pytest.mark.parametrize("seed_script", [
    [True, False, True, False, True],
    [False, True, True, False, False, True],
    [True] * 5 + [False] * 5,
])
class TestAckDeliveryInvariant:
    def test_final_ack_always_arrives(self, seed_script):
        """Invariant: whatever control frames are lost, the highest
        cumulative ACK eventually reaches the AP, with zero CRC
        failures and no duplicate reinjections."""
        sim, _, (ap_mac, ap_driver, ap), _ = build_testbed(
            loss_script=seed_script)
        feed(ap_mac, 12)
        sim.run()
        assert ap.acks_received
        assert max(ap.acks_received) == 12 * 1460
        assert len(ap.acks_received) == len(set(ap.acks_received))
        counters = ap_driver.decompressor_counters()
        assert counters["crc_failures"] == 0
