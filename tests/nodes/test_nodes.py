"""Node layer: server routing, AP bridging, client stack delay."""

import random

import pytest

from repro.core.driver import HackDriver
from repro.core.policies import HackConfig, HackPolicy
from repro.mac.dcf import DcfMac
from repro.mac.params import MacParams
from repro.nodes.ap import ApNode
from repro.nodes.client import STACK_DELAY_NS, ClientNode
from repro.nodes.server import ServerNode, UdpSource
from repro.phy.params import PHY_11N
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.units import MS, SEC, usec
from repro.sim.wired import WiredLink
from repro.tcp.receiver import TcpReceiver
from repro.tcp.segment import TcpSegment, UdpDatagram
from repro.tcp.sender import TcpSender


class FakeMac:
    def __init__(self):
        self.upper = None
        self.sent = []

    def enqueue(self, payload, dst):
        self.sent.append((payload, dst))
        return True

    def remove_from_queue(self, dst, predicate):
        return []


def vanilla_driver(sim):
    return HackDriver(sim, FakeMac(),
                      HackConfig.for_policy(HackPolicy.VANILLA))


def data_segment(flow_id=1, seq=0, dst="C1"):
    return TcpSegment(flow_id=flow_id, src="SRV", dst=dst, seq=seq,
                      payload_bytes=1460, ack=0, rwnd=0, ts_val=1)


def ack_segment(flow_id=1, ack=1460):
    return TcpSegment(flow_id=flow_id, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack, rwnd=65535)


class TestServer:
    def test_routes_acks_to_flow_sender(self, sim):
        server = ServerNode(sim)
        sent = []
        sender = TcpSender(sim, 1, "SRV", "C1", output=sent.append)
        server.add_sender(sender)
        sender.start()
        server.receive_wired(ack_segment(ack=1460))
        assert sender.snd_una == 1460

    def test_unknown_flow_ignored(self, sim):
        server = ServerNode(sim)
        server.receive_wired(ack_segment(flow_id=99))  # no crash

    def test_routes_upload_data_to_receiver(self, sim):
        server = ServerNode(sim)
        acks = []
        receiver = TcpReceiver(sim, 1, "SRV", "C1", output=acks.append,
                               delayed_ack=False)
        server.add_receiver(receiver)
        upload = TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                            payload_bytes=1000, ack=0, rwnd=0)
        server.receive_wired(upload)
        assert receiver.bytes_delivered == 1000
        assert len(acks) == 1


class TestUdpSource:
    def test_cbr_pacing(self, sim):
        server = ServerNode(sim)
        sent_times = []

        class Link:
            def sender_for(self, endpoint):
                return lambda packet: sent_times.append(sim.now)

        server.attach_link(Link())
        source = UdpSource(sim, server, "C1", rate_mbps=12.0)
        source.start()
        sim.run(until=10 * MS)
        # 12 Mbps / 12000 bits per datagram = 1000 pkts/s = 10 in 10ms.
        assert len(sent_times) == pytest.approx(10, abs=1)
        gaps = {b - a for a, b in zip(sent_times, sent_times[1:])}
        assert len(gaps) == 1  # constant bit rate


class TestApBridge:
    def test_wired_to_wifi(self, sim):
        driver = vanilla_driver(sim)
        ap = ApNode(sim, driver)
        segment = data_segment(dst="C2")
        ap.receive_wired(segment)
        assert driver.mac.sent == [(segment, "C2")]

    def test_wifi_to_wired(self, sim):
        driver = vanilla_driver(sim)
        ap = ApNode(sim, driver)
        server = ServerNode(sim)
        link = WiredLink(sim, server, ap, 500.0, usec(10))
        ap.attach_link(link)
        sent = []
        sender = TcpSender(sim, 1, "SRV", "C1", output=sent.append)
        server.add_sender(sender)
        sender.start()
        ap.on_packets_received([ack_segment(ack=1460)], "C1")
        sim.run()
        assert sender.snd_una == 1460

    def test_drop_counted(self, sim):
        """An AP tail drop is counted once, by the AP's MAC."""
        mac = DcfMac(sim, Medium(sim), PHY_11N, "AP",
                     MacParams(queue_limit=0), random.Random(1))
        ap = ApNode(sim, HackDriver(
            sim, mac, HackConfig.for_policy(HackPolicy.VANILLA)))
        ap.receive_wired(data_segment())
        assert mac.qdisc_stats.tail_drops == 1
        assert mac.qdisc_stats.enqueued == 0


class TestClient:
    def make(self, sim):
        driver = vanilla_driver(sim)
        client = ClientNode(sim, driver, "C1")
        return client, driver

    def test_stack_delay_applied(self, sim):
        client, _ = self.make(sim)
        acks = []
        receiver = TcpReceiver(sim, 1, "C1", "SRV", output=acks.append,
                               delayed_ack=False)
        client.add_receiver(receiver)
        client.on_packets_received([data_segment()], "AP")
        sim.run(until=STACK_DELAY_NS - 1)
        assert receiver.bytes_delivered == 0
        sim.run(until=STACK_DELAY_NS + 1)
        assert receiver.bytes_delivered == 1460
        assert len(acks) == 1

    def test_burst_staggering(self, sim):
        client, _ = self.make(sim)
        times = []
        receiver = TcpReceiver(sim, 1, "C1", "SRV", output=lambda a: None)
        on_segment = receiver.on_segment
        receiver.on_segment = lambda segment: (times.append(sim.now),
                                               on_segment(segment))
        client.add_receiver(receiver)
        client.on_packets_received(
            [data_segment(seq=i * 1460) for i in range(3)], "AP")
        sim.run()
        assert len(set(times)) == 3  # per-packet processing cost

    def test_udp_sink(self, sim):
        client, _ = self.make(sim)
        client.on_packets_received(
            [UdpDatagram(src="SRV", dst="C1", payload_bytes=1472)], "AP")
        sim.run()
        assert client.udp_bytes == 1472
        assert client.udp_packets == 1

    def test_upload_ack_routing(self, sim):
        client, _ = self.make(sim)
        sent = []
        sender = TcpSender(sim, 1, "C1", "SRV", output=sent.append)
        client.add_sender(sender)
        sender.start()
        ack = TcpSegment(flow_id=1, src="SRV", dst="C1", seq=0,
                         payload_bytes=0, ack=1460, rwnd=65535)
        client.on_packets_received([ack], "AP")
        sim.run()
        assert sender.snd_una == 1460

    def test_transmit_goes_to_driver(self, sim):
        client, driver = self.make(sim)
        client.transmit(ack_segment())
        assert driver.mac.sent[0][1] == "AP"
