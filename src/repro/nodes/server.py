"""The wired TCP server (and UDP source) behind the AP.

Matches the paper's simulated topology: "several clients connect via
802.11n WiFi to a server located nearby on a high-speed LAN" — the
server reaches the AP over a 500 Mbit/s, 1 ms wired link.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim.engine import Simulator
from ..sim.wired import WiredLink
from ..tcp.receiver import TcpReceiver
from ..tcp.segment import TcpSegment, UdpDatagram
from ..tcp.sender import TcpSender


class ServerNode:
    """Hosts TCP senders (downloads), receivers (uploads), UDP sources."""

    def __init__(self, sim: Simulator, name: str = "SRV"):
        self.sim = sim
        self.name = name
        self.link: Optional[WiredLink] = None
        self._send = None  # the downlink pipe's send, once attached
        self.senders: Dict[int, TcpSender] = {}
        self.receivers: Dict[int, TcpReceiver] = {}

    def attach_link(self, link: WiredLink) -> None:
        self.link = link
        self._send = link.sender_for(self)

    # ------------------------------------------------------------------
    def add_sender(self, sender: TcpSender) -> TcpSender:
        self.senders[sender.flow_id] = sender
        return sender

    def add_receiver(self, receiver: TcpReceiver) -> TcpReceiver:
        self.receivers[receiver.flow_id] = receiver
        return receiver

    def remove_sender(self, flow_id: int) -> Optional[TcpSender]:
        """Detach a completed flow's sender (late ACKs are ignored)."""
        return self.senders.pop(flow_id, None)

    def remove_receiver(self, flow_id: int) -> Optional[TcpReceiver]:
        """Detach a completed flow's receiver."""
        return self.receivers.pop(flow_id, None)

    def send(self, packet: Any) -> None:
        """Transmit a packet toward the AP over the wired link."""
        assert self._send is not None, "server link not attached"
        self._send(packet)

    # ------------------------------------------------------------------
    def receive_wired(self, packet: Any) -> None:
        """Packets arriving from the AP (TCP ACKs, upload data)."""
        if isinstance(packet, TcpSegment):
            if packet.is_pure_ack:
                sender = self.senders.get(packet.flow_id)
                if sender is not None:
                    sender.on_ack(packet)
            else:
                receiver = self.receivers.get(packet.flow_id)
                if receiver is not None:
                    receiver.on_segment(packet)
        # UDP arriving at the server is not used by any experiment.


class UdpSource:
    """Constant-bit-rate UDP generator (the paper's UDP baseline)."""

    def __init__(self, sim: Simulator, server: ServerNode, dst: str,
                 rate_mbps: float, payload_bytes: int = 1472):
        self.sim = sim
        self.server = server
        self.dst = dst
        self.rate_mbps = rate_mbps
        self.payload_bytes = payload_bytes
        self.packets_sent = 0
        datagram_bits = (payload_bytes + 28) * 8
        self.interval_ns = int(datagram_bits * 1000 / rate_mbps)

    def start(self) -> None:
        self._emit()

    def _emit(self) -> None:
        self.server.send(UdpDatagram(
            src=self.server.name, dst=self.dst,
            payload_bytes=self.payload_bytes, seq=self.packets_sent))
        self.packets_sent += 1
        self.sim.schedule(self.interval_ns, self._emit)
