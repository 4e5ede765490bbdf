"""A WiFi client (station).

Models the host side of the paper's client: a protocol stack whose
processing delay is why TCP ACKs can never ride the Block ACK of the
A-MPDU that elicited them (§3.2) — received segments are handed to TCP
only after :data:`STACK_DELAY_NS`, far longer than SIFS.  A burst (the
MPDUs one PPDU released) goes up in one hand-off and rides one
:class:`~repro.sim.engine.Train`: each packet is still processed at
:data:`STACK_DELAY_NS` plus its place in the burst times
:data:`PER_PACKET_COST_NS`, but as a queue entry where it used to be
a scheduled event.

Holds TCP receivers (downloads), TCP senders (uploads), and a UDP sink.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..core.driver import HackDriver
from ..sim.engine import Simulator, Train
from ..sim.units import usec
from ..tcp.receiver import TcpReceiver
from ..tcp.segment import TcpSegment, UdpDatagram
from ..tcp.sender import TcpSender

#: Host stack processing delay before a received packet reaches TCP.
STACK_DELAY_NS = usec(100)
#: Added per packet of a burst, so a burst is processed one by one.
PER_PACKET_COST_NS = usec(1)


class ClientNode:
    """A wireless station attached to one AP."""

    def __init__(self, sim: Simulator, driver: HackDriver,
                 name: str, ap_name: str = "AP"):
        self.sim = sim
        self.name = name
        self.ap_name = ap_name
        self.driver = driver
        driver.node = self
        self.receivers: Dict[int, TcpReceiver] = {}
        self.senders: Dict[int, TcpSender] = {}
        # UDP sink accounting: cumulative bytes plus snapshots.
        self.udp_bytes = 0
        self.udp_packets = 0
        self.udp_snapshots: List[Tuple[int, int]] = []
        self._burst_index = 0
        self._last_burst_time = -1
        #: Packets on their way up the stack: one train, where each
        #: packet used to be one scheduled ``_stack_process`` event.
        self._stack = Train(sim, self._stack_process)

    # ------------------------------------------------------------------
    def add_receiver(self, receiver: TcpReceiver) -> TcpReceiver:
        self.receivers[receiver.flow_id] = receiver
        return receiver

    def add_sender(self, sender: TcpSender) -> TcpSender:
        self.senders[sender.flow_id] = sender
        return sender

    def remove_receiver(self, flow_id: int) -> None:
        """Detach a completed flow's receiver (stray segments dropped)."""
        self.receivers.pop(flow_id, None)

    def remove_sender(self, flow_id: int) -> None:
        """Detach a completed flow's sender (stray ACKs dropped)."""
        self.senders.pop(flow_id, None)

    # ------------------------------------------------------------------
    # Driver callbacks
    # ------------------------------------------------------------------
    def on_packets_received(self, packets: List[Any],
                            sender: str) -> None:
        """Hand a burst of received packets (one PPDU's worth) to the
        host stack: each after the stack delay plus its place in the
        burst times the per-packet cost."""
        now = self.sim.now
        if now != self._last_burst_time:
            self._last_burst_time = now
            self._burst_index = 0
        index = self._burst_index
        self._burst_index = index + len(packets)
        push = self._stack.push
        due = now + STACK_DELAY_NS + index * PER_PACKET_COST_NS
        for packet in packets:
            push(due, packet)
            due += PER_PACKET_COST_NS

    def _stack_process(self, packet: Any) -> None:
        if type(packet) is TcpSegment:
            if packet.is_pure_ack:
                sender = self.senders.get(packet.flow_id)
                if sender is not None:
                    sender.on_ack(packet)
            else:
                receiver = self.receivers.get(packet.flow_id)
                if receiver is not None:
                    receiver.on_segment(packet)
        elif isinstance(packet, UdpDatagram):
            self.udp_bytes += packet.payload_bytes
            self.udp_packets += 1

    # ------------------------------------------------------------------
    # Stack output (ACKs from receivers, data from senders)
    # ------------------------------------------------------------------
    def transmit(self, segment: TcpSegment) -> None:
        self.driver.send_packet(segment, self.ap_name)

    def snapshot_udp(self) -> None:
        self.udp_snapshots.append((self.sim.now, self.udp_bytes))
