"""The access point: a bridge between the wired LAN and the WLAN.

Downstream packets from the server are queued per-client at the MAC
(whose batch builder sets the MORE DATA bit exactly when more packets
for that client remain).  Upstream packets — vanilla TCP ACKs, upload
data, and TCP ACKs reconstituted from HACK payloads on LL ACKs — are
forwarded over the wired link to the server.

The AP runs the same :class:`~repro.core.driver.HackDriver` as clients
(the design is symmetric; for uploads it is the AP that compresses the
server's TCP ACKs into its own LL ACKs).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.driver import HackDriver
from ..sim.engine import Simulator
from ..sim.wired import WiredLink


class ApNode:
    """Wired/wireless bridge."""

    def __init__(self, sim: Simulator, driver: HackDriver,
                 name: str = "AP"):
        self.sim = sim
        self.name = name
        self.driver = driver
        driver.node = self
        self.link: Optional[WiredLink] = None
        self._send_up = None  # the uplink pipe's send, once attached

    def attach_link(self, link: WiredLink) -> None:
        self.link = link
        self._send_up = link.sender_for(self)

    def queue_depth(self) -> int:
        """Total downstream MAC backlog across all clients (fresh,
        retry and in-flight packets) — the telemetry sampler's AP
        queue probe."""
        return self.driver.mac.total_backlog()

    # ------------------------------------------------------------------
    def receive_wired(self, packet: Any) -> None:
        """Server -> client packets: queue on the WLAN for packet.dst
        (a tail drop is counted once, in the MAC's ``qdisc_stats``)."""
        self.driver.send_packet(packet, packet.dst)

    def on_packets_received(self, packets: List[Any],
                            sender: str) -> None:
        """Client -> server packets (including decompressed TCP ACKs)."""
        assert self._send_up is not None, "AP wired link not attached"
        for packet in packets:
            self._send_up(packet)
