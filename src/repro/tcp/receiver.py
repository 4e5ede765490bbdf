"""TCP receiver with delayed ACKs.

Generates one ACK for every second in-order segment (plus a fallback
delayed-ACK timer), immediate duplicate ACKs for out-of-order arrivals,
and an immediate ACK when a hole fills — the RFC 5681 behaviours whose
ACK stream HACK compresses.

The receiver keeps out-of-order data in a standard queue: the MAC's
Block Ack reorder buffer hides link-layer retries, but a segment
dropped by a queue or after its last MAC retry still reaches TCP as a
hole.  Its ACKs are cumulative and carry no SACK blocks (the paper's
NewReno).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.engine import Simulator, Timer
from ..sim.units import MS
from .segment import FiveTuple, TcpSegment

#: Advertised receive window: large enough never to limit a flow.
RWND_BYTES = 4 * 1024 * 1024
#: Delayed-ACK fallback timer (an ACK for a lone segment waits this
#: long for a second one).
DELACK_TIMEOUT_NS = 100 * MS


class TcpReceiver:
    """One direction of a TCP connection (the data sink)."""

    def __init__(self, sim: Simulator, flow_id: int, src: str, dst: str,
                 output: Callable[[TcpSegment], None],
                 delayed_ack: bool = True,
                 five_tuple: Optional[FiveTuple] = None):
        self.sim = sim
        self.flow_id = flow_id
        self.src = src          # this endpoint (the ACK source)
        self.dst = dst          # the data sender
        self.output = output
        self.delayed_ack = delayed_ack
        self.five_tuple = five_tuple or FiveTuple(src, dst, 80, 5001)

        self.rcv_nxt = 0
        self._ooo: Dict[int, int] = {}     # seq -> length
        self._pending_ack_segments = 0
        self._delack_timer = Timer(sim, self._delack_fires)
        self._last_ts_val = 0

        # Counters.
        self.bytes_delivered = 0
        self.dup_acks_sent = 0
        self.duplicates_received = 0

    # ------------------------------------------------------------------
    def on_segment(self, segment: TcpSegment) -> None:
        """Process an arriving data segment."""
        if segment.end_seq <= self.rcv_nxt:
            # Entirely old: duplicate — re-ACK immediately.
            self.duplicates_received += 1
            self._send_ack(immediate=True)
            return
        self._last_ts_val = segment.ts_val
        if segment.seq > self.rcv_nxt:
            # Out of order: queue the hole-side data, dup-ACK now.
            self._ooo[segment.seq] = max(
                self._ooo.get(segment.seq, 0), segment.payload_bytes)
            self.dup_acks_sent += 1
            self._send_ack(immediate=True)
            return
        # In order (possibly partially old): advance.
        self.bytes_delivered += segment.end_seq - self.rcv_nxt
        self.rcv_nxt = segment.end_seq
        if self._ooo:
            self._drain_ooo()
            # Filling (part of) a hole: ACK immediately so the sender's
            # fast recovery sees the partial/full ACK without delay.
            self._send_ack(immediate=True)
            return
        self._pending_ack_segments += 1
        if not self.delayed_ack or self._pending_ack_segments >= 2:
            self._send_ack(immediate=True)
        elif self._delack_timer.deadline is None:
            self._delack_timer.arm(DELACK_TIMEOUT_NS)

    def _drain_ooo(self) -> None:
        while self.rcv_nxt in self._ooo:
            length = self._ooo.pop(self.rcv_nxt)
            self.rcv_nxt += length
            self.bytes_delivered += length
        # Discard any queued segments now wholly below rcv_nxt.
        stale = [s for s in self._ooo if s + self._ooo[s] <= self.rcv_nxt]
        for s in stale:
            del self._ooo[s]

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _send_ack(self, immediate: bool = False) -> None:
        self._pending_ack_segments = 0
        if self._delack_timer.deadline is not None:
            self._delack_timer.cancel()
        ack = TcpSegment(
            self.flow_id, self.src, self.dst, 0, 0, self.rcv_nxt,
            RWND_BYTES, self.sim.now // MS, self._last_ts_val,
            (), self.five_tuple)
        self.output(ack)

    def close(self) -> None:
        """Tear down: close the delayed-ACK timer (flow reclaim), so
        no heap entry left behind keeps this receiver alive."""
        self._delack_timer.close()
        self._pending_ack_segments = 0

    def _delack_fires(self) -> None:
        if self._pending_ack_segments > 0:
            self._send_ack()
