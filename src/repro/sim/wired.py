"""Point-to-point wired links (the server <-> AP backhaul).

The paper's simulated topology attaches the TCP server to the AP over a
500 Mbit/s wired link with 1 ms one-way latency.  We model a full-duplex
link as two independent unidirectional pipes, each a FIFO with a
serialisation rate, propagation delay and a drop-tail packet-count
bound.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from .engine import Simulator, Train
from .units import transmission_time_ns


class _TxTimes(dict):
    """Transmission time in ns by byte length at one rate, computed on
    first use (a run sees a handful of lengths)."""

    def __init__(self, rate_mbps: float):
        super().__init__()
        self.rate_mbps = rate_mbps

    def __missing__(self, num_bytes: int) -> int:
        self[num_bytes] = tx_time = transmission_time_ns(
            num_bytes, self.rate_mbps)
        return tx_time


class WiredPipe:
    """One direction of a wired link.

    ``deliver`` is called with each packet after serialisation plus
    propagation delay.  Packets must expose ``byte_length``.

    Because the pipe is a FIFO with a fixed rate and delay, every
    packet's delivery timestamp is known the moment it is accepted, so
    serialisation is tracked as plain arithmetic (``_busy_until``) and
    the accepted packets ride one :class:`~repro.sim.engine.Train`:
    where each packet used to cost one simulator event (its delivery;
    historically a serialisation-complete + propagation pair), a burst
    now costs one heap entry and ``deliver`` is the train's callback.
    The train is also the only per-packet state: the counters are
    derived on read from the packets still queued in it (serialisation
    end = delivery - delay, start = end - transmission time).
    Delivery times, FIFO order, drop-tail decisions and the counters'
    timing (sent means serialised, not delivered) match the two-event
    formulation, with one convention pinned down: at the exact instant
    a serialisation boundary falls, the packet counts as
    serialised/started — where the old code's answer depended on
    whether its boundary event had already run within that same
    timestamp.
    """

    def __init__(self, sim: Simulator, rate_mbps: float, delay_ns: int,
                 deliver: Callable[[Any], None],
                 queue_limit: Optional[int] = None):
        if rate_mbps <= 0:
            raise ValueError("rate must be positive")
        if delay_ns < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.delay_ns = delay_ns
        self.queue_limit = queue_limit
        #: When the last accepted packet finishes serialising.
        self._busy_until = 0
        self._train = Train(sim, deliver)
        self._tx_time_ns = _TxTimes(rate_mbps)
        #: Stats
        self._packets_accepted = 0
        self._bytes_accepted = 0
        self.packets_dropped = 0

    def send(self, packet: Any) -> bool:
        """Enqueue a packet; returns False (and drops) if the queue is full."""
        if (self.queue_limit is not None
                and self.queue_depth >= self.queue_limit):
            self.packets_dropped += 1
            return False
        start = self._busy_until
        if start < self.sim.now:
            start = self.sim.now
        num_bytes = packet.byte_length
        self._busy_until = end = start + self._tx_time_ns[num_bytes]
        self._packets_accepted += 1
        self._bytes_accepted += num_bytes
        self._train.push(end + self.delay_ns, packet)
        return True

    def _unsent(self) -> Tuple[int, int, int]:
        """(packets, bytes, packets not yet begun) among the accepted
        packets whose serialisation ends after ``now``.  Serialisation
        is FIFO-contiguous, so those are the newest ones."""
        now = self.sim.now
        packets = num_bytes = waiting = 0
        for delivery, packet in self._train.newest_first():
            end = delivery - self.delay_ns
            if end <= now:
                break
            packets += 1
            num_bytes += packet.byte_length
            if end - self._tx_time_ns[packet.byte_length] > now:
                waiting += 1
        return packets, num_bytes, waiting

    @property
    def queue_depth(self) -> int:
        """Packets accepted but not yet begun serialising."""
        return self._unsent()[2]


class WiredLink:
    """A full-duplex link between two endpoints.

    Endpoints are objects with a ``receive_wired(packet)`` method; use
    :meth:`endpoint_a` / :meth:`endpoint_b` handles to send.
    """

    def __init__(self, sim: Simulator, a: Any, b: Any, rate_mbps: float,
                 delay_ns: int, queue_limit: Optional[int] = None):
        self.a = a
        self.b = b
        self._a_to_b = WiredPipe(sim, rate_mbps, delay_ns,
                                 b.receive_wired, queue_limit)
        self._b_to_a = WiredPipe(sim, rate_mbps, delay_ns,
                                 a.receive_wired, queue_limit)

    def sender_for(self, endpoint: Any) -> Callable[[Any], bool]:
        """The ``send(packet)`` of the pipe leaving ``endpoint`` — for
        a node to bind once instead of dispatching per packet."""
        if endpoint is self.a:
            return self._a_to_b.send
        if endpoint is self.b:
            return self._b_to_a.send
        raise ValueError("endpoint is not attached to this link")

    def queue_depths(self) -> Tuple[int, int]:
        """(a->b depth, b->a depth) — for the server->AP backhaul
        that is (downlink queue, uplink queue)."""
        return self._a_to_b.queue_depth, self._b_to_a.queue_depth
