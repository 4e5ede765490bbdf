"""Flow bookkeeping: pairs a sender and receiver and records goodput.

Goodput is measured the way the paper does for Fig 10: over a
steady-state window (after warm-up, so slow-start transients and
staggered starts don't pollute the average).  :class:`FlowStats`
snapshots cumulative in-order delivered bytes at arbitrary times, and
experiments difference two snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..sim.units import throughput_mbps
from .receiver import TcpReceiver
from .sender import TcpSender


@dataclass
class FlowStats:
    """Time-stamped snapshots of a flow's delivered bytes."""

    snapshots: List[Tuple[int, int]] = field(default_factory=list)

    def record(self, now: int, bytes_delivered: int) -> None:
        self.snapshots.append((now, bytes_delivered))

    def goodput_mbps(self, t_start: Optional[int] = None,
                     t_end: Optional[int] = None) -> float:
        """Goodput between two snapshot times (nearest snapshots used)."""
        if len(self.snapshots) < 2:
            return 0.0
        first = self._nearest(t_start) if t_start is not None \
            else self.snapshots[0]
        last = self._nearest(t_end) if t_end is not None \
            else self.snapshots[-1]
        duration = last[0] - first[0]
        return throughput_mbps(last[1] - first[1], duration)

    def _nearest(self, t: int) -> Tuple[int, int]:
        return min(self.snapshots, key=lambda snap: abs(snap[0] - t))


class TcpFlow:
    """A unidirectional TCP transfer between two nodes."""

    def __init__(self, flow_id: int, sender: TcpSender,
                 receiver: TcpReceiver):
        self.flow_id = flow_id
        self.sender = sender
        self.receiver = receiver
        self.stats = FlowStats()
        self.started_at: Optional[int] = None
        self.completed_at: Optional[int] = None

    def snapshot(self, now: int) -> None:
        self.stats.record(now, self.receiver.bytes_delivered)

    def completion_time_ns(self) -> Optional[int]:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass(frozen=True)
class TcpParams:
    """The TCP knobs a scenario gives every flow it wires — the sibling
    of ``MacParams`` and ``HackConfig``.  Field names are
    ``ScenarioConfig``'s, which is how the builder fills it.  The
    paper's fixed TCP constants (MSS, initial window and ssthresh) are
    not knobs: they are ``TcpSender`` / ``TcpReceiver`` defaults, and
    neither endpoint implements SACK."""

    delayed_ack: bool = True
    cc: str = "reno"
    pacing: bool = False


def wire_flow(sim, flow_id: int, five_tuple, direction: str,
              server, client, params: TcpParams,
              total_bytes: Optional[int]) -> TcpFlow:
    """Build one flow's sender/receiver pair and attach the endpoints.

    The single wiring used by both the static scenario builder and the
    runtime :class:`~repro.traffic.manager.FlowManager`, so a TCP knob
    added to one traffic path can never silently diverge from the
    other.  ``five_tuple`` is the data direction's tuple; the ACK
    stream gets its reverse.  ``server``/``client`` are duck-typed
    endpoint hosts (``.name``, ``.send``/``.transmit``,
    ``add_sender``/``add_receiver``).
    """
    if direction not in ("download", "upload"):
        raise ValueError(f"unknown direction {direction!r}")
    ends = [(server, server.send), (client, client.transmit)]
    (source, source_output), (sink, sink_output) = \
        ends if direction == "download" else ends[::-1]
    sender = TcpSender(
        sim, flow_id, source.name, sink.name, output=source_output,
        total_bytes=total_bytes, cc=params.cc, pacing=params.pacing,
        five_tuple=five_tuple)
    source.add_sender(sender)
    receiver = TcpReceiver(
        sim, flow_id, sink.name, source.name, output=sink_output,
        delayed_ack=params.delayed_ack,
        five_tuple=five_tuple.reversed())
    sink.add_receiver(receiver)
    return TcpFlow(flow_id, sender, receiver)
