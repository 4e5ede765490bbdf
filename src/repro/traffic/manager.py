"""Runtime flow lifecycle: create, start and tear down TCP flows.

``run_scenario`` historically wired a fixed set of flows at t=0 and let
them run forever; the :class:`FlowManager` makes flows first-class
runtime objects instead.  An arrival process hands it a (size, client)
pair; the manager builds the sender/receiver pair against the existing
:class:`~repro.nodes.server.ServerNode` /
:class:`~repro.nodes.client.ClientNode` endpoints, starts the transfer
immediately (the arrival instant *is* the flow start), and — when the
sender sees its last byte cumulatively ACKed — tears the flow down
again:

* endpoint maps (``server.senders``, ``client.receivers``, …) drop the
  flow, so later stray segments are ignored instead of reviving it;
* pending TCP timers (RTO, delayed ACK) are cancelled;
* ROHC compressor/decompressor contexts for the flow's five-tuple are
  released on both the client's and the AP's HACK drivers, and any
  still-buffered compressed ACKs of the flow are purged.  CIDs are a
  single hash byte (256 values), so under churn this reclamation is
  what keeps context tables bounded and CID collisions transient
  instead of permanent.

Every spawned flow is recorded in the manager's
:class:`~repro.stats.fct.FctCollector`; flows still in flight when the
run ends are finalised as *censored* with their partial byte count.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from ..stats.fct import FctCollector, FctRecord
from ..tcp.flow import TcpFlow, TcpParams, wire_flow
from ..tcp.segment import FiveTuple

#: Dynamic flows get ids above every statically wired flow's.
DYNAMIC_FLOW_ID_BASE = 1000

#: Gap between consecutive cells' dynamic-flow id ranges.  A cell
#: would have to spawn ten million flows before touching its
#: neighbour's range — orders of magnitude past the few thousand the
#: largest churn cells spawn in one run.
CELL_FLOW_ID_STRIDE = 10_000_000


class FlowManager:
    """Creates, tracks and reclaims dynamically arriving TCP flows."""

    def __init__(self, sim: Simulator, server, clients: Dict[str, Any],
                 client_names: List[str], drivers: Dict[str, Any],
                 tcp: TcpParams, direction: str = "download",
                 ap_name: str = "AP",
                 flow_id_base: int = DYNAMIC_FLOW_ID_BASE,
                 ip_prefix: str = "10.0"):
        if direction not in ("download", "upload"):
            raise ValueError(f"unknown direction {direction!r}")
        if flow_id_base <= 0:
            raise ValueError("flow_id_base must be positive")
        self.sim = sim
        self.server = server
        self.clients = clients
        self.client_index = {name: i for i, name
                             in enumerate(client_names)}
        self.drivers = drivers
        self.collector = FctCollector()
        self.tcp = tcp
        self.direction = direction
        self.ap_name = ap_name
        #: Per-cell managers use disjoint id ranges (cell i starts at
        #: ``DYNAMIC_FLOW_ID_BASE + i * CELL_FLOW_ID_STRIDE``) so flow
        #: ids stay unique across a whole multi-AP run.
        self.flow_id_base = flow_id_base
        #: First two octets of this BSS's wired subnet ("10.<cell>").
        self.ip_prefix = ip_prefix

        self._next_flow_id = flow_id_base + 1
        #: flow_id -> (flow, record, on_done)
        self.live: Dict[int, Tuple[TcpFlow, FctRecord,
                                   Optional[Callable[[], None]]]] = {}
        self.flows_spawned = 0
        self.flows_completed = 0

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def spawn(self, size_bytes: int, client_name: str,
              on_done: Optional[Callable[[], None]] = None) -> TcpFlow:
        """Create and immediately start one finite transfer."""
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, "
                             f"got {size_bytes}")
        client = self.clients[client_name]
        index = self.client_index[client_name]
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        # Ports cycle through a large range so five-tuples of *live*
        # flows never collide (ids are unique per run).
        port = 10_000 + (flow_id - self.flow_id_base) % 50_000
        tuple_down = FiveTuple(f"{self.ip_prefix}.0.1",
                               f"{self.ip_prefix}.1.{index + 1}",
                               port, 80)
        flow = wire_flow(self.sim, flow_id, tuple_down, self.direction,
                         self.server, client, self.tcp, size_bytes)
        record = self.collector.open(flow_id, client_name,
                                     self.direction, size_bytes,
                                     self.sim.now)
        self.live[flow_id] = (flow, record, on_done)
        self.flows_spawned += 1
        flow.started_at = self.sim.now
        flow.sender.on_complete = \
            lambda fid=flow_id: self._complete(fid)
        flow.sender.start()
        return flow

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _complete(self, flow_id: int) -> None:
        flow, record, on_done = self.live.pop(flow_id)
        now = self.sim.now
        flow.completed_at = now
        record.end_ns = now
        record.bytes_delivered = flow.receiver.bytes_delivered
        self.flows_completed += 1
        self._reclaim(flow, record.client)
        if on_done is not None:
            on_done()

    def _reclaim(self, flow: TcpFlow, client_name: str) -> None:
        """Release every per-flow resource the stack accumulated."""
        client = self.clients[client_name]
        flow_id = flow.flow_id
        if self.direction == "download":
            self.server.remove_sender(flow_id)
            client.remove_receiver(flow_id)
        else:
            client.remove_sender(flow_id)
            self.server.remove_receiver(flow_id)
        flow.sender.close()
        flow.receiver.close()
        five_tuple = flow.sender.five_tuple
        for driver_name in (client_name, self.ap_name):
            driver = self.drivers.get(driver_name)
            if driver is not None:
                driver.release_flow_state(five_tuple, flow_id=flow_id)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """End of run: snapshot still-live (censored) flows' partial
        deliveries.  Censoring itself is ``end_ns`` staying None."""
        for flow, record, _ in self.live.values():
            record.bytes_delivered = flow.receiver.bytes_delivered
