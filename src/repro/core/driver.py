"""The TCP/HACK driver — the paper's core contribution (§3).

One :class:`HackDriver` sits between a node's network stack and its
:class:`~repro.mac.dcf.DcfMac`, at clients and APs alike (the design is
symmetric).  Responsibilities:

* route outgoing segments: TCP data and non-compressible ACKs go to the
  normal transmit queue; pure ACKs are compressed and buffered when the
  active policy says a piggyback opportunity is coming;
* latch the **MORE DATA** bit from arriving data frames (§3.2);
* supply serialised compressed-ACK frames to the MAC when it builds an
  LL ACK / Block ACK (``hack_payload_for``), re-attaching retained
  entries on *every* response until implicitly confirmed (§3.4);
* implicit confirmation: a subsequent A-MPDU (batch mode) or a higher
  MAC sequence number (single-MPDU mode) confirms the previous LL ACK
  unless the batch carries the **SYNC** bit (Figs 5-8);
* flush-to-vanilla transitions: when a batch arrives without MORE
  DATA, retained compressed ACKs get one last ride on that batch's
  Block ACK and are then discarded — later cumulative ACKs cover them
  (Fig 7) — with the compressor rebased so a lost last ride cannot
  desynchronise contexts;
* decompress HACK payloads arriving on LL ACKs and hand the
  reconstituted TCP ACKs upstream.

All TCP awareness lives here, never in the MAC — mirroring the paper's
driver/NIC split (the NIC treats the payload as opaque bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mac.dcf import DcfMac, MacUpper
from ..mac.frames import AmpduFrame, BarFrame, Mpdu
from ..obs.metrics import merge_counts
from ..rohc.compressor import Compressor
from ..rohc.decompressor import Decompressor
from ..rohc.packets import CompressedAck, build_frame
from ..sim.engine import Simulator, Timer
from ..tcp.segment import TcpSegment
from .policies import HackConfig, HackPolicy


@dataclass
class DriverStats:
    """Driver-level counters (Table 2 inputs live here)."""

    vanilla_acks_sent: int = 0
    vanilla_ack_bytes: int = 0
    hack_frames_attached: int = 0
    hack_frame_bytes: int = 0
    entries_confirmed: int = 0
    sync_events: int = 0
    unlatch_flushes: int = 0
    timer_flushes: int = 0
    stall_guard_flushes: int = 0
    overflow_flushes: int = 0
    echo_flushes: int = 0
    acks_reinjected: int = 0
    #: Buffered-ACK chains found broken (non-consecutive MSNs) and
    #: repaired by flushing the survivors to vanilla instead of letting
    #: ``build_frame`` raise into the event loop.  Zero cooperatively.
    chain_repairs: int = 0


class _PeerState:
    """Per-peer HACK state (a client has one peer: its AP)."""

    __slots__ = ("more_data_latched", "buffer", "last_seen_seq",
                 "compressor", "decompressor", "flush_timer",
                 "flush_reason", "flush_after_response", "ack_ts_sent",
                 "echo_seen")

    def __init__(self, init_vanilla_acks: int, flush_timer: Timer,
                 clock=None):
        self.more_data_latched = False
        self.buffer: List[CompressedAck] = []
        self.last_seen_seq = -1
        self.compressor = Compressor(init_threshold=init_vanilla_acks)
        self.decompressor = Decompressor(clock=clock)
        #: Flush-to-vanilla timer and why it was armed ("timer" /
        #: "stall_guard": the first to arm it wins).
        self.flush_timer = flush_timer
        self.flush_reason = ""
        self.flush_after_response = False
        # TS_ECHO state: per flow, the ts_val of the newest ACK we sent
        # and the newest ts_ecr observed on arriving data (§5).
        self.ack_ts_sent: Dict[int, int] = {}
        self.echo_seen: Dict[int, int] = {}


def ppdu_flags(mpdus: Sequence[Mpdu]) -> Tuple[bool, bool, int]:
    """``(any SYNC, any MORE DATA, highest sequence number)`` of a
    PPDU's readable MPDUs, in one pass over them."""
    sync = more = False
    max_seq = mpdus[0].seq
    for mpdu in mpdus:
        if mpdu.sync:
            sync = True
        if mpdu.more_data:
            more = True
        if mpdu.seq > max_seq:
            max_seq = mpdu.seq
    return sync, more, max_seq


def _ignore(*args: Any) -> None:
    """Stands in for a hook the node above does not have."""


class HackDriver(MacUpper):
    """Device driver implementing TCP/HACK over a DcfMac."""

    def __init__(self, sim: Simulator, mac: DcfMac, config: HackConfig,
                 node: Any = None):
        self.sim = sim
        self.mac = mac
        self.config = config
        #: Read per packet and per PPDU; a driver's policy is fixed at
        #: construction.
        self._enabled = config.enabled
        self._policy = config.policy
        self.node = node
        self.stats = DriverStats()
        self._peers: Dict[str, _PeerState] = {}
        # Decompressors time their context-recovery latency off the
        # simulator clock (only read while a context is desynced, so
        # cooperative runs never touch it).
        self._clock = lambda: sim.now
        mac.upper = self

    @property
    def node(self) -> Any:
        """The host this driver serves (None: nothing above it)."""
        return self._node

    @node.setter
    def node(self, node: Any) -> None:
        # The node's hooks are looked up here, once, not per packet.
        self._node = node
        self._packets_up = getattr(node, "on_packets_received", _ignore)
        # MacUpper's hook for MPDU fates is the node's own if it has
        # one; None otherwise, and the MAC skips the per-MPDU calls.
        self.on_mpdu_outcome = getattr(node, "on_mpdu_outcome", None)

    def peer(self, name: str) -> _PeerState:
        if name not in self._peers:
            self._peers[name] = _PeerState(
                self.config.init_vanilla_acks,
                Timer(self.sim, lambda: self._flush_fires(name)),
                clock=self._clock)
        return self._peers[name]

    def buffered_acks(self) -> int:
        """Compressed ACKs held back awaiting a ride, across all peers
        (the telemetry sampler's HACK buffer-depth probe)."""
        return sum(len(ps.buffer) for ps in self._peers.values())

    def rohc_context_count(self) -> int:
        """Active ROHC compressor contexts (CIDs) across all peers
        (the telemetry sampler's CID-occupancy probe)."""
        return sum(len(ps.compressor.contexts)
                   for ps in self._peers.values())

    # ==================================================================
    # Outgoing path (from the node's network stack)
    # ==================================================================
    def send_packet(self, packet: Any, peer_name: str) -> bool:
        """Send any packet; pure TCP ACKs take the HACK path."""
        if type(packet) is TcpSegment and packet.is_pure_ack:
            if self._enabled:
                return self._send_ack(packet, peer_name)
            # Stock operation: still account the ACK stream (Table 2).
            self.stats.vanilla_acks_sent += 1
            self.stats.vanilla_ack_bytes += packet.byte_length
        return self.mac.enqueue(packet, peer_name)

    def _send_ack(self, ack: TcpSegment, peer_name: str) -> bool:
        """Compress and hold ``ack`` when the policy sees a ride coming
        and its flow's context is established; else send it vanilla."""
        ps = self._peers.get(peer_name)
        if ps is None:
            ps = self.peer(peer_name)
        policy = self._policy
        if policy is HackPolicy.MORE_DATA:
            defer = ps.more_data_latched
        elif policy is HackPolicy.TS_ECHO:
            defer = self._echo_outstanding(ps, ack.flow_id)
        else:
            # OPPORTUNISTIC queues normally; compression happens when
            # the MAC asks for a response payload and the ACK is still
            # queued.
            defer = policy is HackPolicy.EXPLICIT_TIMER
        context = ps.compressor.established_context(ack) if defer \
            else None
        if policy is HackPolicy.TS_ECHO:
            ps.ack_ts_sent[ack.flow_id] = max(
                ps.ack_ts_sent.get(ack.flow_id, 0), ack.ts_val)
        if context is None:
            return self._send_vanilla(ps, ack, peer_name)
        if len(ps.buffer) >= self.config.max_buffered:
            self.stats.overflow_flushes += 1
            self._flush_buffer(ps, peer_name)
        ps.buffer.append(ps.compressor.compress(ack, context))
        if self.config.stall_guard_ns is not None:
            self._arm_flush(ps, self.config.stall_guard_ns,
                            "stall_guard")
        if policy is HackPolicy.EXPLICIT_TIMER:
            self._arm_flush(ps, self.config.flush_after_ns, "timer")
        return True

    def _send_vanilla(self, ps: _PeerState, ack: TcpSegment,
                      peer_name: str) -> bool:
        # Tag the ACK with its per-flow vanilla ordinal so the
        # opportunistic pull can leave context-establishing ACKs in the
        # queue (the peer's decompressor needs them on the air).
        context = ps.compressor.note_vanilla_ack(ack)
        if context is not None:
            ack._hack_init_ordinal = context.vanilla_seen
        self.stats.vanilla_acks_sent += 1
        self.stats.vanilla_ack_bytes += ack.byte_length
        return self.mac.enqueue(ack, peer_name)

    # ------------------------------------------------------------------
    # Flush-to-vanilla machinery (explicit timer / stall guard / caps)
    # ------------------------------------------------------------------
    def _arm_flush(self, ps: _PeerState, delay_ns: Optional[int],
                   reason: str) -> None:
        if delay_ns is None or ps.flush_timer.armed:
            return
        ps.flush_reason = reason
        ps.flush_timer.arm(delay_ns)

    def _flush_fires(self, peer_name: str) -> None:
        ps = self._peers[peer_name]
        if not ps.buffer:
            return
        if ps.flush_reason == "timer":
            self.stats.timer_flushes += 1
        else:
            self.stats.stall_guard_flushes += 1
        self._flush_buffer(ps, peer_name)

    def _flush_buffer(self, ps: _PeerState, peer_name: str) -> None:
        """Fall back: resend all buffered ACKs as vanilla TCP ACKs.

        Duplicates at the TCP sender are harmless (cumulative ACKs);
        the compressor is rebased because the decompressor may have
        never seen the discarded deltas."""
        entries, ps.buffer = ps.buffer, []
        ps.flush_timer.cancel()
        ps.compressor.rebase_all()
        for entry in entries:
            if entry.segment is not None:
                self._send_vanilla(ps, entry.segment, peer_name)

    # ==================================================================
    # MacUpper: incoming data path
    # ==================================================================
    def on_mpdus_delivered(self, mpdus: List[Mpdu], sender: str) -> None:
        packets = [mpdu.payload for mpdu in mpdus]
        if self._enabled:
            ps = self._peers.get(sender)
            if ps is None:
                ps = self.peer(sender)
            if self._policy is HackPolicy.TS_ECHO:
                # An echo may flush buffered ACKs into the MAC queue,
                # which must stay between the two hand-offs it fell
                # between: one packet at a time.
                for packet in packets:
                    if type(packet) is TcpSegment:
                        if packet.is_pure_ack:
                            ps.decompressor.note_vanilla_ack(packet)
                        else:
                            self._note_echo(ps, sender, packet)
                    self._packets_up([packet], sender)
                return
            # Snoop vanilla ACKs to establish/refresh decompressor
            # contexts (the paper's IR-less context initialisation).
            for packet in [packet for packet in packets
                           if type(packet) is TcpSegment
                           and packet.is_pure_ack]:
                ps.decompressor.note_vanilla_ack(packet)
        self._packets_up(packets, sender)

    # ------------------------------------------------------------------
    # TS_ECHO mechanics (§5)
    # ------------------------------------------------------------------
    def _echo_outstanding(self, ps: _PeerState, flow_id: int) -> bool:
        if flow_id not in ps.ack_ts_sent:
            return False
        return ps.echo_seen.get(flow_id, -1) < ps.ack_ts_sent[flow_id]

    def _note_echo(self, ps: _PeerState, peer_name: str,
                   data: TcpSegment) -> None:
        flow = data.flow_id
        if data.ts_ecr > ps.echo_seen.get(flow, -1):
            ps.echo_seen[flow] = data.ts_ecr
        if not ps.buffer:
            return
        caught_up = all(not self._echo_outstanding(ps, fid)
                        for fid in ps.ack_ts_sent)
        if caught_up:
            # The sender has seen our newest ACK and may go silent:
            # fall back to vanilla for whatever is still buffered.
            self.stats.echo_flushes += 1
            self._flush_buffer(ps, peer_name)

    def on_data_ppdu(self, frame: Any, sender: str,
                     readable_mpdus: Sequence[Mpdu]) -> None:
        if not self._enabled:
            return
        ps = self._peers.get(sender)
        if ps is None:
            ps = self.peer(sender)
        is_batch = isinstance(frame, AmpduFrame)
        sync, more, max_seq = ppdu_flags(readable_mpdus)

        # --- Implicit confirmation of our previous LL ACK (§3.4) ---
        if is_batch:
            new_arrival = True  # any A-MPDU implies our Block ACK landed
        else:
            new_arrival = max_seq > ps.last_seen_seq
        ps.last_seen_seq = max(ps.last_seen_seq, max_seq)
        if sync:
            # AP gave up soliciting our Block ACK and moved on: retain
            # everything and re-attach on the next response (Fig 8).
            self.stats.sync_events += 1
        elif new_arrival:
            confirmed = [e for e in ps.buffer if e.sent_once]
            if confirmed:
                ps.buffer = [e for e in ps.buffer if not e.sent_once]
                self.stats.entries_confirmed += len(confirmed)
                # Confirmation normally strips a prefix, leaving a
                # consecutive-MSN suffix; if anything (corruption,
                # partial sends) left holes instead, repair now rather
                # than stall the chain at the next build_frame.
                self._repair_chain(ps, sender)

        # --- MORE DATA latch (§3.2) ---
        # TS_ECHO deliberately ignores the bit: it is the AP-free
        # alternative (§5); its lifecycle is driven by echoes.
        if self._policy is not HackPolicy.TS_ECHO:
            ps.more_data_latched = more
            if not more:
                # Retained ACKs get one last ride on this batch's
                # response, then we transition to vanilla ACKs
                # (Figs 2 and 7).
                ps.flush_after_response = True

    # ==================================================================
    # MacUpper: LL ACK augmentation / reception
    # ==================================================================
    def hack_payload_for(self, peer_name: str) -> Optional[bytes]:
        if not self._enabled:
            return None
        ps = self.peer(peer_name)
        if self._policy is HackPolicy.OPPORTUNISTIC:
            self._pull_queued_acks(ps, peer_name)
        if not ps.buffer:
            return None
        try:
            return build_frame(ps.buffer)
        except ValueError:
            # A broken MSN chain must never abort the MAC's response
            # transmission: count it, fall back to vanilla for the
            # whole buffer (mirroring release_flow_state), and send
            # this response bare.
            self.stats.chain_repairs += 1
            self._flush_buffer(ps, peer_name)
            return None

    def _pull_queued_acks(self, ps: _PeerState, peer_name: str) -> None:
        """Opportunistic HACK: yank still-queued compressible pure ACKs
        out of the MAC transmit queue and compress them now."""
        threshold = self.config.init_vanilla_acks
        pulled = self.mac.remove_from_queue(
            peer_name,
            lambda p: (isinstance(p, TcpSegment) and p.is_pure_ack
                       and ps.compressor.can_compress(p)
                       and getattr(p, "_hack_init_ordinal", 0)
                       > threshold))
        for ack in pulled:
            # They were counted as vanilla at enqueue; undo.
            self.stats.vanilla_acks_sent -= 1
            self.stats.vanilla_ack_bytes -= ack.byte_length
            if len(ps.buffer) >= self.config.max_buffered:
                self.stats.overflow_flushes += 1
                self._flush_buffer(ps, peer_name)
            ps.buffer.append(ps.compressor.compress(ack))

    def on_ll_response_tx(self, peer_name: str, response: Any,
                          hack_payload: Optional[bytes]) -> None:
        if not self._enabled:
            return
        ps = self.peer(peer_name)
        if hack_payload:
            self.stats.hack_frames_attached += 1
            self.stats.hack_frame_bytes += len(hack_payload)
            for entry in ps.buffer:
                entry.sent_once = True
        if ps.flush_after_response:
            ps.flush_after_response = False
            if ps.buffer:
                # Fire-and-forget: the entries rode this response; if
                # it is lost, later (higher) cumulative vanilla ACKs
                # cover the gap (Fig 7).  Rebase so delta references
                # cannot dangle.
                self.stats.unlatch_flushes += 1
                ps.buffer = []
                ps.compressor.rebase_all()

    def _repair_chain(self, ps: _PeerState, peer_name: str) -> None:
        """Flush the buffer to vanilla if its MSNs are not consecutive
        (``build_frame`` would refuse to serialise it).  A consecutive
        buffer — the invariable cooperative case — costs one cheap
        scan and is left untouched."""
        buffer = ps.buffer
        if not buffer:
            return
        first = buffer[0].msn
        if all(entry.msn == first + index
               for index, entry in enumerate(buffer)):
            return
        self.stats.chain_repairs += 1
        self._flush_buffer(ps, peer_name)

    def on_ll_ack_rx(self, frame: Any, sender: str) -> None:
        payload = getattr(frame, "hack_payload", None)
        if not payload or not self._enabled:
            return
        ps = self.peer(sender)
        segments = ps.decompressor.decompress_frame(payload)
        if segments:
            self.stats.acks_reinjected += len(segments)
            self._packets_up(segments, sender)

    def on_bar_rx(self, bar: BarFrame, sender: str) -> None:
        # A BAR means the peer lacks our Block ACK: retention already
        # guarantees the compressed ACKs ride the re-sent Block ACK.
        return

    # ==================================================================
    # Flow lifecycle (dynamic traffic)
    # ==================================================================
    def release_flow_state(self, five_tuple,
                           flow_id: Optional[int] = None) -> None:
        """Reclaim all per-flow HACK state after a flow completes.

        Called by the :class:`~repro.traffic.manager.FlowManager` on
        teardown.  Both directions of the connection are released (the
        compressor keys contexts by the ACK stream's five-tuple, which
        is the reverse of the data direction), and any still-buffered
        compressed ACKs of the flow are purged so a retained entry can
        never be re-attached after the flow's CID has been reused.
        """
        tuples = (five_tuple, five_tuple.reversed())
        keys = {t.key() for t in tuples}
        for peer_name, ps in self._peers.items():
            if any(entry.segment is not None
                   and entry.segment.five_tuple.key() in keys
                   for entry in ps.buffer):
                # Dropping entries mid-buffer would break the
                # consecutive-MSN / CID-chain encoding of the entries
                # after them, so: discard the dead flow's entries (its
                # cumulative ACKs are moot) and route the remaining
                # live-flow entries through the standard
                # flush-to-vanilla path, which also rebases the
                # compressor so no later delta references dangle.
                ps.buffer = [
                    entry for entry in ps.buffer
                    if entry.segment is None
                    or entry.segment.five_tuple.key() not in keys]
                self._flush_buffer(ps, peer_name)
            for flow_tuple in tuples:
                ps.compressor.release_flow(flow_tuple)
                ps.decompressor.release_flow(flow_tuple)
            if flow_id is not None:
                ps.ack_ts_sent.pop(flow_id, None)
                ps.echo_seen.pop(flow_id, None)

    # ------------------------------------------------------------------
    @property
    def compressed_acks(self) -> int:
        return sum(p.compressor.compressed_count
                   for p in self._peers.values())

    @property
    def compressed_bytes(self) -> int:
        return sum(p.compressor.compressed_bytes
                   for p in self._peers.values())

    #: Keys of a ``metrics_dict()["drivers"]`` entry (:meth:`metrics`):
    #: four ``DriverStats`` fields, then the compressors' totals.
    METRIC_KEYS = ("vanilla_acks_sent", "vanilla_ack_bytes",
                   "hack_frames_attached", "hack_frame_bytes",
                   "compressed_acks", "compressed_bytes")

    def metrics(self) -> Dict[str, int]:
        values = dict(vars(self.stats),
                      compressed_acks=self.compressed_acks,
                      compressed_bytes=self.compressed_bytes)
        return {key: values[key] for key in self.METRIC_KEYS}

    def decompressor_counters(self) -> Dict[str, int]:
        """``metrics_dict()["decompressor"]``, summed over peers."""
        totals = dict.fromkeys(Decompressor.COUNTER_KEYS, 0)
        for ps in self._peers.values():
            merge_counts(totals, ps.decompressor.counters())
        return totals

    #: Keys of ``metrics_dict()["rohc"]`` — a stable set even with zero
    #: peers (metrics consumers and shard merges rely on it).
    ROHC_ROBUSTNESS_KEYS = Decompressor.ROBUSTNESS_KEYS + (
        "chain_repairs",)

    def rohc_robustness_counters(self) -> Dict[str, int]:
        """Attack-facing containment counters: every decompressor's
        robustness block plus this driver's chain repairs.  All zero
        in cooperative runs (the adversarial oracle pins this)."""
        totals = dict.fromkeys(self.ROHC_ROBUSTNESS_KEYS, 0)
        totals["chain_repairs"] = self.stats.chain_repairs
        for ps in self._peers.values():
            merge_counts(totals, ps.decompressor.robustness_counters())
        return totals

    def rohc_failure_count(self) -> int:
        """Cumulative contained decode failures, across peers (the
        telemetry sampler's corruption probe)."""
        total = self.stats.chain_repairs
        for ps in self._peers.values():
            d = ps.decompressor
            total += (d.crc_failures + d.parse_errors
                      + d.mid_frame_aborts + d.internal_errors)
        return total
