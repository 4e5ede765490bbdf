"""Scenario builder: assembles a full simulated WLAN and runs it.

This is the public high-level API most examples, tests and benchmarks
use.  A :class:`ScenarioConfig` describes the paper's experimental
setups declaratively (PHY mode, rate, clients, HACK policy, loss
model, traffic); :func:`run_scenario` wires up the server, wired link,
AP, clients, drivers and flows, runs the event loop, and returns a
:class:`ScenarioResult` with goodputs and all collected statistics;
:func:`build_simulation` stops after the wiring and hands back the
live world.

Beyond the paper's static workloads, ``traffic="dynamic"`` plus an
:class:`~repro.traffic.arrivals.ArrivalSpec` drives the scenario with
flow churn (arrivals, finite transfers, runtime teardown; see
:mod:`repro.traffic`), reported through the result's ``fct`` block,
and ``udp_background_mbps`` adds per-client constant-bit-rate UDP
noise to any TCP workload.

``cells=N`` replicates the whole BSS — AP, wired server/link, clients
and traffic — N times.  Co-channel cells defer to and collide with
each other through the ordinary DCF/EIFS machinery while frame
decoding stays scoped to each cell's own address map; results gain
per-cell blocks (goodput, clean-airtime share, FCT, intra-cell Jain)
plus a cross-cell fairness index.  Cell 1 is wired exactly as the
historical single-BSS topology, so single-cell runs are bit-identical
to what they always were.

``channels=C`` spreads the cells over C independent collision domains
(one :class:`~repro.sim.medium.Medium` each, cell *i* on channel *i*
mod C).  Cells on different channels never interact; results gain
per-channel blocks.

Every run takes one path: :func:`run_scenario` runs the config's
shards (:meth:`ScenarioConfig.shards` — one simulator per channel in
use, side by side where the host has the cores; a one-channel config
is a one-shard run), and for each shard :func:`build_simulation`
builds the live world (:class:`CellBuilder`), ``world.run()``
executes it and :func:`collect` flattens it to a
:class:`ScenarioResult` — the one result type, plain data, and an
accumulator: several shards' results fold into the run's with
:meth:`ScenarioResult.merge`.  Those three steps are the seams for
anything that wants to inspect or instrument a live world; they write
no file — :func:`run_scenario` writes the telemetry artifacts once,
from the run's result (:func:`~repro.obs.write_artifacts`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..adversary import AdversaryConfig, GreedyDcfMac
from ..adversary.greedy import GREEDY_STATIONS
from ..adversary.runtime import AdversaryRuntime, adversary_block, \
    install_adversary
from ..core.driver import HackDriver
from ..core.policies import HackConfig, HackPolicy
from ..mac.dcf import DcfMac
from ..mac.params import SORA_ACK_TIMEOUT_EXTRA_NS, \
    SORA_RESPONSE_DELAY_NS, MacParams
from ..mac.qdisc import DISCIPLINES, QdiscStats
from ..obs import MAX_EXPORT_FRAMES, KernelInstrument, TelemetryConfig, \
    TelemetrySession, telemetry_summary, write_artifacts
from ..obs.metrics import merge_counts
from ..phy.errors import LossModel, NoLoss, SnrLossModel, UniformLossModel
from ..phy.params import PHY_11A, PHY_11N, PhyParams
from ..rohc.decompressor import Decompressor
from ..sim.engine import Simulator
from ..sim.medium import DEFAULT_CHANNEL, Medium
from ..sim.rng import RngRegistry
from ..sim.units import MS, SEC, msec, throughput_mbps
from ..sim.wired import WiredLink
from ..stats.collectors import MacStats
from ..stats.fairness import goodput_fairness, jain_index
from ..stats.fct import FctCollector
from ..stats.trace import MediumTracer
from ..traffic.arrivals import ArrivalSpec, build_processes
from ..traffic.manager import CELL_FLOW_ID_STRIDE, \
    DYNAMIC_FLOW_ID_BASE, FlowManager
from ..tcp.flow import TcpFlow, TcpParams, wire_flow
from ..tcp.segment import FiveTuple
from ..tcp.sender import CONGESTION_CONTROLS
from ..nodes.ap import ApNode
from ..nodes.client import ClientNode
from ..nodes.server import ServerNode, UdpSource
from .sharding import run_shards

#: ``ScenarioConfig.phy_mode`` values.
PHY_MODES = {"11a": PHY_11A, "11n": PHY_11N}
#: ``ScenarioConfig.traffic`` values.
TRAFFIC_MODES = ("tcp_download", "tcp_upload", "udp_download", "dynamic")
#: The paper's backhaul between each cell's server and its AP.
WIRED_RATE_MBPS = 500.0
WIRED_DELAY_NS = 1 * MS


@dataclass
class LossSpec:
    """Declarative channel-loss description."""

    kind: str = "none"                 # "none" | "uniform" | "snr"
    data_loss: float = 0.0             # uniform: per-MPDU probability
    control_loss: Optional[float] = None
    per_client: Dict[str, float] = field(default_factory=dict)
    snr_db: float = 30.0               # snr: channel quality

    KINDS = ("none", "uniform", "snr")

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown loss.kind {self.kind!r} "
                             f"(valid: {', '.join(self.KINDS)})")
        bad = [p for p in (self.data_loss, self.control_loss or 0.0,
                           *self.per_client.values())
               if not 0 <= p < 1]
        if bad:
            raise ValueError(
                f"loss probabilities must be in [0, 1), got {bad}")

    def build(self, rng) -> LossModel:
        self.validate()
        if self.kind == "uniform":
            return UniformLossModel(
                rng, self.data_loss, control_loss=self.control_loss,
                per_receiver=dict(self.per_client))
        if self.kind == "snr":
            return SnrLossModel(rng, self.snr_db)
        return NoLoss()


@dataclass
class ScenarioConfig:
    """One experiment's worth of configuration."""

    phy_mode: str = "11n"              # "11a" | "11n"
    data_rate_mbps: float = 150.0
    n_clients: int = 1
    #: Co-channel overlapping cells: each cell is a full BSS (AP +
    #: wired server/link + clients + its own traffic) sharing the one
    #: collision domain.  1 = the paper's single-BSS topology.
    cells: int = 1
    #: Distinct radio channels the cells are spread over.  Channels do
    #: not share a collision domain (separate
    #: :class:`~repro.sim.medium.Medium` instances), so a multi-channel
    #: scenario factors exactly into independent per-channel shards —
    #: see :mod:`repro.workloads.sharding`.  1 = everything co-channel,
    #: the historical behaviour.
    channels: int = 1
    #: Concurrent TCP flows per client (the AP queue scales with this,
    #: matching the paper's "126 packets per flow" sizing).
    flows_per_client: int = 1
    policy: HackPolicy = HackPolicy.VANILLA
    #: "tcp_download" | "tcp_upload" | "udp_download" | "dynamic"
    #: ("dynamic" = no static flows; ``arrivals`` drives all traffic).
    traffic: str = "tcp_download"
    #: Flow churn: when set, a :class:`~repro.traffic.FlowManager`
    #: creates/tears down finite flows at runtime as this arrival
    #: process dictates (composes with static ``traffic`` modes).
    arrivals: Optional[ArrivalSpec] = None
    #: Constant-bit-rate UDP background noise per client (0 = none);
    #: rides alongside any TCP traffic, static or churn.
    udp_background_mbps: float = 0.0
    seed: int = 1
    duration_ns: int = 3 * SEC
    warmup_ns: int = 1 * SEC
    #: Finite transfer size per flow (None = saturated/unlimited).
    file_bytes: Optional[int] = None
    udp_rate_mbps: float = 200.0
    loss: LossSpec = field(default_factory=LossSpec)
    #: AP transmit-queue bound per client (paper: 126 per flow).
    ap_queue_per_client: int = 126
    delayed_ack: bool = True
    #: Congestion control for every TCP sender: "reno" (the paper-era
    #: default, bit-identical to the historical loop) or "cubic".
    cc: str = "reno"
    #: Pace new segments at ~2*cwnd/SRTT instead of ACK-clocked bursts.
    pacing: bool = False
    #: Queue discipline for every station's per-destination MAC queues:
    #: "droptail", "codel" or "fq_codel" (see repro.mac.qdisc).
    queue_discipline: str = "droptail"
    stagger_ns: int = 200 * MS
    #: SoRa's late LL ACK: every station answers
    #: ``mac.params.SORA_RESPONSE_DELAY_NS`` after SIFS and waits
    #: ``SORA_ACK_TIMEOUT_EXTRA_NS`` longer for its peer's.
    sora: bool = False
    #: HACK knobs.
    stall_guard_ns: Optional[int] = None
    explicit_timer_ns: Optional[int] = None
    #: Override the 4 ms TXOP limit (None keeps the default).
    txop_limit_ns: Optional[int] = msec(4)
    #: Deterministic fault-injection plan (repro.adversary): a greedy
    #: CW-cheating station, a jammer, or an on-air compressed-ACK
    #: mutator.  None — and any plan with intensity 0 — installs
    #: nothing and runs bit-identical to the cooperative scenario.
    #: Part of the config on purpose: sweep cache signatures, sharding
    #: and replay treat attacked points like any other point.
    adversary: Optional[AdversaryConfig] = None

    @property
    def phy(self) -> PhyParams:
        return PHY_MODES[self.phy_mode]

    def validate(self) -> None:
        """Reject a config no run can honour — before any of the world
        is built, against the value sets the layers themselves own."""
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.channels < 1:
            raise ValueError(
                f"channels must be >= 1, got {self.channels}")
        if self.adversary is not None:
            self.adversary.validate()
        for name, valid in (
                ("phy_mode", PHY_MODES), ("traffic", TRAFFIC_MODES),
                ("cc", CONGESTION_CONTROLS),
                ("queue_discipline", DISCIPLINES)):
            if getattr(self, name) not in valid:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r} (valid: "
                    f"{', '.join(str(v) for v in valid)})")
        if self.data_rate_mbps not in self.phy.data_rates:
            raise ValueError(
                f"data_rate_mbps {self.data_rate_mbps:g} is not a "
                f"{self.phy.name} data rate (valid: "
                f"{', '.join(f'{r:g}' for r in self.phy.data_rates)})")
        if self.n_clients < 0:
            raise ValueError(
                f"n_clients must be >= 0, got {self.n_clients}")
        if self.flows_per_client < 1:
            raise ValueError(f"flows_per_client must be >= 1, got "
                             f"{self.flows_per_client}")
        self.loss.validate()
        if self.traffic == "dynamic" and self.arrivals is None:
            raise ValueError("traffic='dynamic' requires an "
                             "ArrivalSpec in cfg.arrivals")
        if self.arrivals is not None:
            # Trace indices against a cell's stations.
            self.arrivals.validate(self.n_clients)
        if self.udp_background_mbps > 0 \
                and self.traffic == "udp_download":
            raise ValueError(
                "udp_background_mbps composes with TCP traffic; use "
                "udp_rate_mbps for udp_download")
        if not 0 <= self.warmup_ns < self.duration_ns:
            raise ValueError(
                f"need 0 <= warmup_ns < duration_ns (the measurement "
                f"window), got warmup_ns={self.warmup_ns}, "
                f"duration_ns={self.duration_ns}")

    # -- multi-cell helpers -------------------------------------------
    def cell_label(self, cell: int) -> str:
        """Stable metrics key for one cell ("cell1" is the legacy BSS)."""
        return f"cell{cell + 1}"

    def cell_ap_name(self, cell: int) -> str:
        """Cell 0 keeps the historical "AP" (bit-identity); later
        cells get globally unique addresses ("AP2", "AP3", ...)."""
        return "AP" if cell == 0 else f"AP{cell + 1}"

    def cell_client_names(self, cell: int) -> List[str]:
        """Station addresses are unique across the whole channel:
        cell 0 keeps "C1".."Cn", cell k (k >= 1) gets "C1.<k+1>"...
        Every cell has ``n_clients`` stations."""
        if cell == 0:
            return [f"C{i + 1}" for i in range(self.n_clients)]
        return [f"C{i + 1}.{cell + 1}" for i in range(self.n_clients)]

    def cell_ip_prefix(self, cell: int) -> str:
        """Each cell's wired island gets its own /16 ("10.<cell>")."""
        return f"10.{cell}"

    # -- multi-channel helpers ----------------------------------------
    def channel_of(self, cell: int) -> int:
        """The channel cell ``cell`` radiates on (round-robin)."""
        return cell % self.channels

    def ordered_channels(self, cell_indices=None) -> Tuple[int, ...]:
        """Distinct channels of the given cells (default: all cells),
        in first-appearance order over ascending cell index."""
        if cell_indices is None:
            cell_indices = range(self.cells)
        seen: Dict[int, None] = {}
        for cell in cell_indices:
            seen.setdefault(self.channel_of(cell), None)
        return tuple(seen)

    def shards(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """One shard per channel in use: ``(channel, ascending cells)``
        pairs in :meth:`ordered_channels` order (see
        :mod:`repro.workloads.sharding`)."""
        return [(channel, tuple(cell for cell in range(self.cells)
                                if self.channel_of(cell) == channel))
                for channel in self.ordered_channels()]

    # -- global id layout (shard-stable by construction) --------------
    # Flow ids, UDP pseudo-flow ids and wired /16s are all computed
    # from the *global* cell index rather than from per-run counters,
    # so a shard rebuilding a subset of cells mints exactly the ids
    # the unsharded run would have given those cells.
    def static_flow_id_base(self, cell: int) -> int:
        """First static TCP flow id of one cell (ids start at 1 and run
        in cell order, ``n_clients * flows_per_client`` per cell,
        exactly as the historical global counter did)."""
        return 1 + cell * self.n_clients * self.flows_per_client

    def udp_index_base(self, cell: int) -> int:
        """First global ``udp_download`` sink index of one cell (one
        sink per station; sink *i* reports under pseudo-flow id
        ``-(i + 1)``)."""
        return cell * self.n_clients


@dataclass
class ScenarioResult:
    """Everything a benchmark needs to print a paper table/figure row —
    and an accumulator: what :func:`collect` read off one finished
    simulator, which :meth:`merge` folds with the other shards'.

    The stored fields are plain data keyed by *global* cell / channel /
    flow id / station address (unioned by a merge), accumulators with
    their own ``merge`` and flat count dicts (``merge_counts``) — each
    measurement once.  Whatever a report reads in whole-scenario order
    — ``per_flow_goodput_mbps``, ``cell_blocks``, ``channel_blocks``,
    ``medium_*``, ``fct``, ``telemetry``, ``aqm_counters``,
    ``adversary_counters`` — is a read-only view computed from them
    when read, so it is the same however the cells were split and in
    whatever order shards were merged.
    What the run recorded (frame trace, telemetry) is fields like the
    rest.
    """

    config: ScenarioConfig
    #: cell -> [(flow id, goodput)] of its static TCP flows, build order.
    tcp_flows_by_cell: Dict[int, List[Tuple[int, float]]] = field(
        default_factory=dict)
    #: cell -> [(pseudo id, goodput)] of its ``udp_download`` sinks.
    udp_flows_by_cell: Dict[int, List[Tuple[int, float]]] = field(
        default_factory=dict)
    completion_times_ns: Dict[int, Optional[int]] = field(
        default_factory=dict)
    #: flow id -> ``TcpSender.counters()``.
    sender_counters: Dict[int, Dict[str, int]] = field(
        default_factory=dict)
    #: station -> ``HackDriver.metrics()``
    #: (``metrics_dict()["drivers"]``).
    driver_metrics: Dict[str, Dict[str, int]] = field(
        default_factory=dict)
    #: Measured CBR background noise per client (empty when the
    #: ``udp_background_mbps`` knob is off).  Deliberately separate
    #: from ``per_flow_goodput_mbps``: noise must not inflate the
    #: workload's aggregate goodput.
    udp_background_goodput_mbps: Dict[str, float] = field(
        default_factory=dict)
    #: cell -> what its channel's medium booked for it:
    #: ``{airtime_share, frames_sent, frames_collided}``.
    cell_medium: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: channel -> ``{utilisation, frames_sent, frames_collided}`` of
    #: its medium over the run.
    channel_medium: Dict[int, Dict[str, Any]] = field(
        default_factory=dict)
    #: cell -> its FlowManager's FctCollector, where churn ran.
    collectors: Dict[int, Any] = field(default_factory=dict)
    mac_stats: MacStats = field(default_factory=MacStats)
    #: Every MAC's queue statistics, merged (renders ``"aqm"``).
    qdisc_stats: QdiscStats = field(default_factory=QdiscStats)
    #: ``metrics_dict()["decompressor"]``, summed across drivers.
    decomp_counters: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            Decompressor.COUNTER_KEYS, 0))
    #: ROHC robustness/containment counters (``metrics_dict()["rohc"]``)
    #: summed across drivers — desyncs, recoveries, aborted frames,
    #: chain repairs.  All zero in cooperative runs.
    rohc_counters: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            HackDriver.ROHC_ROBUSTNESS_KEYS, 0))
    #: The attack actors' summed counters (renders ``"adversary"``);
    #: empty when nothing was installed.
    adversary_counts: Dict[str, int] = field(default_factory=dict)
    #: Event-kernel counters (see ``SimStats.as_dict``), summed over
    #: the simulators that ran (each one's own are under
    #: ``shard_blocks`` when several did).
    kernel_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-shard kernel/telemetry blocks (``metrics_dict()["shards"]``)
    #: of a multi-shard run: one entry per shard in plan order, each
    #: ``{channel, cells, kernel_stats, telemetry}``.  None when one
    #: simulator ran everything.
    shard_blocks: Optional[List[Dict[str, Any]]] = None
    #: How ``run_scenario`` executed the shards (mode, jobs, wall
    #: clock per shard, each shard's cells; not part of metrics).
    #: None for a result collected from the seam.
    shard_info: Optional[Dict[str, Any]] = None
    #: The frame record, when the run was asked for one
    #: (``telemetry.trace_export_path``); plain data.
    trace: Optional[MediumTracer] = field(default=None, repr=False)
    #: What a run executed with ``telemetry=TelemetryConfig(...)``
    #: recorded (an execution knob: never in ScenarioConfig, never in
    #: sweep cache signatures; None / empty otherwise): the knobs, the
    #: sample records in ``(t_ns, plan channel order)`` (the summary
    #: is a view of them) and the kernel timings (host wall times: the
    #: one nondeterministic part).
    telemetry_config: Optional[TelemetryConfig] = None
    telemetry_samples: List[Dict[str, Any]] = field(
        default_factory=list, repr=False)
    telemetry_instrument: Optional[KernelInstrument] = field(
        default=None, repr=False)
    #: The ``metrics_dict()`` blocks that say how the run was executed,
    #: not what it simulated: kernel counters (they follow the shard
    #: plan and the sampler's own events), the telemetry block (host
    #: wall times) and the per-shard blocks.  :meth:`record` is
    #: ``metrics_dict()`` without them.
    EXECUTION_KEYS = ("kernel_stats", "telemetry", "shards")

    def merge(self, other: "ScenarioResult") -> None:
        """Fold another shard's result of the same run into this one,
        in place; ``other`` is left untouched.

        Keyed data is unioned (the views restore whole-scenario
        order), accumulators are merged and counts summed — the one
        rule of :mod:`repro.obs.metrics`, ``kernel_stats`` included:
        a sum is free of merge order and grouping, so the kernel view
        is a function of the config like everything else.  Each
        simulator's own counters (and its telemetry block, when
        sampling ran) ride verbatim under ``shard_blocks``, ordered by
        first cell (= plan order).  What was recorded follows the
        rule too: samples and frame records re-sort into plan order
        (each shard holds those of its own channels, so the stream is
        the same however the cells were split), kernel timings sum.
        Each shard block is rendered before the samples fold, so its
        telemetry summary is a view of that shard's own samples.
        """
        self.shard_blocks = sorted(
            (dict(block) for result in (self, other)
             for block in result.shard_blocks or [result._shard_block()]),
            key=lambda block: block["cells"][0])
        for keyed in ("tcp_flows_by_cell", "udp_flows_by_cell",
                      "completion_times_ns", "sender_counters",
                      "driver_metrics", "udp_background_goodput_mbps",
                      "cell_medium", "channel_medium", "collectors"):
            getattr(self, keyed).update(getattr(other, keyed))
        self.mac_stats.merge(other.mac_stats)
        self.qdisc_stats.merge(other.qdisc_stats)
        for counts in ("decomp_counters", "rohc_counters",
                       "adversary_counts", "kernel_stats"):
            merge_counts(getattr(self, counts), getattr(other, counts))
        channels = self.config.ordered_channels()
        self.telemetry_samples = sorted(
            self.telemetry_samples + other.telemetry_samples,
            key=lambda record: (record["t_ns"],
                                channels.index(record["channel"])))
        if other.telemetry_config is not None:
            self.telemetry_instrument.merge(other.telemetry_instrument)
        if other.trace is not None:
            self.trace.merge(other.trace, channels)

    def _shard_block(self) -> Dict[str, Any]:
        """This one simulator's ``metrics_dict()["shards"]`` entry."""
        cells = sorted(self.cell_medium)
        return {"channel": self.config.channel_of(cells[0]),
                "cells": cells,
                "kernel_stats": dict(self.kernel_stats),
                "telemetry": self.telemetry}

    # -- views, in whole-scenario order --------------------------------
    @property
    def telemetry(self) -> Optional[Dict[str, Any]]:
        """The ``metrics_dict()["telemetry"]`` block of a telemetry
        run: deterministic except its ``"spans"`` table (host wall
        times), and an execution block: never in :meth:`record`."""
        if self.telemetry_config is None:
            return None
        return dict(
            telemetry_summary(self.telemetry_config,
                              self.telemetry_samples),
            enabled=True, spans=self.telemetry_instrument.as_dict())

    @property
    def per_flow_goodput_mbps(self) -> Dict[int, float]:
        """Static flows over ascending cells, then UDP sinks — the
        order that fixes the float sums behind the aggregate and Jain's
        index, whatever the shard plan."""
        return {flow_id: mbps
                for by_cell in (self.tcp_flows_by_cell,
                                self.udp_flows_by_cell)
                for cell in sorted(by_cell)
                for flow_id, mbps in by_cell[cell]}

    @property
    def cell_blocks(self) -> List[Dict[str, Any]]:
        """Per-cell blocks, "cell1" first (one for a single-cell run),
        from each cell's flows (TCP, then UDP sinks), churn collector,
        measured noise and medium books."""
        cfg = self.config
        blocks = []
        for cell in sorted(self.cell_medium):
            cell_flow = dict(self.tcp_flows_by_cell[cell]
                             + self.udp_flows_by_cell[cell])
            aggregate = sum(cell_flow.values())
            fct: Optional[Dict[str, Any]] = None
            carried = aggregate
            if cell in self.collectors:
                fct = self.collectors[cell].summary(
                    cfg.duration_ns, include_flows=False)
                carried += fct["carried_load_mbps"]
            clients = cfg.cell_client_names(cell)
            blocks.append({
                "label": cfg.cell_label(cell),
                "ap": cfg.cell_ap_name(cell),
                "clients": clients,
                "channel": cfg.channel_of(cell),
                "aggregate_goodput_mbps": aggregate,
                "per_flow_goodput_mbps": {
                    str(k): v for k, v in cell_flow.items()},
                "fairness_index": goodput_fairness(cell_flow),
                # Static goodput + churn carried load: the cross-cell
                # fairness basis (covers pure-churn cells whose static
                # aggregate is 0).
                "carried_mbps": carried,
                **self.cell_medium[cell],
                "fct": fct,
                "udp_background_goodput_mbps": {
                    name: self.udp_background_goodput_mbps[name]
                    for name in clients
                    if name in self.udp_background_goodput_mbps},
            })
        return blocks

    @property
    def channel_blocks(self) -> List[Dict[str, Any]]:
        """Per-channel blocks (``metrics_dict()["channels"]``) in
        ``config.ordered_channels()`` order.

        Deliberately free of cell membership (each cell block carries
        its "channel" key), so a silent extra cell changes no channel
        block.  ``airtime_share_sum`` — the channel's cells' shares in
        ascending cell order — is the per-channel invariant the
        multi-cell accounting guarantees to stay <= 1."""
        channel_of = self.config.channel_of
        return [{"channel": channel,
                 **self.channel_medium[channel],
                 "airtime_share_sum": sum(
                     self.cell_medium[cell]["airtime_share"]
                     for cell in sorted(self.cell_medium)
                     if channel_of(cell) == channel)}
                for channel in self.config.ordered_channels()
                if channel in self.channel_medium]

    @property
    def medium_frames_sent(self) -> int:
        return sum(block["frames_sent"]
                   for block in self.channel_blocks)

    @property
    def medium_frames_collided(self) -> int:
        return sum(block["frames_collided"]
                   for block in self.channel_blocks)

    @property
    def medium_utilisation(self) -> float:
        blocks = self.channel_blocks
        return sum(block["utilisation"] for block in blocks) / len(blocks)

    @property
    def fct(self) -> Optional[Dict[str, Any]]:
        """Flow-churn results (``FctCollector.summary``) over every
        cell's collector, merged in cell order; None for scenarios
        without an arrival process."""
        if not self.collectors:
            return None
        merged = FctCollector()
        for cell in sorted(self.collectors):
            merged.merge(self.collectors[cell])
        return merged.summary(self.config.duration_ns)

    @property
    def aqm_counters(self) -> Dict[str, Any]:
        """Queue-discipline block (``metrics_dict()["aqm"]``) over
        every station's MAC queues — AQM drops and delivered-packet
        sojourn percentiles (``QdiscStats.block``)."""
        return self.qdisc_stats.block(self.config.queue_discipline)

    @property
    def adversary_counters(self) -> Optional[Dict[str, Any]]:
        """The ``metrics_dict()["adversary"]`` block — present exactly
        when ``config.adversary`` is set (zeroed counters for inert
        plans)."""
        if self.config.adversary is None:
            return None
        return adversary_block(self.config.adversary,
                               self.adversary_counts)

    @property
    def aggregate_goodput_mbps(self) -> float:
        return sum(self.per_flow_goodput_mbps.values())

    @property
    def fairness_index(self) -> float:
        """Jain's index over TCP flows (paper §4.2: 'both are fair')."""
        return goodput_fairness(self.per_flow_goodput_mbps)

    @property
    def cell_fairness_index(self) -> float:
        """Jain's index over per-cell carried traffic (static goodput
        plus churn carried load) — how evenly co-channel cells share
        the medium.  1.0 for a single cell by construction."""
        return jain_index(block["carried_mbps"]
                          for block in self.cell_blocks)

    def record(self) -> Dict[str, Any]:
        """What the run simulated, as plain JSON-able data (string keys,
        so a JSON round-trip is lossless): one sweep record, a function
        of the config alone however the run was executed.  Each block
        is rendered here, once, from the stored fields (the rule:
        :mod:`repro.obs.metrics`; each field says what it renders)."""
        out = {
            "aggregate_goodput_mbps": self.aggregate_goodput_mbps,
            "per_flow_goodput_mbps": {
                str(k): v
                for k, v in self.per_flow_goodput_mbps.items()},
            "fairness_index": self.fairness_index,
            "medium_frames_sent": self.medium_frames_sent,
            "medium_frames_collided": self.medium_frames_collided,
            "medium_utilisation": self.medium_utilisation,
            "decompressor": dict(self.decomp_counters),
            "sender_counters": {
                str(k): dict(v)
                for k, v in self.sender_counters.items()},
            "completion_times_ns": {
                str(k): v
                for k, v in self.completion_times_ns.items()},
            "hack_fit_fraction": self.mac_stats.hack_fit_fraction(),
            "retry_table": {dst: dict(data) for dst, data
                            in self.mac_stats.retry_table().items()},
            "time_breakdown_ms": self.mac_stats.time_breakdown_ms(),
            "drivers": {name: dict(stats) for name, stats
                        in self.driver_metrics.items()},
            "fct": self.fct,
            "udp_background_goodput_mbps":
                dict(self.udp_background_goodput_mbps),
            "cells": self.cell_blocks,
            "cell_fairness_index": self.cell_fairness_index,
            "channels": self.channel_blocks,
            "rohc": dict(self.rohc_counters),
            "aqm": self.aqm_counters,
        }
        if self.config.adversary is not None:
            out["adversary"] = self.adversary_counters
        return out

    def metrics_dict(self) -> Dict[str, Any]:
        """:meth:`record` plus the execution blocks
        (:attr:`EXECUTION_KEYS`), in this dict's historical key order."""
        out = {}
        for key, value in self.record().items():
            out[key] = value
            if key == "drivers":
                out["kernel_stats"] = dict(self.kernel_stats)
            elif key == "aqm":
                if self.telemetry_config is not None:
                    out["telemetry"] = self.telemetry
                if self.shard_blocks is not None:
                    out["shards"] = [dict(block)
                                     for block in self.shard_blocks]
        return out


def _hack_config(cfg: ScenarioConfig) -> HackConfig:
    base = HackConfig.for_policy(cfg.policy)
    if cfg.stall_guard_ns is not None:
        base.stall_guard_ns = cfg.stall_guard_ns
    if cfg.explicit_timer_ns is not None:
        base.flush_after_ns = cfg.explicit_timer_ns
    return base


class _CellNet:
    """One BSS's live objects while a scenario is being built/run."""

    __slots__ = ("index", "ap_name", "client_names", "server", "ap",
                 "clients", "drivers", "flows", "udp_sinks",
                 "background_names", "flow_manager")

    def __init__(self, index: int, ap_name: str,
                 client_names: List[str]):
        self.index = index
        self.ap_name = ap_name
        self.client_names = client_names
        self.server: Optional[ServerNode] = None
        self.ap: Optional[ApNode] = None
        self.clients: Dict[str, ClientNode] = {}
        self.drivers: Dict[str, HackDriver] = {}
        self.flows: List[TcpFlow] = []
        #: udp_download sinks: (pseudo-flow id, client).
        self.udp_sinks: List[Tuple[int, str]] = []
        self.background_names: List[str] = []   # CBR noise sinks
        self.flow_manager: Optional[FlowManager] = None


def _loss_stream_name(channel: int) -> str:
    """Channel 0 keeps the historical "phy-loss" stream (bit-identity
    for every single-channel scenario); other channels draw from their
    own stream so no channel's losses perturb another's — and so a
    shard rebuilding one channel reproduces its draws exactly
    (RngRegistry streams are name-derived, not creation-order)."""
    if channel == DEFAULT_CHANNEL:
        return "phy-loss"
    return f"channel{channel}:phy-loss"


class CellBuilder:
    """The live world of one simulator: :func:`build_simulation` wires
    the given cells' BSSs — nodes, wiring and traffic — into it,
    :meth:`run` executes it, :func:`collect` flattens it.

    Everything id-like (station addresses, wired /16s, static flow
    ids, UDP pseudo-flow ids, RNG stream names) derives from the
    *global* cell index, never from build-order counters.  Building
    cells 0..N-1 in one simulator and building any subset of them in a
    fresh simulator therefore mint identical ids and draw identical
    random streams — which is what lets a scenario be split into
    per-channel shards (:mod:`repro.workloads.sharding`).
    """

    def __init__(self, cfg: ScenarioConfig,
                 cell_indices: Tuple[int, ...]):
        self.cfg = cfg
        self.cell_indices = cell_indices
        self.sim = Simulator()
        self.rngs = RngRegistry(cfg.seed)
        self.mac_stats = MacStats()
        #: Every flow's TCP knobs: the config fields of the same name.
        self.tcp = TcpParams(**{
            f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(TcpParams)})
        #: channel -> its medium, in ``cfg.ordered_channels(
        #: cell_indices)`` order (filled by :func:`build_simulation`).
        self.media: Dict[int, Medium] = {}
        #: Frame trace, for the Chrome-trace export.
        self.trace: Optional[MediumTracer] = None
        self.adversary_runtime: Optional[AdversaryRuntime] = None
        self.telemetry_session: Optional[TelemetrySession] = None
        # Run-wide collections, in build order.
        self.cells: List[_CellNet] = []
        self.flows: List[TcpFlow] = []
        self.clients: Dict[str, ClientNode] = {}
        self.drivers: Dict[str, HackDriver] = {}
        # Active greedy plan: which station addresses cheat (the first
        # GREEDY_STATIONS clients of global cell 0) and the cheaters
        # actually built.
        adv = cfg.adversary
        self.greedy_names = frozenset()
        if adv is not None and adv.active and adv.kind == "greedy":
            self.greedy_names = frozenset(
                cfg.cell_client_names(0)[:GREEDY_STATIONS])
        self.greedy_macs: List[GreedyDcfMac] = []

    def make_mac(self, address: str, queue_limit: Optional[int],
                 cell: int, medium: Medium) -> DcfMac:
        cfg = self.cfg
        phy = cfg.phy
        params = MacParams(
            data_rate_mbps=cfg.data_rate_mbps,
            aggregation=cfg.phy_mode == "11n",
            queue_limit=queue_limit,
            queue_discipline=cfg.queue_discipline,
            txop_limit_ns=cfg.txop_limit_ns)
        if cfg.sora:
            params.extra_response_delay_ns = SORA_RESPONSE_DELAY_NS
            params.ack_timeout_extra_ns = SORA_ACK_TIMEOUT_EXTRA_NS
        if address in self.greedy_names:
            mac = GreedyDcfMac(
                self.sim, medium, phy, address, params,
                self.rngs.stream(f"mac-{address}"),
                stats=self.mac_stats, loss_model=medium.loss_model,
                cell=cell, cheat=cfg.adversary.intensity)
            self.greedy_macs.append(mac)
            return mac
        return DcfMac(self.sim, medium, phy, address, params,
                      self.rngs.stream(f"mac-{address}"),
                      stats=self.mac_stats,
                      loss_model=medium.loss_model, cell=cell)

    def build(self, cell_index: int) -> _CellNet:
        """Wire one cell (global index) onto its channel's medium."""
        cfg = self.cfg
        sim = self.sim
        medium = self.media[cfg.channel_of(cell_index)]
        net = _CellNet(cell_index, cfg.cell_ap_name(cell_index),
                       cfg.cell_client_names(cell_index))
        self.cells.append(net)

        # --- Nodes ---------------------------------------------------
        ap_mac = self.make_mac(
            net.ap_name,
            cfg.ap_queue_per_client * cfg.flows_per_client,
            cell_index, medium)
        ap_driver = HackDriver(sim, ap_mac, _hack_config(cfg))
        ap = ApNode(sim, ap_driver, name=net.ap_name)
        net.ap = ap

        server = ServerNode(sim)
        link = WiredLink(sim, server, ap, WIRED_RATE_MBPS,
                         WIRED_DELAY_NS)
        server.attach_link(link)
        ap.attach_link(link)
        net.server = server
        net.drivers[net.ap_name] = ap_driver
        self.drivers[net.ap_name] = ap_driver

        for name in net.client_names:
            mac = self.make_mac(name, None, cell_index, medium)
            driver = HackDriver(sim, mac, _hack_config(cfg))
            client = ClientNode(sim, driver, name,
                                ap_name=net.ap_name)
            net.clients[name] = client
            self.clients[name] = client
            net.drivers[name] = driver
            self.drivers[name] = driver

        self._build_static_traffic(net, server)
        self._build_churn(net)
        self._build_background(net, server)
        return net

    def _build_static_traffic(self, net: _CellNet,
                              server: ServerNode) -> None:
        cfg = self.cfg
        sim = self.sim
        ip = cfg.cell_ip_prefix(net.index)
        flow_specs = []
        if cfg.traffic != "dynamic":
            for index, name in enumerate(net.client_names):
                if cfg.traffic == "udp_download":
                    flow_specs.append((index, name, 0))
                else:
                    for sub in range(cfg.flows_per_client):
                        flow_specs.append((index, name, sub))
        next_flow_id = cfg.static_flow_id_base(net.index)
        for spec_index, (index, name, sub) in enumerate(flow_specs):
            # Staggered starts are cell-local: each cell's operator
            # spaces their own flows, so co-channel cells ramp up
            # concurrently (that concurrency is the point).
            start_at = spec_index * cfg.stagger_ns
            if cfg.traffic == "udp_download":
                source = UdpSource(sim, server, name,
                                   cfg.udp_rate_mbps)
                pseudo_id = -(cfg.udp_index_base(net.index)
                              + len(net.udp_sinks) + 1)
                net.udp_sinks.append((pseudo_id, name))
                sim.schedule(start_at, source.start)
                continue
            flow_id = next_flow_id
            next_flow_id += 1
            tuple_down = FiveTuple(f"{ip}.0.1", f"{ip}.1.{index + 1}",
                                   5000 + flow_id, 80)
            direction = "download" if cfg.traffic == "tcp_download" \
                else "upload"
            flow = wire_flow(sim, flow_id, tuple_down, direction,
                             server, net.clients[name], self.tcp,
                             cfg.file_bytes)
            sender = flow.sender
            self.flows.append(flow)
            net.flows.append(flow)

            def _start(s=sender, f=flow):
                f.started_at = sim.now
                s.start()

            def _done(f=flow):
                f.completed_at = sim.now

            sender.on_complete = _done
            sim.schedule(start_at, _start)

    def _build_churn(self, net: _CellNet) -> None:
        cfg = self.cfg
        sim = self.sim
        if cfg.arrivals is None or not net.client_names:
            return
        net.flow_manager = FlowManager(
            sim, net.server, net.clients, net.client_names,
            net.drivers, self.tcp, direction=cfg.arrivals.direction,
            ap_name=net.ap_name,
            flow_id_base=DYNAMIC_FLOW_ID_BASE
            + net.index * CELL_FLOW_ID_STRIDE,
            ip_prefix=cfg.cell_ip_prefix(net.index))
        # Cell 1 draws from the historical "traffic:*" streams; later
        # cells get their own "cell<k>:traffic:*" namespace so no
        # cell's arrivals can perturb another's draws.
        cell_rngs = self.rngs if net.index == 0 else \
            self.rngs.namespace(cfg.cell_label(net.index))
        for process in build_processes(sim, cfg.arrivals,
                                       net.flow_manager.spawn,
                                       net.client_names,
                                       cell_rngs):
            sim.schedule(0, process.start)

    def _build_background(self, net: _CellNet,
                          server: ServerNode) -> None:
        # Kept out of ``udp_sinks``/per-flow goodput: noise is
        # environment, not workload — it must not inflate aggregate
        # goodput the way ``udp_download``'s sinks (the measured
        # traffic) legitimately do.
        cfg = self.cfg
        if cfg.udp_background_mbps <= 0:
            return
        for name in net.client_names:
            source = UdpSource(self.sim, server, name,
                               cfg.udp_background_mbps)
            net.background_names.append(name)
            self.sim.schedule(0, source.start)


    def snapshot_all(self) -> None:
        """One edge of the measurement window."""
        for flow in self.flows:
            flow.snapshot(self.sim.now)
        for client in self.clients.values():
            client.snapshot_udp()

    def run(self) -> None:
        """Schedule the warm-up and end-of-run snapshots, run to the
        horizon, then close the run: censor the churn flows still
        live.  Nothing is written to disk."""
        cfg = self.cfg
        self.sim.schedule(cfg.warmup_ns, self.snapshot_all)
        self.sim.schedule(cfg.duration_ns, self.snapshot_all,
                          priority=10)
        self.sim.run(until=cfg.duration_ns + 1)

        for net in self.cells:
            if net.flow_manager is not None:
                net.flow_manager.finalize()


def build_simulation(cfg: ScenarioConfig,
                     cell_indices: Optional[Tuple[int, ...]] = None,
                     telemetry: Optional[TelemetryConfig] = None
                     ) -> CellBuilder:
    """Build the given cells (global indices; default: every cell) in
    one fresh simulator and return the live world, ready to
    :meth:`~CellBuilder.run`.

    Construction order fixes the kernel's event sequence numbers, so
    it is part of the contract: per-channel loss models and media,
    then cells ascending, then the adversary, then the telemetry
    session.
    """
    cfg.validate()
    if cell_indices is None:
        cell_indices = range(cfg.cells)
    world = CellBuilder(cfg, tuple(cell_indices))
    for channel in cfg.ordered_channels(world.cell_indices):
        world.media[channel] = Medium(world.sim, cfg.loss.build(
            world.rngs.stream(_loss_stream_name(channel))))
    # A frame record is kept exactly when a Chrome trace will read it;
    # the tracer tags every record with its channel id.
    if telemetry is not None and telemetry.trace_export_path:
        world.trace = MediumTracer(world.media, MAX_EXPORT_FRAMES)
    for cell_index in world.cell_indices:
        world.build(cell_index)

    # Adversarial actors (inactive plans install nothing at all, so
    # zero-intensity runs stay bit-identical to adversary=None runs;
    # greedy stations were already substituted at MAC build time).
    world.adversary_runtime = install_adversary(
        cfg.adversary, world.sim, world.rngs, world.media,
        cfg.duration_ns)
    if world.adversary_runtime is not None:
        world.adversary_runtime.greedy_macs = world.greedy_macs

    if telemetry is not None:
        world.telemetry_session = TelemetrySession(
            cfg, telemetry, world.sim, world.media, world.cells)
        world.telemetry_session.start()
    return world


def _sink_mbps(client: ClientNode) -> Optional[float]:
    """A UDP sink's goodput over the measurement window."""
    snaps = client.udp_snapshots
    if len(snaps) < 2:
        return None
    (t0, b0), (t1, b1) = snaps[0], snaps[-1]
    return throughput_mbps(b1 - b0, t1 - t0)


def collect(world: CellBuilder) -> ScenarioResult:
    """Flatten a finished world to plain data — the one place live
    simulation objects are read for results."""
    cfg = world.cfg
    result = ScenarioResult(config=cfg, mac_stats=world.mac_stats,
                            kernel_stats=world.sim.stats.as_dict())
    for net in world.cells:
        tcp = result.tcp_flows_by_cell[net.index] = []
        for flow in net.flows:
            if cfg.file_bytes is not None \
                    and flow.completed_at is not None:
                mbps = throughput_mbps(
                    cfg.file_bytes,
                    flow.completed_at - (flow.started_at or 0))
            else:
                mbps = flow.stats.goodput_mbps(cfg.warmup_ns,
                                               cfg.duration_ns)
            tcp.append((flow.flow_id, mbps))
            result.completion_times_ns[flow.flow_id] = \
                flow.completion_time_ns()
            result.sender_counters[flow.flow_id] = flow.sender.counters()
        result.udp_flows_by_cell[net.index] = [
            (pseudo_id, mbps) for pseudo_id, name in net.udp_sinks
            if (mbps := _sink_mbps(net.clients[name])) is not None]
        result.udp_background_goodput_mbps.update(
            (name, mbps) for name in net.background_names
            if (mbps := _sink_mbps(net.clients[name])) is not None)
        medium = world.media[cfg.channel_of(net.index)]
        stats = medium.cell_stats(net.index)
        result.cell_medium[net.index] = {
            "airtime_share": medium.cell_airtime_share(
                net.index, cfg.duration_ns),
            "frames_sent": stats["frames_sent"],
            "frames_collided": stats["frames_collided"],
        }
        if net.flow_manager is not None:
            result.collectors[net.index] = net.flow_manager.collector
    for channel, medium in world.media.items():
        result.channel_medium[channel] = {
            "utilisation": medium.utilisation(cfg.duration_ns),
            "frames_sent": medium.frames_sent,
            "frames_collided": medium.frames_collided,
        }
    for name, driver in world.drivers.items():
        result.driver_metrics[name] = driver.metrics()
        merge_counts(result.decomp_counters,
                     driver.decompressor_counters())
        merge_counts(result.rohc_counters,
                     driver.rohc_robustness_counters())
        result.qdisc_stats.merge(driver.mac.qdisc_stats)
    if world.adversary_runtime is not None:
        result.adversary_counts = world.adversary_runtime.counters()
    result.trace = world.trace
    session = world.telemetry_session
    if session is not None:
        result.telemetry_config = session.config
        result.telemetry_samples = session.samples
        result.telemetry_instrument = session.instrument
    return result


def run_scenario(cfg: ScenarioConfig,
                 shard_jobs: Optional[int] = None,
                 telemetry: Optional[TelemetryConfig] = None
                 ) -> ScenarioResult:
    """Build the WLAN(s) described by ``cfg``, run, collect results.

    Validate, run the config's shards — one per channel in use,
    always; a one-channel config is a one-shard run, in-process — and
    merge them (:func:`~repro.workloads.sharding.run_shards`).
    ``shard_jobs`` only says how many processes run them: ``1`` =
    serially in-process, ``N`` = a pool of ``min(N, shards)``
    workers, ``None`` (the default) = one worker per shard when the
    host has more than one core and this process is not itself a pool
    worker, serially in-process otherwise.

    ``record()`` is the whole simulator's however the shards were
    run; in ``metrics_dict()``, ``kernel_stats`` is the sum of the
    shards' counters, each shard's own riding under ``"shards"`` when
    there are several.  The result is plain data (the frame record,
    when asked for, is ``result.trace``); the seam for a live world is
    ``build_simulation(cfg)`` -> ``world.run()`` -> ``collect(world)``.
    A shard that raises surfaces as
    :class:`~repro.workloads.sharding.ShardExecutionError` naming its
    channel and cells; a config that fails ``validate()`` raises
    ``ValueError`` before any shard starts.

    ``telemetry`` (a :class:`~repro.obs.TelemetryConfig`) turns on the
    observability layer — kernel span timing, the periodic time-series
    sampler and the optional JSONL / Chrome-trace artifacts.  Like
    ``shard_jobs`` it is an execution knob: it never enters
    ``ScenarioConfig``, sweep cache signatures or golden rows, and
    every scenario metric except ``kernel_stats`` stays bit-identical
    to a telemetry-off run.  Both artifacts are written here, once,
    from the (merged) result (:func:`~repro.obs.write_artifacts`),
    whatever the plan; the seam writes nothing.
    """
    cfg.validate()
    if shard_jobs is not None and shard_jobs < 1:
        raise ValueError(f"shard_jobs must be >= 1, got {shard_jobs}")
    result = run_shards(cfg, shard_jobs, telemetry)
    write_artifacts(result)
    return result

