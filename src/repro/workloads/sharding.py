"""Plan -> run each shard -> merge: how every scenario is executed.

Cells on different channels share nothing — not carrier sense, not
collisions, not loss draws (per-channel RNG streams), not flow ids,
not wired /16s — so a multi-channel scenario *factors exactly* into
one independent sub-scenario per channel.
:func:`~repro.workloads.scenarios.run_scenario` is built on that:

* **plan** — :class:`ShardPlan` splits the cells into shards: one
  shard holding every cell (a single simulator spanning all
  channels), or one shard per channel in use.
* **run** — a shard is :func:`~repro.workloads.scenarios.
  build_simulation` (a fresh :class:`~repro.sim.engine.Simulator`
  with the shard's cells wired in), ``run()``, then
  :func:`~repro.workloads.scenarios.collect`, which flattens the live
  world into a plain-data :class:`ShardOutcome`.  Because every id
  (addresses, static flow ids, UDP pseudo-ids, RNG stream names, IP
  prefixes) derives from the global cell index, a shard's event
  sequence is the whole scenario's sub-sequence for those cells.  A
  one-shard plan runs in-process; :func:`run_shards` runs several
  serially or across a process pool (:func:`execute_shard` is the
  pool's work function), with the same submit/poll shape the sweep
  engine uses.
* **merge** — :func:`merge_outcomes` is the only assembler of a
  :class:`~repro.workloads.scenarios.ScenarioResult`, under one rule:
  *merge accumulators, render once* (:mod:`repro.obs.metrics`).  What
  a shard ships is an accumulator with an associative ``merge``
  (``MacStats``, ``QdiscStats``, the per-cell FCT collectors, the
  telemetry registry), a flat ``{name: int}`` dict summed key-wise by
  ``merge_counts`` (decompressor, ROHC and adversary counters), or
  data keyed by global cell / channel that is only reordered:
  per-flow goodputs in whole-scenario insertion order (so
  order-sensitive float reductions — aggregate goodput, Jain — do not
  depend on the plan) and per-cell / per-channel blocks.  The
  ``"aqm"``, ``"adversary"`` and ``"fct"`` blocks are rendered here,
  from the merged accumulators.  The one rendered block that is
  merged is the span table (``merge_span_blocks``): a shard's raw
  span list is host wall times, up to ``max_spans`` tuples of them,
  and must not cross the process boundary.

Everything in ``metrics_dict()`` is identical whichever plan ran,
except the kernel view: counters of independent simulators are never
summed (each schedules its own two snapshot events, for one), so a
one-shard result carries its simulator's ``kernel_stats`` and a
multi-shard result carries ``{}`` plus one ``{channel, cells,
kernel_stats, telemetry}`` block per shard under
``metrics_dict()["shards"]``.

Telemetry (``run_scenario(..., telemetry=...)``) follows the same
law: every tick emits one sample record per channel and metric names
are disjoint per channel/cell, so samples sorted by ``(t_ns, plan
channel order)`` and the union of the registries are the same stream
and the same registry under any plan.  A one-shard world streams the
JSONL artifact itself; shards of a wider plan run with
``TelemetryConfig.without_paths()`` and the merge writes it once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..adversary.runtime import adversary_block
from ..mac.qdisc import QdiscStats
from ..obs import MetricsRegistry, TelemetryConfig, \
    merge_span_blocks, telemetry_meta, write_telemetry_file
from ..obs.metrics import merge_counts
from ..stats.collectors import MacStats


@dataclass(frozen=True)
class ShardPlan:
    """How one scenario's cells are split into shards.

    ``channels`` lists the channels in use in first-appearance order
    over ascending cell index (for round-robin assignment that is
    simply 0, 1, ..., C-1); ``cells_by_channel`` is aligned with it,
    each entry the ascending global cell indices on that channel.
    ``by_channel`` says whether each channel is its own shard or all
    of them share one.
    """

    channels: Tuple[int, ...]
    cells_by_channel: Tuple[Tuple[int, ...], ...]
    #: False = one shard holding every cell: a single simulator
    #: spanning all channels (``run_scenario``'s ``shard_jobs=None``).
    by_channel: bool = True

    @classmethod
    def from_config(cls, cfg, by_channel: bool = True) -> "ShardPlan":
        cfg.validate_cells()
        channels: Dict[int, List[int]] = {}
        for cell in range(cfg.cells):
            channels.setdefault(cfg.channel_of(cell), []).append(cell)
        return cls(channels=tuple(channels),
                   cells_by_channel=tuple(
                       tuple(cells) for cells in channels.values()),
                   by_channel=by_channel)

    @property
    def shard_count(self) -> int:
        return len(self.channels) if self.by_channel else 1

    def shards(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """(first channel, ascending cells) pairs, one per shard, in
        channel order.  The first channel keys the shard's outcome."""
        if self.by_channel:
            return list(zip(self.channels, self.cells_by_channel))
        return [(self.channels[0],
                 tuple(sorted(cell for cells in self.cells_by_channel
                              for cell in cells)))]

    def describe(self) -> Dict[str, Any]:
        """JSON-able plan summary (CLI output, ``shard_info``)."""
        return {
            "shards": self.shard_count,
            "channels": list(self.channels),
            "cells_by_channel": {
                str(channel): list(cells)
                for channel, cells in zip(self.channels,
                                          self.cells_by_channel)},
        }


@dataclass
class ShardOutcome:
    """One shard's results, flattened to picklable plain data.

    Live simulation objects (flows, clients, drivers, managers) never
    cross the process boundary; everything ``merge_outcomes`` needs is
    extracted by :func:`~repro.workloads.scenarios.collect`, keyed by
    *global* cell index so the merge can restore whole-scenario
    ordering.  Accumulators (``MacStats``, ``QdiscStats``, the FCT
    collectors, the telemetry registry — plain ints, floats and dicts
    inside) ship whole: the merge uses their ``merge`` methods.
    """

    #: The shard's channels, first-appearance order over its cells.
    channels: Tuple[int, ...]
    cell_indices: Tuple[int, ...]
    #: cell -> [(flow id, goodput)] for static TCP flows, build order.
    tcp_flows_by_cell: Dict[int, List[Tuple[int, float]]]
    #: cell -> [(pseudo id, goodput)] for udp_download sinks.
    udp_flows_by_cell: Dict[int, List[Tuple[int, float]]]
    completion_times_ns: Dict[int, Optional[int]]
    sender_counters: Dict[int, Dict[str, int]]
    mac_stats: MacStats
    driver_metrics: Dict[str, Dict[str, int]]
    decomp_counters: Dict[str, int]
    kernel_stats: Dict[str, int]
    udp_background_goodput_mbps: Dict[str, float]
    #: ROHC robustness counters (renders metrics_dict()["rohc"]).
    rohc_counters: Dict[str, int] = field(default_factory=dict)
    #: Every MAC's queue statistics, merged (renders ``"aqm"``).
    qdisc_stats: QdiscStats = field(default_factory=QdiscStats)
    #: The shard's attack actors' counters (renders ``"adversary"``);
    #: empty when nothing was installed.
    adversary_counters: Dict[str, int] = field(default_factory=dict)
    #: (cell index, cell block) in build (= ascending-cell) order.
    cell_blocks: List[Tuple[int, Dict[str, Any]]] = field(
        default_factory=list)
    #: One block per entry of ``channels``, same order.
    channel_blocks: List[Dict[str, Any]] = field(default_factory=list)
    #: (cell index, FctCollector | FctAggregator) where churn ran.
    collectors: List[Tuple[int, Any]] = field(default_factory=list)
    wall_s: float = 0.0
    #: Telemetry products (None/empty when the run had no telemetry):
    #: the shard's own ``"telemetry"`` block, its retained sample
    #: records (time order), and its registry (disjoint names make the
    #: merged union exact).
    telemetry_block: Optional[Dict[str, Any]] = None
    telemetry_samples: List[Dict[str, Any]] = field(
        default_factory=list)
    telemetry_registry: Optional[MetricsRegistry] = None


class ShardExecutionError(RuntimeError):
    """One shard raised; identifies the shard for fault isolation."""

    def __init__(self, channel: int, cells: Tuple[int, ...],
                 cause: BaseException):
        super().__init__(
            f"shard for channel {channel} (cells {list(cells)}) "
            f"failed: {type(cause).__name__}: {cause}")
        self.channel = channel
        self.cells = cells


def execute_shard(cfg, cell_indices: Tuple[int, ...],
                  telemetry: Optional[TelemetryConfig] = None
                  ) -> ShardOutcome:
    """Build, run and collect the given cells in a fresh simulator
    (the pool work function — module-level so it pickles)."""
    from .scenarios import build_simulation, collect

    started = time.perf_counter()
    world = build_simulation(cfg, cell_indices, telemetry)
    world.run()
    outcome = collect(world)
    outcome.wall_s = time.perf_counter() - started
    return outcome


def _effective_jobs(shard_jobs: int, shard_count: int) -> int:
    """Clamp the worker count; fall back to serial shards inside a
    daemonic worker (a sweep pool's child cannot spawn its own pool —
    serial shards produce identical metrics anyway)."""
    jobs = min(shard_jobs, shard_count)
    if jobs > 1:
        import multiprocessing
        if multiprocessing.current_process().daemon:
            return 1
    return jobs


def run_shards(cfg, plan: ShardPlan, shard_jobs: int,
               telemetry: Optional[TelemetryConfig] = None
               ) -> Tuple[Dict[int, ShardOutcome], Dict[str, Any]]:
    """Execute every shard of a multi-shard ``plan``; returns the
    outcomes (keyed as ``plan.shards()``) and the ``shard_info``.

    ``shard_jobs=1`` runs shards serially in-process; ``N > 1`` fans
    them over a process pool with the sweep engine's submit/poll
    shape (``wait(FIRST_COMPLETED)``), so a slow channel never blocks
    collection of the others.  Per-shard faults are isolated into
    :class:`ShardExecutionError` naming the channel and cells.

    With ``telemetry`` set, each shard samples and times its own
    kernel (``without_paths()`` — shards never write files) and
    :func:`merge_outcomes` writes the JSONL artifact.  Frame traces
    are refused: one records a single simulator's frames and cannot
    span shards.
    """
    if cfg.trace:
        raise ValueError(
            "trace=True records a single simulator's frames; it "
            "cannot span channel shards (run with shard_jobs=None)")
    if telemetry is not None and telemetry.trace_export_path:
        raise ValueError(
            "trace_export_path records a single simulator's frames; "
            "it cannot span channel shards (run with shard_jobs=None)")
    shard_telemetry = (telemetry.without_paths()
                       if telemetry is not None else None)
    shards = plan.shards()
    jobs = _effective_jobs(shard_jobs, len(shards))
    started = time.perf_counter()
    outcomes: Dict[int, ShardOutcome] = {}
    if jobs <= 1:
        for channel, cells in shards:
            try:
                outcomes[channel] = execute_shard(cfg, cells,
                                                  shard_telemetry)
            except Exception as exc:
                raise ShardExecutionError(channel, cells, exc) from exc
    else:
        # Imported here only: a process pool's imports cost ~25 ms,
        # which every serial run would otherwise pay at start-up.
        from concurrent.futures import FIRST_COMPLETED, \
            ProcessPoolExecutor, wait
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(execute_shard, cfg, cells,
                            shard_telemetry): (channel, cells)
                for channel, cells in shards}
            pending = set(futures)
            while pending:
                done, pending = wait(pending,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    channel, cells = futures[future]
                    try:
                        outcomes[channel] = future.result()
                    except Exception as exc:
                        raise ShardExecutionError(channel, cells,
                                                  exc) from exc
    shard_info = {
        "mode": "serial" if jobs <= 1 else "parallel",
        "jobs": jobs,
        "requested_jobs": shard_jobs,
        "wall_s": time.perf_counter() - started,
        "shard_wall_s": {
            str(channel): outcomes[channel].wall_s
            for channel, _ in shards},
        "plan": plan.describe(),
    }
    return outcomes, shard_info


def merge_outcomes(cfg, plan: ShardPlan,
                   outcomes: Dict[int, ShardOutcome],
                   shard_info: Optional[Dict[str, Any]] = None,
                   telemetry: Optional[TelemetryConfig] = None):
    """Assemble the ScenarioResult from a plan's shard outcomes.

    Ordering discipline: everything order-sensitive is rebuilt in
    whole-scenario order — static flows across all cells (ascending
    cell), then UDP sinks across all cells; cell blocks ascending;
    channel blocks in plan order; FCT collectors merged ascending by
    cell.  Float reductions over those sequences are then bit-identical
    however the cells were split into shards.  Every other block is
    rendered from a merged accumulator (the module docstring's rule).

    Kernel view: a one-shard plan reports that shard's counters as
    the result's ``kernel_stats``.  Independent simulators' counters
    are never summed — a multi-shard result's own ``kernel_stats`` is
    empty and each shard's counters (and telemetry block, when
    sampling ran) ride verbatim under ``ScenarioResult.shard_blocks``.
    """
    from .scenarios import ScenarioResult

    ordered = [outcomes[channel] for channel, _ in plan.shards()]
    by_cell_tcp: Dict[int, List[Tuple[int, float]]] = {}
    by_cell_udp: Dict[int, List[Tuple[int, float]]] = {}
    for outcome in ordered:
        by_cell_tcp.update(outcome.tcp_flows_by_cell)
        by_cell_udp.update(outcome.udp_flows_by_cell)
    all_cells = sorted(by_cell_tcp)

    per_flow: Dict[int, float] = {}
    for by_cell in (by_cell_tcp, by_cell_udp):
        for cell in all_cells:
            per_flow.update(by_cell[cell])

    completion: Dict[int, Optional[int]] = {}
    sender_counters: Dict[int, Dict[str, int]] = {}
    background: Dict[str, float] = {}
    driver_metrics: Dict[str, Dict[str, int]] = {}
    mac_stats = MacStats()
    qdisc_stats = QdiscStats()
    decomp: Dict[str, int] = {}
    rohc: Dict[str, int] = {}
    adversary: Dict[str, int] = {}
    for outcome in ordered:
        completion.update(outcome.completion_times_ns)
        sender_counters.update(outcome.sender_counters)
        background.update(outcome.udp_background_goodput_mbps)
        driver_metrics.update(outcome.driver_metrics)
        mac_stats.merge(outcome.mac_stats)
        qdisc_stats.merge(outcome.qdisc_stats)
        merge_counts(decomp, outcome.decomp_counters)
        merge_counts(rohc, outcome.rohc_counters)
        merge_counts(adversary, outcome.adversary_counters)

    if len(ordered) == 1:
        kernel_stats = dict(ordered[0].kernel_stats)
        shard_blocks = None
    else:
        kernel_stats = {}
        shard_blocks = [
            {
                "channel": outcome.channels[0],
                "cells": list(outcome.cell_indices),
                "kernel_stats": dict(outcome.kernel_stats),
                "telemetry": (dict(outcome.telemetry_block)
                              if outcome.telemetry_block is not None
                              else None),
            }
            for outcome in ordered]

    collectors = sorted(
        (pair for outcome in ordered for pair in outcome.collectors),
        key=lambda pair: pair[0])
    fct_summary: Optional[Dict[str, Any]] = None
    if collectors:
        merged = type(collectors[0][1])()
        for _, collector in collectors:
            merged.merge(collector)
        fct_summary = merged.summary(cfg.duration_ns)

    cell_blocks = [
        block for _, block in sorted(
            (pair for outcome in ordered for pair in
             outcome.cell_blocks),
            key=lambda pair: pair[0])]
    channel_blocks = [dict(block) for outcome in ordered
                      for block in outcome.channel_blocks]

    return ScenarioResult(
        config=cfg,
        per_flow_goodput_mbps=per_flow,
        mac_stats=mac_stats,
        driver_metrics=driver_metrics,
        decomp_counters=decomp,
        medium_frames_sent=sum(block["frames_sent"]
                               for block in channel_blocks),
        medium_frames_collided=sum(block["frames_collided"]
                                   for block in channel_blocks),
        medium_utilisation=sum(
            block["utilisation"] for block in channel_blocks)
        / len(channel_blocks),
        completion_times_ns=completion,
        sender_counters=sender_counters,
        kernel_stats=kernel_stats,
        fct=fct_summary,
        udp_background_goodput_mbps=background,
        cell_blocks=cell_blocks,
        channel_blocks=channel_blocks,
        shard_info=shard_info,
        shard_blocks=shard_blocks,
        telemetry=(_merge_telemetry(cfg, plan, ordered, all_cells,
                                    telemetry)
                   if telemetry is not None else None),
        rohc_counters=rohc,
        aqm_counters=qdisc_stats.block(cfg.queue_discipline),
        adversary_counters=(adversary_block(cfg.adversary, adversary)
                            if cfg.adversary is not None else None),
    )


def _merge_telemetry(cfg, plan: ShardPlan,
                     ordered: List[ShardOutcome],
                     all_cells: List[int],
                     telemetry: TelemetryConfig) -> Dict[str, Any]:
    """The run's telemetry block (and, for a multi-shard plan, its
    artifact) from the per-shard products.

    * Samples: every tick emits one record per channel, each shard
      those of its own channels, so sorting the union by ``(t_ns,
      plan channel order)`` gives the same stream however the cells
      were split.  ``max_samples`` caps the run, not the shard: the
      artifact carries the whole stream, the block counts the first
      ``max_samples`` of it as retained and the rest as dropped.
    * Registry: per-channel/per-cell metric names are disjoint across
      shards, so merging is a disjoint union (plus the ``samples``
      counter, which genuinely sums).
    * Spans: wall times sum by owner (each shard timed its own
      kernel).
    """
    channel_order = {channel: index
                     for index, channel in enumerate(plan.channels)}
    samples = sorted(
        (record for outcome in ordered
         for record in outcome.telemetry_samples),
        key=lambda record: (record["t_ns"],
                            channel_order[record["channel"]]))
    registry = MetricsRegistry()
    for outcome in ordered:
        registry.merge(outcome.telemetry_registry)
    span_blocks = [outcome.telemetry_block["spans"]
                   for outcome in ordered]
    spans = (merge_span_blocks(span_blocks)
             if any(span_blocks) else None)
    emitted = sum(outcome.telemetry_block["samples"]
                  for outcome in ordered)
    retained = len(samples) if telemetry.max_samples is None \
        else min(len(samples), telemetry.max_samples)
    summary = {
        "type": "summary",
        "sample_interval_ns": telemetry.sample_interval_ns,
        "samples": emitted,
        "retained_samples": retained,
        "dropped_samples": emitted - retained,
        "metrics": registry.as_dict(),
    }
    # A one-shard plan ran with the caller's paths and streamed the
    # artifact itself; shards of a wider plan never write files.
    if telemetry.telemetry_path and len(ordered) > 1:
        write_telemetry_file(
            telemetry.telemetry_path,
            telemetry_meta(cfg, telemetry, list(plan.channels),
                           all_cells),
            samples, summary, spans)
    block = dict(summary, enabled=True, spans=spans)
    del block["type"]
    return block
