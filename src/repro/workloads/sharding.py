"""Plan -> run each shard -> merge: how every scenario is executed.

Cells on different channels share nothing — not carrier sense, not
collisions, not loss draws (per-channel RNG streams), not flow ids,
not wired /16s — so a multi-channel scenario *factors exactly* into
one independent sub-scenario per channel: a channel is a simulator.
:func:`~repro.workloads.scenarios.run_scenario` is built on that:

* **plan** — :class:`ShardPlan` splits the cells into one shard per
  channel in use, always.  The one exception is a property of the
  input, decided in ``ShardPlan.from_config``: a run that asks for a
  frame record (``cfg.trace`` or ``telemetry.trace_export_path``)
  records a *single* simulator's frames, so it gets one shard holding
  every cell.
* **run** — a shard is :func:`~repro.workloads.scenarios.
  build_simulation` (a fresh :class:`~repro.sim.engine.Simulator`
  with the shard's cells wired in), ``run()``, then
  :func:`~repro.workloads.scenarios.collect`, which flattens the live
  world into a plain-data
  :class:`~repro.workloads.scenarios.ScenarioResult`.  Because every id
  (addresses, static flow ids, UDP pseudo-ids, RNG stream names, IP
  prefixes) derives from the global cell index, a shard's event
  sequence is the whole scenario's sub-sequence for those cells.  A
  one-shard plan runs in-process; :func:`run_shards` runs several
  side by side, one worker process per shard (:func:`execute_shard` is
  the pool's work function, with the same submit/poll shape the sweep
  engine uses), or serially in-process where processes buy nothing: a
  one-core host, or a caller that is itself a pool worker.  One worker
  per shard, not ``min(shards, cores)``: three equal shards of wall T
  on two workers take two rounds (2·T), three processes time-sliced on
  two cores finish in 1.5·T — and the channels in use are few (three
  in 2.4 GHz), a worker peaking at ~19 MB.
* **merge** — shard results merge:
  :meth:`~repro.workloads.scenarios.ScenarioResult.merge` folds one
  into another under the one rule of :mod:`repro.obs.metrics`, *merge
  accumulators, render once*, and the result's views restore
  whole-scenario order — so ``metrics_dict()`` is a function of the
  config alone, kernel view included: ``kernel_stats`` is the sum of
  the shards' counters, each shard's own riding under ``"shards"``.
  (A whole-simulator run — ``build_simulation(cfg)`` -> ``run()`` ->
  ``collect()``, the oracle the tests keep — agrees on everything but
  those two keys: it has one heap and one set of horizon events where
  the shards have one each.)  The one rendered block that is merged is
  the span table (``merge_span_blocks``): a shard's raw span list is
  host wall times, up to ``max_spans`` tuples of them, and must not
  cross the process boundary.

Telemetry (``run_scenario(..., telemetry=...)``) follows the same
law: every tick emits one sample record per channel and metric names
are disjoint per channel/cell, so samples sorted by ``(t_ns, plan
channel order)`` and the union of the registries are the same stream
and the same registry under any plan.  A one-shard world streams the
JSONL artifact itself; shards of a wider plan run with
``TelemetryConfig.without_paths()`` and :func:`merge_telemetry`, the
last step of the merge, writes it once.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs import TelemetryConfig, merge_span_blocks, telemetry_meta, \
    write_telemetry_file


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
    #: False = one shard holding every cell: the input asked for a
    #: single simulator's frame record (see ``from_config``).
    by_channel: bool = True

    @classmethod
    def from_config(cls, cfg, telemetry: Optional[TelemetryConfig] = None
                    ) -> "ShardPlan":
        """One shard per channel in use — unless the input asks for a
        frame record (``cfg.trace``, ``telemetry.trace_export_path``),
        which is one simulator's and cannot span shards."""
        cfg.validate_cells()
        by_channel = not (cfg.trace or (
            telemetry is not None and telemetry.trace_export_path))
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
                  telemetry: Optional[TelemetryConfig] = None):
    """Build, run and collect the given cells in a fresh simulator
    (the pool work function — module-level so it pickles); returns the
    shard's ``ScenarioResult`` and its wall-clock seconds."""
    from .scenarios import build_simulation, collect

    started = time.perf_counter()
    world = build_simulation(cfg, cell_indices, telemetry)
    world.run()
    return collect(world), time.perf_counter() - started


def _effective_jobs(shard_jobs: Optional[int], shard_count: int) -> int:
    """Worker processes for ``shard_count`` shards; 1 = serial,
    in-process.

    ``None`` decides from the host: one worker per shard when it has
    more than one core (not ``min(shards, cores)`` — see the module
    docstring), serial otherwise.  An integer is clamped to the shard
    count.  Either way a process that is itself a pool worker (a
    ``--jobs N`` sweep's child) runs its shards serially: the sweep
    already owns the cores, and serial shards produce the identical
    record.
    """
    if shard_jobs is None:
        jobs = shard_count if (os.cpu_count() or 1) > 1 else 1
    else:
        jobs = min(shard_jobs, shard_count)
    if jobs > 1:
        import multiprocessing
        if multiprocessing.parent_process() is not None:
            return 1
    return jobs


def run_shards(cfg, plan: ShardPlan, shard_jobs: Optional[int],
               telemetry: Optional[TelemetryConfig] = None):
    """Execute every shard of a multi-shard ``plan`` and merge their
    results into the run's ``ScenarioResult`` (``shard_info`` set).

    ``shard_jobs=1`` runs shards serially in-process; ``N > 1`` fans
    them over a pool of ``min(N, shards)`` processes with the sweep
    engine's submit/poll shape (``wait(FIRST_COMPLETED)``), so a
    failing channel is reported without waiting for the others;
    ``None`` lets :func:`_effective_jobs` decide from the host (one
    worker per shard, or serial).  Per-shard faults are isolated into
    :class:`ShardExecutionError` naming the channel and cells.  The
    merge itself does not care in which order results arrive; they
    are folded in plan order so that dict insertion order in
    ``metrics_dict()`` is reproducible run to run.

    With ``telemetry`` set, each shard samples and times its own
    kernel (``without_paths()`` — shards never write files) and
    :func:`merge_telemetry` writes the JSONL artifact.  Frame traces
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
    #: first channel -> (the shard's result, its wall seconds)
    done: Dict[int, Tuple[Any, float]] = {}
    if jobs <= 1:
        for channel, cells in shards:
            try:
                done[channel] = execute_shard(cfg, cells,
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
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    channel, cells = futures[future]
                    try:
                        done[channel] = future.result()
                    except Exception as exc:
                        raise ShardExecutionError(channel, cells,
                                                  exc) from exc
    result = done[shards[0][0]][0]
    for channel, _ in shards[1:]:
        result.merge(done[channel][0])
    if telemetry is not None:
        merge_telemetry(result, telemetry)
    result.shard_info = {
        "mode": "serial" if jobs <= 1 else "parallel",
        "jobs": jobs,
        "requested_jobs": shard_jobs,
        "wall_s": time.perf_counter() - started,
        "shard_wall_s": {str(channel): done[channel][1]
                         for channel, _ in shards},
        "plan": plan.describe(),
    }
    return result


def merge_telemetry(result, telemetry: TelemetryConfig) -> None:
    """The last step of a multi-shard merge: render the run-wide
    ``telemetry`` block of a merged ``result`` (and write the run's
    artifact) from its per-shard products.

    * Samples: every tick emits one record per channel, each shard
      those of its own channels, so sorting the union by ``(t_ns,
      plan channel order)`` gives the same stream however the cells
      were split.  ``max_samples`` caps the run, not the shard: the
      artifact carries the whole stream, the block counts the first
      ``max_samples`` of it as retained and the rest as dropped.
    * Registry: per-channel/per-cell metric names are disjoint across
      shards, so the merged one is a disjoint union (plus the
      ``samples`` counter, which genuinely sums).
    * Spans: wall times sum by owner (each shard timed its own
      kernel).
    """
    cfg = result.config
    channels = cfg.ordered_channels()
    result.telemetry_samples.sort(
        key=lambda record: (record["t_ns"],
                            channels.index(record["channel"])))
    samples = result.telemetry_samples
    shard_blocks = [block["telemetry"] for block in result.shard_blocks]
    span_blocks = [block["spans"] for block in shard_blocks]
    spans = (merge_span_blocks(span_blocks)
             if any(span_blocks) else None)
    emitted = sum(block["samples"] for block in shard_blocks)
    retained = len(samples) if telemetry.max_samples is None \
        else min(len(samples), telemetry.max_samples)
    summary = {
        "sample_interval_ns": telemetry.sample_interval_ns,
        "samples": emitted,
        "retained_samples": retained,
        "dropped_samples": emitted - retained,
        "metrics": result.telemetry_registry.as_dict(),
    }
    # Shards of a multi-shard plan never write files.
    if telemetry.telemetry_path:
        write_telemetry_file(
            telemetry.telemetry_path,
            telemetry_meta(cfg, telemetry, channels,
                           sorted(result.blocks_by_cell)),
            samples, dict(summary, type="summary"), spans)
    result.telemetry = dict(summary, enabled=True, spans=spans)
