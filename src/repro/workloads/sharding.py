"""Plan -> run each shard -> merge: how every scenario is executed.

Cells on different channels share nothing — not carrier sense, not
collisions, not loss draws (per-channel RNG streams), not flow ids,
not wired /16s — so a multi-channel scenario *factors exactly* into
one independent sub-scenario per channel: a channel is a simulator.
:func:`~repro.workloads.scenarios.run_scenario` is built on that:

* **plan** — :class:`ShardPlan` splits the cells into one shard per
  channel in use, always: what the run is asked to record (a frame
  trace, telemetry) changes what each shard carries back, never the
  plan.
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
  the shards have one each.)

What a run records follows the same law.  Every telemetry tick emits
one sample record per channel and a medium's frames are its channel's
alone, so samples re-sorted by ``(t_ns, plan channel order)`` and
frame records by ``(end_ns, plan channel order)`` are the same streams
under any plan (a single heap breaks a cross-channel end-time tie by
push order, the merge by plan order), and the telemetry summary is a
view of the merged samples; kernel timings sum by owner.
No shard, and nothing here, writes a file: ``run_scenario`` writes the
telemetry JSONL and the Chrome trace once, from the merged result
(:func:`~repro.obs.export.write_artifacts`), under every plan.
Both pools — shards here, sweep points in :mod:`repro.experiments.
batch` — are sized by :func:`pool_workers` and start each worker with
:func:`_exit_with_parent`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs import TelemetryConfig


@dataclass(frozen=True)
class ShardPlan:
    """How one scenario's cells are split into shards.

    ``channels`` lists the channels in use in first-appearance order
    over ascending cell index (for round-robin assignment that is
    simply 0, 1, ..., C-1); ``cells_by_channel`` is aligned with it,
    each entry the ascending global cell indices on that channel.
    """

    channels: Tuple[int, ...]
    cells_by_channel: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_config(cls, cfg) -> "ShardPlan":
        """One shard per channel in use."""
        cfg.validate_cells()
        channels: Dict[int, List[int]] = {}
        for cell in range(cfg.cells):
            channels.setdefault(cfg.channel_of(cell), []).append(cell)
        return cls(channels=tuple(channels),
                   cells_by_channel=tuple(
                       tuple(cells) for cells in channels.values()))

    @property
    def shard_count(self) -> int:
        return len(self.channels)

    def shards(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """(channel, ascending cells) pairs, one per shard, in channel
        order.  The channel keys the shard's outcome."""
        return list(zip(self.channels, self.cells_by_channel))

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


def pool_workers(wanted: int) -> int:
    """Worker processes to start for ``wanted``; 1 = run in-process.

    A process that is itself a pool worker (a sweep's child) never
    starts a pool of its own: the parent already owns the cores, and
    in-process work produces the identical record.  The sweep engine
    and the shard layer both size their pools through this.
    """
    if wanted > 1:
        import multiprocessing
        if multiprocessing.parent_process() is None:
            return wanted
    return 1


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer (both pools): a worker does not outlive
    the process that started it.

    A parent killed outright (SIGKILL, the OOM killer) cannot shut its
    pool down, and its workers would block on the call queue forever;
    once re-parented, this one exits (mid-task if need be — nobody is
    left to read the result).
    """
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _effective_jobs(shard_jobs: Optional[int], shard_count: int) -> int:
    """Worker processes for ``shard_count`` shards; 1 = serial,
    in-process.

    ``None`` decides from the host: one worker per shard when it has
    more than one core (not ``min(shards, cores)`` — see the module
    docstring), serial otherwise.  An integer is clamped to the shard
    count.  Either way :func:`pool_workers` has the last word.
    """
    if shard_jobs is None:
        jobs = shard_count if (os.cpu_count() or 1) > 1 else 1
    else:
        jobs = min(shard_jobs, shard_count)
    return pool_workers(jobs)


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
    ``metrics_dict()`` is reproducible run to run.  Workers exit by
    themselves if this process is killed (:func:`_exit_with_parent`).

    With ``telemetry`` set, each shard samples and times its own
    kernel; the merged result carries the samples, the frame record
    and the summed timings, from which ``run_scenario`` writes the
    artifacts.  Nothing here writes a file.
    """
    shards = plan.shards()
    jobs = _effective_jobs(shard_jobs, len(shards))
    started = time.perf_counter()
    #: channel -> (the shard's result, its wall seconds)
    done: Dict[int, Tuple[Any, float]] = {}
    if jobs <= 1:
        for channel, cells in shards:
            try:
                done[channel] = execute_shard(cfg, cells, telemetry)
            except Exception as exc:
                raise ShardExecutionError(channel, cells, exc) from exc
    else:
        # Imported here only: a process pool's imports cost ~25 ms,
        # which every serial run would otherwise pay at start-up.
        from concurrent.futures import FIRST_COMPLETED, \
            ProcessPoolExecutor, wait
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_exit_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            futures = {
                pool.submit(execute_shard, cfg, cells,
                            telemetry): (channel, cells)
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
