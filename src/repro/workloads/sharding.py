"""Plan -> run each shard -> merge: how every scenario is executed.

Cells on different channels share nothing — not carrier sense, not
collisions, not loss draws (per-channel RNG streams), not flow ids,
not wired /16s — so a multi-channel scenario *factors exactly* into
one independent sub-scenario per channel: a channel is a simulator.
:func:`~repro.workloads.scenarios.run_scenario` is built on that:

* **plan** — :meth:`~repro.workloads.scenarios.ScenarioConfig.
  shards` splits the cells into one shard per channel in use, always
  (a one-channel config is a one-shard run): what the run is asked to
  record (a frame trace, telemetry) changes what each shard carries
  back, never the plan.
* **run** — a shard is :func:`~repro.workloads.scenarios.
  build_simulation` (a fresh :class:`~repro.sim.engine.Simulator`
  with the shard's cells wired in), ``run()``, then
  :func:`~repro.workloads.scenarios.collect`, which flattens the live
  world into a plain-data
  :class:`~repro.workloads.scenarios.ScenarioResult`
  (:func:`execute_shard`, the one place a run builds a world).
  Because every id (addresses, static flow ids, UDP pseudo-ids, RNG
  stream names, IP prefixes) derives from the global cell index, a
  shard's event sequence is the whole scenario's sub-sequence for
  those cells.  :func:`run_shards` walks the shards in plan order,
  side by side over a pool's ``map`` (one worker process per shard),
  or serially in-process over the builtin ``map`` where processes buy
  nothing: one shard, a one-core host, or a caller that is itself a
  pool worker.  One worker per shard, not ``min(shards, cores)``:
  three equal shards of wall T on two workers take two rounds (2·T),
  three processes time-sliced on two cores finish in 1.5·T — and the
  channels in use are few (three in 2.4 GHz), a worker peaking at
  ~19 MB.
* **merge** — shard results merge:
  :meth:`~repro.workloads.scenarios.ScenarioResult.merge` folds one
  into another under the one rule of :mod:`repro.obs.metrics`, *merge
  accumulators, render once*, and the result's views restore
  whole-scenario order — so ``metrics_dict()`` is a function of the
  config alone, kernel view included: ``kernel_stats`` is the sum of
  the shards' counters, each shard's own riding under ``"shards"``.
  (A whole-simulator run — ``build_simulation(cfg)`` -> ``run()`` ->
  ``collect()``, the oracle the tests keep — has the same ``record()``
  and differs in those two keys only: it has one heap and one set of
  horizon events where the shards have one each.)

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
from contextlib import ExitStack
from typing import Any, List, Optional, Tuple

from ..obs import TelemetryConfig


class ShardExecutionError(RuntimeError):
    """One shard raised; identifies the shard for fault isolation.

    ``cause`` is the shard's error as text (``"RuntimeError: boom"``;
    the exception itself is chained as ``__cause__``).  The error's
    args are exactly its constructor's, all plain data, so it pickles
    back intact out of a sweep's worker process.
    """

    def __init__(self, channel: int, cells: Tuple[int, ...], cause: str):
        super().__init__(channel, cells, cause)
        self.channel = channel
        self.cells = cells

    def __str__(self) -> str:
        channel, cells, cause = self.args
        return (f"shard for channel {channel} (cells {list(cells)}) "
                f"failed: {cause}")


def execute_shard(cfg, cell_indices: Tuple[int, ...],
                  telemetry: Optional[TelemetryConfig] = None):
    """Build, run and collect the given cells in a fresh simulator —
    the one place ``run_scenario`` holds a live world, and the work
    function of both walks (module-level so a pool can pickle it);
    returns the shard's ``ScenarioResult`` and its wall-clock
    seconds."""
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


def run_shards(cfg, shard_jobs: Optional[int],
               telemetry: Optional[TelemetryConfig] = None):
    """Execute every shard of ``cfg`` (:meth:`~repro.workloads.
    scenarios.ScenarioConfig.shards`) and merge their results into the
    run's ``ScenarioResult`` (``shard_info`` set).

    One walk over the shards in plan order, over the builtin ``map``
    (serial, in-process) or a pool's (:func:`_effective_jobs` says
    which).  The first shard in plan order that raises is re-raised as
    :class:`ShardExecutionError` naming its channel and cells.
    Results fold in plan order, so that dict insertion order in
    ``metrics_dict()`` is reproducible run to run.

    With ``telemetry`` set, each shard samples and times its own
    kernel; the merged result carries the samples, the frame record
    and the summed timings, from which ``run_scenario`` writes the
    artifacts.  Nothing here writes a file.
    """
    shards = cfg.shards()
    jobs = _effective_jobs(shard_jobs, len(shards))
    started = time.perf_counter()
    with ExitStack() as stack:
        if jobs <= 1:
            walk = map
        else:
            # Imported here only: a process pool's imports cost ~25 ms,
            # which every serial run would otherwise pay at start-up.
            from concurrent.futures import ProcessPoolExecutor
            walk = stack.enter_context(ProcessPoolExecutor(
                max_workers=jobs, initializer=_exit_with_parent,
                initargs=(os.getpid(),))).map
        outcomes = walk(execute_shard, [cfg] * len(shards),
                        [cells for _, cells in shards],
                        [telemetry] * len(shards))
        #: (the shard's result, its wall seconds), in plan order
        done: List[Tuple[Any, float]] = []
        for channel, cells in shards:
            try:
                done.append(next(outcomes))
            except Exception as exc:
                raise ShardExecutionError(
                    channel, cells, f"{type(exc).__name__}: {exc}"
                ) from exc
    result = done[0][0]
    for shard, _ in done[1:]:
        result.merge(shard)
    result.shard_info = {
        "mode": "serial" if jobs <= 1 else "parallel",
        "jobs": jobs,
        "requested_jobs": shard_jobs,
        "wall_s": time.perf_counter() - started,
        "shard_wall_s": {str(channel): wall for (channel, _), (_, wall)
                         in zip(shards, done)},
        "shards": {str(channel): list(cells) for channel, cells in shards},
    }
    return result
