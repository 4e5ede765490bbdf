"""Parallel sweep engine: declarative experiment grids, executed in batch.

Every paper artifact is a *sweep*: a grid of :class:`ScenarioConfig`
variations crossed with seeds, each cell reduced to a mean and
standard deviation (:func:`mean_stdev`).  This module makes that
structure explicit and executable in parallel:

* :class:`SweepSpec` — a named, ordered collection of
  :class:`SweepPoint`\\ s.  A point is either a **scenario** (one
  ``ScenarioConfig``, i.e. one simulator run) or **analytic** (a
  dotted reference to a pure function returning a metrics dict, used
  by closed-form artifacts like Figure 1).
* :class:`SweepRunner` — executes specs as one schedule under one
  worker rule: ``jobs`` workers, or with ``jobs=None``
  ``min(cores, pending scenario points)``.  At most one, every point
  runs in-process, one at a time (``jobs=1`` is the serial reference
  path); more, and ``run_many`` hands every pending point of every
  spec, analytic ones included, to one
  :class:`concurrent.futures.ProcessPoolExecutor`.  Identical seeds
  produce identical metrics, records and artifacts either way.
  Execution is *incremental and fault-isolated*: every point's metrics
  are checkpointed into the cache the moment that point completes, a
  point runs once and, if it raises, its error is its record — the
  sweep goes on (a point is a function of its config, so a retry
  would only raise again) — and SIGINT/SIGTERM interrupt gracefully:
  completed work is flushed and :class:`SweepInterrupted` carries the
  partial results.
* :class:`SweepCache` — content-hash cache: each point is keyed by a
  SHA-256 over its canonical JSON description, so re-running a sweep
  whose cells did not change costs nothing.  Because the runner
  checkpoints per point, *any* killed grid is resumable from its cache
  by construction.  One read of an entry (``SweepCache._read``) gives
  its verdict to ``repro sweep --status`` and its metrics to the
  runner.  Corrupt entries are quarantined (moved aside) rather than
  silently re-missed forever; failures leave
  ``<signature>.error.json`` breadcrumbs that ``--status`` reports and
  a successful re-run clears.
* :class:`SweepRecord` — one point's outcome (metrics or an error),
  and the only state a sweep keeps: the runner fills one slot per
  point as it resolves, and the result's counts, the ``--progress``
  snapshots and the completeness gate (``SweepResult.complete``) are
  views of those records.  A new per-point fact is one field here.
* :class:`SweepResult` — the records plus per-cell mean/stdev
  aggregation, persistable to/reloadable from a JSON dict
  (``to_json_dict`` / ``from_json_dict``: one entry of a ``--out``
  artifact; ``version`` 2, the only schema read; artifacts from a
  different ``ENGINE_VERSION`` are rejected).

Workers rebuild the whole simulation from the (picklable) config, so
nothing stateful crosses process boundaries except plain dicts.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import importlib
import json
import os
import signal
import statistics
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Mapping, Optional, Sequence, Tuple, Union

from ..obs.export import write_atomically
from ..obs.metrics import canonical_json, digest
from ..workloads.scenarios import ScenarioConfig, run_scenario
from ..workloads.sharding import _exit_with_parent, pool_workers
from .progress import SweepProgress

#: Bump to invalidate every cached cell: bump when a record changes
#: (what ``ScenarioResult.record()`` or an analytic point returns for
#: the same config).  Kernel counts are not in records, so a change
#: that only moves them bumps nothing.
#: 2: lazy-backoff kernel + kernel_stats in every metrics record.
#: 3: re-armable timers — rows unchanged, but the cached kernel_stats
#:    (fewer scheduled/cancelled events, new timer_rearms) are not.
#: 4: carrier sense owned by the medium — rows unchanged again, the
#:    cached kernel_stats (one IFS wake per idle period) are not.
#: 5: the ``"aqm"`` block has no ``marks`` key and its sojourn
#:    percentiles follow the FCT law (``obs.metrics.Histogram``;
#:    they move by at most one bin).
#: 6: trains — rows unchanged, the cached kernel_stats (a packet on a
#:    wire or up a client stack is no longer a heap push; new
#:    ``events_inlined``) are not.
#: 7: every multi-channel point runs as one simulator per channel —
#:    rows unchanged, but its cached ``kernel_stats`` is the sum of the
#:    shards' counters and a ``shards`` block is always present.
#: 8: the streaming FCT mode and the config-side frame record left
#:    ``ScenarioConfig`` — rows unchanged, but every scenario point's
#:    signature (``dataclasses.asdict(config)``) is not.
#: 9: a record holds what the config simulated — ``kernel_stats`` and
#:    ``shards`` left it (rows unchanged; a multi-channel record is
#:    now the same as the whole simulator's).
#: 10: the ``"rohc"`` block closes its desync book —
#:    ``released_desyncs`` (flows that ended desynced) and
#:    ``open_desync_ns_total`` (summed age of the desyncs still open)
#:    are new keys; rows unchanged.
#: 11: twelve ``ScenarioConfig`` fields that only ever held the
#:    paper's constants (MSS, initial window and ssthresh, SACK, the
#:    client stack delay, the backhaul, ``init_vanilla_acks``,
#:    ``aggregation``) or a test's cell map (``cell_clients``,
#:    ``cell_channel``) left it for their layers' defaults — rows
#:    unchanged, but every scenario point's signature is not.
#: 12: ``hack_split_to_aifs`` left ``ScenarioConfig``: no scenario set
#:    it (``HackConfig.split_to_aifs`` stays) — rows unchanged, but
#:    every scenario point's signature is not.
#: 13: the loss, arrival, size and adversary specs lost the knobs no
#:    workload varied (now their layers' constants), and SoRa's late
#:    LL ACK is one ``sora`` switch — rows unchanged, every signature
#:    is not.
#: 14: ``rate_adaptation`` (AARF) left ``ScenarioConfig``: every run
#:    sent at ``data_rate_mbps`` — rows unchanged, every signature is
#:    not.
ENGINE_VERSION = 14

#: SweepResult artifact schema version.
#: 2: per-record ``error`` payloads, ``failed`` count, ``interrupted``
#: flag (incremental/fault-isolated runner).
RESULT_VERSION = 2

Key = Tuple[Any, ...]
Metrics = Dict[str, Any]


def _normalise_key(key: Iterable[Any]) -> Key:
    """Cell keys must survive a JSON round-trip; map enums to values."""
    return tuple(k.value if isinstance(k, enum.Enum) else k
                 for k in key)


# ----------------------------------------------------------------------
# Points and specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One unit of work: a cell key plus how to produce its metrics.

    ``key`` identifies the *cell* (axis coordinates); several points
    may share a key (one per seed) and are averaged together.
    """

    key: Key
    config: Optional[ScenarioConfig] = None
    fn: Optional[str] = None             # "pkg.module:function"
    fn_kwargs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def kind(self) -> str:
        return "scenario" if self.config is not None else "analytic"

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed if self.config is not None else None

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (the cache identity)."""
        if self.config is not None:
            payload: Dict[str, Any] = {
                "kind": "scenario",
                "config": dataclasses.asdict(self.config),
            }
        else:
            payload = {"kind": "analytic", "fn": self.fn,
                       "kwargs": dict(self.fn_kwargs)}
        payload["engine"] = ENGINE_VERSION
        return payload


def point_signature(point: SweepPoint) -> str:
    """Content hash identifying one point (config + engine version)."""
    return digest(point.describe())


@dataclass
class SweepSpec:
    """A named, ordered grid of sweep points."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add_scenario(self, key: Key, config: ScenarioConfig) -> None:
        self.points.append(SweepPoint(key=_normalise_key(key),
                                      config=config))

    def add_analytic(self, key: Key, fn: str, **kwargs: Any) -> None:
        self.points.append(SweepPoint(
            key=_normalise_key(key), fn=fn,
            fn_kwargs=tuple(sorted(kwargs.items()))))


# ----------------------------------------------------------------------
# Metric extraction (runs inside the worker process)
# ----------------------------------------------------------------------
def _resolve(dotted: str) -> Callable[..., Metrics]:
    module_name, _, attr = dotted.partition(":")
    if not attr:
        raise ValueError(
            f"analytic fn must be 'module:function', got {dotted!r}")
    return getattr(importlib.import_module(module_name), attr)


def execute_point(point: SweepPoint,
                  telemetry_dir: Optional[str] = None) -> Metrics:
    """Produce one point's record (the process-pool work function).

    A scenario point's record is ``run_scenario(...).record()``, so
    ``telemetry_dir`` (sample into ``<signature>.jsonl``) changes no
    record and no signature.  Its shards run as ``run_scenario``
    decides: serially in a pool worker, side by side on a multi-core
    host in-process."""
    if point.config is not None:
        telemetry = None
        if telemetry_dir is not None:
            from ..obs import TelemetryConfig
            telemetry = TelemetryConfig(telemetry_path=os.path.join(
                telemetry_dir, point_signature(point) + ".jsonl"))
        return run_scenario(point.config, telemetry=telemetry).record()
    metrics = _resolve(point.fn)(**dict(point.fn_kwargs))
    if not isinstance(metrics, dict):
        raise TypeError(
            f"analytic point {point.fn} returned {type(metrics)!r}, "
            "expected a metrics dict")
    return metrics


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class SweepCache:
    """Content-addressed store of per-point metrics on disk.

    Layout per point signature:

    * ``<signature>.json`` — the point's metrics dict (a hit);
    * ``<signature>.error.json`` — breadcrumb left by a *failed*
      execution (never loaded as metrics — the point is re-executed on
      the next run — but surfaced by ``repro sweep --status``);
    * ``<signature>.json.corrupt`` — a quarantined entry that existed
      but did not parse as a JSON dict (moved aside so it cannot mask
      the cell as a plain miss forever).

    :meth:`_read` is the one read of an entry: :meth:`probe`
    (``--status``) returns its verdict, :meth:`load` (the runner) its
    metrics.  Every write goes through :func:`write_atomically`, so
    several runners sharing one cache directory never interleave or
    race ``os.replace``.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def _path(self, signature: str) -> Path:
        return self.directory / f"{signature}.json"

    def _error_path(self, signature: str) -> Path:
        return self.directory / f"{signature}.error.json"

    def _read(self, signature: str) -> Tuple[str, Optional[Metrics]]:
        """A point's verdict (one of ``progress.PROBE_STATES``) and,
        when ``complete``, its metrics; an entry wins over a stale
        breadcrumb.  Moves nothing."""
        try:
            with open(self._path(signature)) as handle:
                metrics = json.load(handle)
        except FileNotFoundError:
            failed = self._error_path(signature).exists()
            return "failed" if failed else "missing", None
        except (OSError, ValueError):
            return "corrupt", None
        if not isinstance(metrics, dict):
            return "corrupt", None
        return "complete", metrics

    def load(self, signature: str) -> Optional[Metrics]:
        """The point's metrics on a hit, else None.  A ``corrupt`` entry
        (e.g. a torn write) is quarantined, not re-missed forever."""
        verdict, metrics = self._read(signature)
        if verdict == "corrupt":
            path = self._path(signature)
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
        return metrics

    def probe(self, signature: str) -> str:
        """Non-mutating status check: ``complete`` / ``failed`` /
        ``missing`` / ``corrupt`` (what ``repro sweep --status``
        runs)."""
        return self._read(signature)[0]

    def store(self, signature: str, metrics: Metrics) -> None:
        write_atomically(self._path(signature),
                         lambda handle: json.dump(metrics, handle))
        self.clear_failure(signature)

    def store_failure(self, signature: str,
                      error: Dict[str, Any]) -> None:
        """Record a point's failure (status breadcrumb, not a hit)."""
        write_atomically(self._error_path(signature),
                         lambda handle: json.dump(error, handle))

    def clear_failure(self, signature: str) -> None:
        try:
            os.remove(self._error_path(signature))
        except OSError:
            pass


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class SweepRecord:
    """One point's outcome: metrics, or a first-class error.

    ``metrics`` is ``None`` exactly when ``error`` is set; a failed
    point records the exception (type, message, traceback) instead of
    aborting the sweep.
    """

    key: Key
    seed: Optional[int]
    signature: str
    metrics: Optional[Metrics]
    cached: bool = False
    error: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None


MetricSpec = Union[str, Callable[[Metrics], float]]


def _metric_value(metrics: Metrics, metric: MetricSpec) -> float:
    if callable(metric):
        return metric(metrics)
    return metrics[metric]


def mean_stdev(values: Sequence[float]) -> Dict[str, float]:
    """Per-cell aggregate: mean, sample stdev (0 for one run), runs."""
    return {
        "mean": statistics.fmean(values),
        "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "runs": len(values),
    }


class StaleArtifactError(ValueError):
    """A sweep artifact was written under a different ENGINE_VERSION.

    Mixing its rows with fresh ones would mix simulator semantics.
    """


@dataclass
class SweepResult:
    """All records of one sweep plus aggregation and (de)serialisation.

    ``interrupted`` marks a *partial* artifact: the sweep was stopped
    by SIGINT/SIGTERM after flushing completed work, and points that
    never started have no record at all.  The counts (``executed``,
    ``cache_hits``, ``failed``) and :attr:`complete` are views of the
    records; an artifact's stored counts are written, never read.
    """

    spec_name: str
    records: List[SweepRecord] = field(default_factory=list)
    interrupted: bool = False

    @property
    def executed(self) -> int:
        """Points this sweep ran to metrics."""
        return sum(1 for r in self.records if r.ok and not r.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def failed(self) -> int:
        """Points whose record carries an ``error`` instead of metrics."""
        return sum(1 for r in self.records if not r.ok)

    @property
    def complete(self) -> bool:
        """The gate's record-level rule: no failed point, and not an
        interrupted partial result."""
        return not (self.failed or self.interrupted)

    def keys(self) -> List[Key]:
        seen: Dict[Key, None] = {}
        for record in self.records:
            seen.setdefault(record.key, None)
        return list(seen)

    def records_for(self, key: Key) -> List[SweepRecord]:
        key = _normalise_key(key)
        return [r for r in self.records if r.key == key]

    def metrics_for(self, key: Key) -> List[Metrics]:
        """Successful records' metrics only (failures carry none)."""
        return [r.metrics for r in self.records_for(key) if r.ok]

    def failures(self) -> List[SweepRecord]:
        return [r for r in self.records if not r.ok]

    def values(self, key: Key, metric: MetricSpec) -> List[float]:
        return [_metric_value(m, metric) for m in self.metrics_for(key)]

    def cell(self, key: Key, metric: MetricSpec) -> Dict[str, float]:
        """mean/stdev/runs of one metric over one cell's seeds."""
        values = self.values(key, metric)
        if not values:
            raise KeyError(
                f"no records for cell {tuple(key)!r} in sweep "
                f"{self.spec_name!r} (known cells: {self.keys()})")
        return mean_stdev(values)

    # -- persistence ---------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-sweep-result",
            "version": RESULT_VERSION,
            "engine": ENGINE_VERSION,
            "spec": self.spec_name,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed": self.failed,
            "interrupted": self.interrupted,
            "records": [
                {"key": list(r.key), "seed": r.seed,
                 "signature": r.signature, "cached": r.cached,
                 "metrics": r.metrics, "error": r.error}
                for r in self.records],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Reload an artifact (schema :data:`RESULT_VERSION` only).

        Raises :class:`StaleArtifactError` when the artifact's
        ``engine`` differs from the running :data:`ENGINE_VERSION` —
        its rows were produced under different simulator semantics and
        must not silently mix with fresh ones.
        """
        if payload.get("format") != "repro-sweep-result":
            raise ValueError("not a sweep-result JSON document")
        version = payload.get("version")
        if version != RESULT_VERSION:
            raise ValueError(
                f"unknown sweep-result version {version!r} "
                f"(this build reads version {RESULT_VERSION})")
        engine = payload.get("engine")
        if engine != ENGINE_VERSION:
            raise StaleArtifactError(
                f"artifact was produced by engine version {engine!r}, "
                f"this build is {ENGINE_VERSION}; its rows would mix "
                f"incompatible simulator semantics")
        return cls(
            spec_name=payload["spec"],
            interrupted=payload.get("interrupted", False),
            records=[SweepRecord(
                key=tuple(r["key"]), seed=r.get("seed"),
                signature=r.get("signature", ""),
                metrics=r["metrics"], cached=r.get("cached", False),
                error=r.get("error"))
                for r in payload["records"]])


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class SweepInterrupted(RuntimeError):
    """The sweep was stopped by SIGINT/SIGTERM.

    Completed work was flushed (and cached, when a cache is
    configured).  ``results`` maps the position, among the specs given
    to :meth:`SweepRunner.run_many`, of every spec that had started but
    was not yet returned to its partial :class:`SweepResult`
    (``interrupted=True``); the spec the caller was waiting on is
    always there, and ``result`` is the first of them — the one
    :meth:`SweepRunner.run` was running.  ``signum`` is the signal that
    stopped it.
    """

    def __init__(self, results: Dict[int, SweepResult],
                 signum: Optional[int] = None):
        done = sum(r.executed + r.cache_hits for r in results.values())
        failed = sum(r.failed for r in results.values())
        names = ", ".join(repr(r.spec_name) for r in results.values())
        super().__init__(
            f"sweep {names} interrupted"
            f"{f' by signal {signum}' if signum else ''}: "
            f"{done} points completed, {failed} failed")
        self.results = results
        self.signum = signum

    @property
    def result(self) -> Optional[SweepResult]:
        return next(iter(self.results.values()), None)


class _RunState:
    """One spec of a ``SweepRunner.run_many`` schedule: a record slot
    per point, filled when that point resolves."""

    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self.signatures = [point_signature(p) for p in spec.points]
        self.records: List[Optional[SweepRecord]] = \
            [None] * len(spec.points)
        #: A point of this spec was handed to execution.
        self.begun = False
        self.started_at = time.perf_counter()

    def fill(self, index: int, metrics: Optional[Metrics],
             cached: bool = False,
             error: Optional[Dict[str, Any]] = None) -> None:
        point = self.spec.points[index]
        self.records[index] = SweepRecord(
            key=point.key, seed=point.seed,
            signature=self.signatures[index], metrics=metrics,
            cached=cached, error=error)

    @property
    def resolved(self) -> bool:
        """Every point has a record (metrics or error)."""
        return all(self.records)

    @property
    def started(self) -> bool:
        return self.begun or any(self.records)

    def progress(self) -> SweepProgress:
        done = self.result()
        return SweepProgress(
            spec_name=self.spec.name, total=len(self.records),
            executed=done.executed, cached=done.cache_hits,
            failed=done.failed,
            elapsed_s=time.perf_counter() - self.started_at)

    def result(self, interrupted: bool = False) -> SweepResult:
        """The filled slots in spec order: a point interrupted before it
        started simply has no record."""
        return SweepResult(
            spec_name=self.spec.name, interrupted=interrupted,
            records=[r for r in self.records if r is not None])


#: One point of a schedule: its spec's state and its index there.
Item = Tuple[_RunState, int]


class SweepRunner:
    """Executes :class:`SweepSpec`\\ s, optionally in parallel + cached.

    The worker rule: ``jobs`` (a positive count), or with ``None``
    ``min(cores, pending scenario points)``, sized once through
    ``sharding.pool_workers`` (a caller that is itself a pool worker
    gets one).  One worker runs every point in-process, one at a time
    (``jobs=1``: the deterministic reference path); more hand every
    pending point, analytic ones included, to one process pool.  Both
    go down one loop (:meth:`_execute`).  Results are ordered by spec
    point order regardless of completion order, so aggregates are
    identical across all execution modes.

    Completion is incremental and fault-isolated:

    * every point's metrics are checkpointed into the cache *the
      moment it completes* — a killed run resumes from its cache;
    * each point runs once: a raising point's error is its record
      (``SweepRecord.error``) and the sweep keeps going.  A worker that
      dies breaks the pool, which fails every point it still holds
      with ``BrokenProcessPool``; those are error records too, as is
      any point handed to the broken pool afterwards;
    * SIGINT/SIGTERM stop the sweep gracefully: in-flight results are
      flushed and :class:`SweepInterrupted` carries the partial
      results (a second SIGINT raises ``KeyboardInterrupt``
      immediately);
    * ``progress`` (any callable accepting a
      :class:`repro.experiments.progress.SweepProgress`) is invoked
      for each spec after the cache scan and after every one of its
      points resolves.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 progress: Optional[
                     Callable[[SweepProgress], None]] = None,
                 telemetry_dir: Optional[Union[str, Path]] = None):
        if jobs is not None and jobs < 1:
            raise ValueError(
                f"jobs must be a positive integer or None, got {jobs}")
        self.jobs = jobs
        self.cache = SweepCache(cache_dir) if cache_dir else None
        self.progress = progress
        #: Per-point telemetry JSONL output directory (execution knob;
        #: see ``execute_point``).  Cached points are not re-run, so
        #: only freshly executed points leave artifacts.
        self.telemetry_dir = str(telemetry_dir) \
            if telemetry_dir is not None else None
        self._stop_signal: Optional[int] = None
        #: pending point -> the later points with its signature.
        self._followers: Dict[Item, List[Item]] = {}

    # -- interruption --------------------------------------------------
    def _request_stop(self, signum: int, _frame: Any) -> None:
        if self._stop_signal is not None and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self._stop_signal = signum

    def _trap_signals(self) -> List[Tuple[int, Any]]:
        """Install graceful-stop handlers; no-op off the main thread."""
        if threading.current_thread() is not threading.main_thread():
            return []
        previous = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous.append(
                    (signum, signal.signal(signum,
                                           self._request_stop)))
            except (ValueError, OSError):  # pragma: no cover
                pass
        return previous

    @staticmethod
    def _restore_signals(previous: List[Tuple[int, Any]]) -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)

    # -- bookkeeping ---------------------------------------------------
    def _emit_progress(self, state: _RunState) -> None:
        if self.progress is not None:
            self.progress(state.progress())

    def _scan(self, states: List[_RunState]) -> List[Item]:
        """Resolve every cache hit; return the points left to execute.

        With a cache, a point whose signature an earlier pending point
        has is not queued: it follows that point (see
        :meth:`_note_success`).
        """
        owners: Dict[str, Item] = {}
        queue: List[Item] = []
        self._followers = {}
        for state in states:
            for index, signature in enumerate(state.signatures):
                cached = self.cache.load(signature) if self.cache else None
                if cached is not None:
                    state.fill(index, cached, cached=True)
                    continue
                owner = owners.setdefault(signature, (state, index))
                if self.cache is not None and owner != (state, index):
                    self._followers.setdefault(owner, []).append(
                        (state, index))
                else:
                    queue.append((state, index))
            self._emit_progress(state)
        return queue

    def _note_success(self, state: _RunState, index: int,
                      metrics: Metrics) -> None:
        # JSON-normalise so serial, parallel and cache-restored runs
        # expose byte-identical metric structures.
        text = canonical_json(metrics)
        state.fill(index, json.loads(text))
        if self.cache is not None:
            # The checkpoint: flushed the moment the point completes,
            # which is what makes any killed grid resumable.
            self.cache.store(state.signatures[index],
                             state.records[index].metrics)
        self._emit_progress(state)
        # What a serial run records for the same config: a later spec
        # loads the entry just stored (a cache hit), while a copy in
        # this spec missed the cache at the scan and runs again — to
        # the same metrics, as a run is a function of its config.
        for follower, at in self._followers.pop((state, index), ()):
            follower.fill(at, json.loads(text),
                          cached=follower is not state)
            self._emit_progress(follower)

    def _note_failure(self, state: _RunState, index: int,
                      exc: BaseException) -> List[Item]:
        """Record a failed point, its error a JSON-able description of
        ``exc``; returns its followers, which a serial run would have
        missed in the cache and executed themselves."""
        error = {"type": type(exc).__name__, "message": str(exc),
                 "traceback": "".join(traceback_module.format_exception(
                     type(exc), exc, exc.__traceback__))}
        state.fill(index, None, error=error)
        if self.cache is not None:
            self.cache.store_failure(state.signatures[index], error)
        self._emit_progress(state)
        return self._followers.pop((state, index), [])

    # -- execution -----------------------------------------------------
    def _execute(self, queue: List[Item]) -> Iterator[None]:
        """Run every queued point; yields first, then after each batch
        resolves.  Every point handed out is a future — a pool's, or one
        resolved by running the point in-process — and one ``wait`` loop
        notes each outcome before it checks the stop signal, so a point
        that finished as SIGINT arrived is still recorded and cached."""
        # Imported here, as in ``sharding.run_shards``: importing the
        # runner stays cheap, and only a run that starts a pool pays the
        # pool's ~20 ms of imports.
        from concurrent.futures import FIRST_COMPLETED, Future, wait
        scenarios = sum(1 for state, index in queue
                        if state.spec.points[index].kind == "scenario")
        jobs = pool_workers(self.jobs or min(os.cpu_count() or 1,
                                             scenarios))
        pool = None
        if jobs > 1 and queue:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=jobs,
                                       initializer=_exit_with_parent,
                                       initargs=(os.getpid(),))
        pending = collections.deque(queue)
        futures: Dict[Any, Item] = {}

        def hand_out() -> None:
            # A pool takes every pending point; in-process, one point
            # runs at a time and is noted before the next starts.
            while pending and self._stop_signal is None \
                    and (pool is not None or not futures):
                state, index = item = pending.popleft()
                state.begun = True
                args = (state.spec.points[index], self.telemetry_dir)
                future = Future()
                try:
                    if pool is not None:
                        future = pool.submit(execute_point, *args)
                    else:
                        future.set_result(execute_point(*args))
                except Exception as exc:    # raised, or the pool is broken
                    future.set_exception(exc)
                futures[future] = item

        try:
            yield                       # the cache scan's hits go first
            while True:
                hand_out()
                if not futures:
                    return
                done, _ = wait(futures, timeout=0.1,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    state, index = futures.pop(future)
                    try:
                        metrics = future.result()
                    except Exception as exc:
                        pending.extend(
                            self._note_failure(state, index, exc))
                    else:
                        self._note_success(state, index, metrics)
                if self._stop_signal is not None:
                    return
                yield
        finally:
            if pool is not None:
                try:
                    pool.shutdown(wait=self._stop_signal is None,
                                  cancel_futures=True)
                except Exception:  # pragma: no cover - already broken
                    pass

    # -- entry points --------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute one spec: the one-spec case of :meth:`run_many`."""
        [result] = self.run_many([spec])
        return result

    def run_many(self, specs: Iterable[SweepSpec]
                 ) -> Iterator[SweepResult]:
        """Execute several specs as one schedule, yielding each spec's
        :class:`SweepResult` in the order given as soon as its points
        resolve.

        The cache is scanned once, then every pending point goes to one
        pool (or runs in-process; see the class docstring).  With a
        cache, each signature is executed once: a later spec records
        its copy as a cache hit — what a serial run, loading the entry
        the earlier spec stored, records — and a copy in the same spec
        as executed, as serially; without a cache every point runs.
        Either way the records are a serial run's: one spec after the
        other, each executing every point its cache scan missed.
        """
        states = [_RunState(spec) for spec in specs]
        queue = self._scan(states)
        self._stop_signal = None
        previous_handlers = self._trap_signals()
        ticks = self._execute(queue)
        returned = 0
        try:
            for _ in ticks:
                if self._stop_signal is not None:
                    break
                while returned < len(states) \
                        and states[returned].resolved:
                    yield states[returned].result()
                    returned += 1
        finally:
            ticks.close()
            self._restore_signals(previous_handlers)
        if self._stop_signal is not None:
            raise SweepInterrupted(
                {position: state.result(interrupted=True)
                 for position, state in enumerate(states)
                 if position == returned
                 or (position > returned and state.started)},
                self._stop_signal)
