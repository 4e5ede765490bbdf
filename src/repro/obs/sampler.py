"""Periodic time-series sampler and the telemetry session.

A :class:`TelemetrySession` is the run-scoped object behind
``run_scenario(cfg, telemetry=TelemetryConfig(...))``: it installs the
kernel instrument and schedules a simulated-time periodic sampler; it
writes nothing.  What it records — samples and the instrument —
``collect()`` reads off it as plain ``ScenarioResult`` fields, from
which the ``"telemetry"`` metrics block is rendered
(:func:`telemetry_summary`, a view of the samples: its deterministic
part, and the artifact's summary line) and from which
:func:`~repro.obs.export.write_artifacts` writes the files, once,
after the run.

Every sample tick emits **one record per channel** (not one per tick),
with that channel's cells nested inside — the shard-friendly shape: a
channel shard emits exactly the records the unsharded run would have
emitted for that channel, so the merged, ``(t_ns, channel-order)``
sorted stream is line-identical to the unsharded artifact.  Sampled
per channel: medium utilisation, instantaneous busy flag and frame
counters; per cell: AP MAC backlog, wired up/down queue depths, live
churn flows, HACK compressed-ACK buffer depth, and ROHC compressor CID
occupancy.

Telemetry is an *execution* knob like ``shard_jobs`` — never part of
``ScenarioConfig`` — so sweep cache signatures and golden rows are
untouched by it.  The sampler's events do run through the shared
kernel (they are simulated-time driven), which perturbs only
``kernel_stats`` counts: sampler callbacks are read-only, so every
scenario metric stays bit-identical to a telemetry-off run (the
determinism oracle in ``tests/obs``).

JSONL artifact layout (one JSON object per line)::

    {"type": "meta", ...}        # scenario + sampling parameters
    {"type": "sample", ...}      # one per (tick, channel), time order
    {"type": "summary", ...}     # gauges + histograms of the samples
    {"type": "spans", ...}       # kernel span table (wall time)

Only the ``spans`` line is nondeterministic (host wall times); meta,
samples and summary are bit-identical across telemetry-on reruns and
across unsharded / serial-shard / pool-shard executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.units import MS
from .metrics import Histogram
from .spans import KernelInstrument

#: Sample-record fields mirrored into per-cell gauges.
_CELL_FIELDS = ("ap_queue", "wired_down_queue", "wired_up_queue",
                "live_flows", "hack_buffer", "rohc_cids",
                "rohc_failures", "aqm_backlog", "aqm_drops",
                "aqm_sojourn_p99_ms")

TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 2
#: Individual kernel spans / frame records a simulator retains for a
#: Chrome-trace export (aggregates and counts are always unbounded).
MAX_EXPORT_SPANS = 20_000
MAX_EXPORT_FRAMES = 200_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability knobs for one run (execution-side, not config).

    ``telemetry_path`` names the JSONL artifact; ``trace_export_path``
    a Chrome trace-event JSON (frames + kernel spans + counter tracks).
    ``run_scenario`` writes both after the run, from the result.  Both
    default off; constructing the object at all enables the sampler
    and the kernel instrument.
    """

    sample_interval_ns: int = 10 * MS
    telemetry_path: Optional[str] = None
    trace_export_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sample_interval_ns <= 0:
            raise ValueError(
                f"sample_interval_ns must be positive, "
                f"got {self.sample_interval_ns}")


def telemetry_meta(cfg, config: TelemetryConfig) -> Dict[str, Any]:
    """The artifact's first line (and the Chrome trace's
    ``otherData``): always the whole scenario's cells and channels,
    however the run was split."""
    meta = {
        "type": "meta",
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "sample_interval_ns": config.sample_interval_ns,
        "duration_ns": cfg.duration_ns,
        "warmup_ns": cfg.warmup_ns,
        "seed": cfg.seed,
        "traffic": cfg.traffic,
        "policy": cfg.policy.value,
        "cells": list(range(cfg.cells)),
        "channels": list(cfg.ordered_channels()),
    }
    # Conditional (cooperative meta lines keep their historical shape):
    # which attack this run was executed under.
    adversary = getattr(cfg, "adversary", None)
    if adversary is not None:
        meta["adversary"] = {
            "kind": adversary.kind,
            "intensity": adversary.intensity,
            "jam_mode": adversary.jam_mode,
            "mutate_mode": adversary.mutate_mode,
        }
    return meta


def telemetry_summary(config: TelemetryConfig,
                      samples: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The deterministic part of the ``"telemetry"`` block, and (plus
    ``type``) the artifact's summary line: a view of the samples.

    Gauges ``channel<k>.utilisation|busy`` and ``<label>.<field>``
    (:data:`_CELL_FIELDS`) give last / min / max / mean / count in
    stream order, ``<label>.ap_queue`` is also a :class:`Histogram`,
    names sorted.  A name is one channel's or cell's, so its values
    come from one shard in time order: a merged stream's summary is
    the whole simulator's.  The mean is an in-order ``+=`` fold;
    ``sum()`` compensates floats from Python 3.12 on.
    """
    series: Dict[str, List[Any]] = {}
    for sample in samples:
        channel = sample["channel"]
        for name in ("utilisation", "busy"):
            series.setdefault(f"channel{channel}.{name}",
                              []).append(sample[name])
        for cell in sample["cells"]:
            label = cell["label"]
            for name in _CELL_FIELDS:
                series.setdefault(f"{label}.{name}",
                                  []).append(cell[name])
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Any] = {}
    for name in sorted(series):
        values = series[name]
        total = 0.0
        for value in values:
            total += value
        gauges[name] = {"last": values[-1], "min": min(values),
                        "max": max(values),
                        "mean": total / len(values),
                        "count": len(values)}
        if name.endswith(".ap_queue"):
            queue = Histogram()
            for value in values:
                queue.observe(value)
            histograms[name] = queue.as_value()
    return {
        "sample_interval_ns": config.sample_interval_ns,
        "samples": len(samples),
        "metrics": {"counters": {"samples": len(samples)},
                    "gauges": gauges, "histograms": histograms},
    }


def _cell_sojourn_p99(net) -> float:
    """Delivered-packet sojourn p99 (ms) across one cell's stations;
    0.0 until anything has been dequeued (keeps the gauge numeric)."""
    sojourn = Histogram()
    for driver in net.drivers.values():
        sojourn.merge(driver.mac.qdisc_stats.sojourn)
    return sojourn.percentile(0.99) or 0.0


class TelemetrySession:
    """One simulator's live observability state (sampler + spans).

    Wired by :func:`~repro.workloads.scenarios.build_simulation`; its
    plain-data products (samples, instrument) travel in the
    :class:`~repro.workloads.scenarios.ScenarioResult` and are merged
    by its ``merge``.  It opens no file: the artifacts are written
    from the finished result (:func:`~repro.obs.export.write_artifacts`).
    """

    def __init__(self, cfg, config: TelemetryConfig, sim, media,
                 channels: Sequence[int], cells: Sequence[Any]):
        self.cfg = cfg
        self.config = config
        self.sim = sim
        self.media = media
        self.channels: Tuple[int, ...] = tuple(channels)
        # Raw spans are kept only when an export will read them.
        self.instrument = KernelInstrument(
            MAX_EXPORT_SPANS if config.trace_export_path else 0)
        self.samples: List[Dict[str, Any]] = []
        self._cells_by_channel: Dict[int, List[Any]] = {
            channel: [net for net in cells
                      if cfg.channel_of(net.index) == channel]
            for channel in self.channels}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Install the instrument and schedule the first sample tick
        (t=0; ticks repeat every ``sample_interval_ns`` of simulated
        time through the end of the run)."""
        self.sim.set_instrument(self.instrument)
        self.sim.schedule(0, self._tick)

    # -- sampling ------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        for channel in self.channels:
            self.samples.append(self._sample_channel(channel, now))
        if now + self.config.sample_interval_ns <= self.cfg.duration_ns:
            self.sim.schedule(self.config.sample_interval_ns,
                              self._tick)

    def _sample_channel(self, channel: int,
                        now: int) -> Dict[str, Any]:
        medium = self.media.medium(channel)
        return {
            "type": "sample",
            "t_ns": now,
            "channel": channel,
            "utilisation": medium.utilisation(now) if now > 0 else 0.0,
            "busy": 1 if medium.busy else 0,
            "frames_sent": medium.frames_sent,
            "frames_collided": medium.frames_collided,
            "cells": [self._sample_cell(net)
                      for net in self._cells_by_channel[channel]],
        }

    def _sample_cell(self, net) -> Dict[str, Any]:
        down, up = net.server.link.queue_depths()
        live = len(net.flow_manager.live) \
            if net.flow_manager is not None else 0
        record = {
            "cell": net.index,
            "label": self.cfg.cell_label(net.index),
            "ap_queue": net.ap.queue_depth(),
            "wired_down_queue": down,
            "wired_up_queue": up,
            "live_flows": live,
            "hack_buffer": sum(driver.buffered_acks()
                               for driver in net.drivers.values()),
            "rohc_cids": sum(driver.rohc_context_count()
                             for driver in net.drivers.values()),
            "rohc_failures": sum(driver.rohc_failure_count()
                                 for driver in net.drivers.values()),
            # Queue-discipline probes: total MAC backlog, cumulative
            # AQM head drops, and the delivered-sojourn p99 so far.
            "aqm_backlog": sum(driver.mac.total_backlog()
                               for driver in net.drivers.values()),
            "aqm_drops": sum(driver.mac.qdisc_stats.drops
                             for driver in net.drivers.values()),
            "aqm_sojourn_p99_ms": _cell_sojourn_p99(net),
        }
        return record
