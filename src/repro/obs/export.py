"""The one artifact writer, and the Chrome-trace / Perfetto document.

:func:`write_artifacts` writes what a finished run's
``telemetry_config`` asks for — the telemetry JSONL and the Chrome
trace — from the result's fields, once, whatever plan ran it.
:func:`chrome_trace` renders the observability products as a
trace-event JSON document (the ``chrome://tracing`` /
https://ui.perfetto.dev "JSON Array Format", wrapped in
``{"traceEvents": [...]}``):

* **frames** — every :class:`~repro.stats.trace.TraceRecord` becomes a
  duration (``"X"``) event on a ``channel<k>`` process, one thread per
  transmitting station; ``ts``/``dur`` are simulated microseconds, so
  the timeline *is* the medium schedule (A-MPDU bursts, Block ACK
  turnarounds, collisions flagged in args).
* **kernel spans** — each retained
  :class:`~repro.obs.spans.KernelInstrument` span becomes an ``"X"``
  event on the ``kernel`` process, one thread per callback owner,
  placed at its *simulated* instant with its *host wall* handler time
  as the duration: a map of where the host worked across simulated
  time.
* **samples** — sampler records become counter (``"C"``) tracks:
  per-channel utilisation and per-cell queue/flow/buffer depths.

Everything is plain ``json.dump``-able; load the file directly in
Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterable, List, Optional, \
    Union

from .sampler import telemetry_meta, telemetry_summary

_US = 1000  # ns per trace-event microsecond tick
_staging_counter = itertools.count()


def write_atomically(path: Union[str, Path],
                     dump: Callable[[IO[str]], Any]) -> None:
    """Write ``path`` as ``dump(handle)`` does, all or nothing: stage
    under a name unique per process and per call, then ``os.replace``.
    A failed write removes its staging file and re-raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_staging_counter)}.tmp")
    try:
        with open(tmp, "w") as handle:
            dump(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _frame_events(records: Iterable[Any]) -> List[Dict[str, Any]]:
    events = []
    for record in records:
        channel = getattr(record, "channel", 0)
        events.append({
            "name": record.frame_type,
            "cat": "frame",
            "ph": "X",
            "ts": record.start_ns / _US,
            "dur": record.duration_ns / _US,
            "pid": f"channel{channel}",
            "tid": str(record.src),
            "args": {
                "dst": record.dst,
                "bytes": record.byte_length,
                "mpdus": record.mpdu_count,
                "collided": record.collided,
                "hack_payload_bytes": record.hack_payload_bytes,
                "more_data": record.more_data,
            },
        })
    return events


def _span_events(spans: Iterable[Any]) -> List[Dict[str, Any]]:
    events = []
    for sim_ns, wall_ns, owner in spans:
        events.append({
            "name": owner,
            "cat": "kernel",
            "ph": "X",
            "ts": sim_ns / _US,
            "dur": wall_ns / _US,
            "pid": "kernel",
            "tid": owner,
            "args": {"wall_ns": wall_ns},
        })
    return events


def _counter_events(samples: Iterable[Dict[str, Any]]
                    ) -> List[Dict[str, Any]]:
    events = []
    for sample in samples:
        pid = f"channel{sample['channel']}"
        ts = sample["t_ns"] / _US
        events.append({
            "name": "utilisation",
            "cat": "telemetry",
            "ph": "C",
            "ts": ts,
            "pid": pid,
            "tid": "telemetry",
            "args": {"utilisation": sample["utilisation"]},
        })
        for cell in sample["cells"]:
            events.append({
                "name": f"{cell['label']} queues",
                "cat": "telemetry",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "tid": "telemetry",
                "args": {
                    "ap_queue": cell["ap_queue"],
                    "wired_down": cell["wired_down_queue"],
                    "wired_up": cell["wired_up_queue"],
                    "live_flows": cell["live_flows"],
                    "hack_buffer": cell["hack_buffer"],
                },
            })
    return events


def chrome_trace(frames: Iterable[Any] = (),
                 spans: Iterable[Any] = (),
                 samples: Iterable[Dict[str, Any]] = (),
                 meta: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Build the trace-event document (plain dict, ready to dump)."""
    events: List[Dict[str, Any]] = []
    events.extend(_frame_events(frames))
    events.extend(_span_events(spans))
    events.extend(_counter_events(samples))
    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        document["otherData"] = dict(meta)
    return document


def write_artifacts(result) -> None:
    """Write the files ``result.telemetry_config`` asks for, from a
    finished (merged) ``ScenarioResult``: the JSONL (meta, samples,
    summary, span table; one sorted-key object per line) and the
    Chrome trace (:func:`chrome_trace`, meta as ``otherData``).  Only
    the span table and ``kernel`` events carry host wall times.  Each
    file is written through :func:`write_atomically`: a run killed
    mid-write leaves the previous file or none, never a torn one.
    """
    config = result.telemetry_config
    if config is None:
        return
    samples = result.telemetry_samples
    instrument = result.telemetry_instrument
    meta = telemetry_meta(result.config, config)
    documents = []
    if config.telemetry_path:
        records = [meta, *samples,
                   dict(telemetry_summary(config, samples),
                        type="summary"),
                   dict(instrument.as_dict(), type="spans")]
        documents.append((config.telemetry_path, (
            json.dumps(record, sort_keys=True) + "\n"
            for record in records)))
    if config.trace_export_path:
        documents.append((config.trace_export_path,
                          json.JSONEncoder().iterencode(chrome_trace(
                              frames=result.trace.records,
                              spans=instrument.spans,
                              samples=samples, meta=meta))))
    for path, chunks in documents:
        write_atomically(path, lambda handle, chunks=chunks:
                         handle.writelines(chunks))
