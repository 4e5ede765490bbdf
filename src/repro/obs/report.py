"""``repro report``: summarize a telemetry JSONL artifact.

Reads the artifact produced by ``repro simulate --telemetry PATH`` (or
a ``repro sweep --telemetry-dir`` per-point file) and prints the run's
top kernel time consumers and queue/airtime highlights — the 30-second
"where did this run spend its time, and where did it queue" view,
without loading anything into a trace viewer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


class TelemetryArtifactError(ValueError):
    """The file is not a repro-telemetry JSONL artifact."""


#: Meta-record keys the report reads.
_META_KEYS = ("cells", "channels", "duration_ns", "policy",
              "sample_interval_ns", "seed", "traffic")


def load_telemetry(path: str) -> Dict[str, Any]:
    """Parse a telemetry JSONL artifact into its typed parts.

    Returns ``{"meta", "samples", "summary", "spans"}``.  A run's
    artifact is written whole, after the run: summary and spans are
    None only for a file torn or cut by hand, whose complete sample
    lines still read.  A file that is no artifact raises
    :class:`TelemetryArtifactError`.
    """
    meta: Optional[Dict[str, Any]] = None
    samples: List[Dict[str, Any]] = []
    summary: Optional[Dict[str, Any]] = None
    spans: Optional[Dict[str, Any]] = None
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TelemetryArtifactError(
                    f"{path}:{line_no}: not JSON ({error})") from error
            if not isinstance(record, dict):
                raise TelemetryArtifactError(
                    f"{path}:{line_no}: not a JSON object")
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "sample":
                samples.append(record)
            elif kind == "summary":
                summary = record
            elif kind == "spans":
                spans = record
            else:
                raise TelemetryArtifactError(
                    f"{path}:{line_no}: unknown record type {kind!r}")
    if meta is None:
        raise TelemetryArtifactError(
            f"{path}: missing meta record (not a telemetry artifact?)")
    if meta.get("format") != "repro-telemetry":
        raise TelemetryArtifactError(
            f"{path}: format {meta.get('format')!r} is not "
            f"'repro-telemetry'")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise TelemetryArtifactError(
            f"{path}: meta record lacks {', '.join(missing)}")
    return {"meta": meta, "samples": samples, "summary": summary,
            "spans": spans}


def _gauge_highlights(summary: Dict[str, Any],
                      suffix: str) -> List[tuple]:
    """(name, gauge) pairs for one metric family, max-first."""
    gauges = summary.get("metrics", {}).get("gauges", {})
    rows = [(name, value) for name, value in gauges.items()
            if name.endswith(suffix)]
    rows.sort(key=lambda pair: (-(pair[1]["max"] or 0), pair[0]))
    return rows


def format_report(artifact: Dict[str, Any], top: int = 10) -> str:
    """Human-readable report for one parsed artifact."""
    meta = artifact["meta"]
    summary = artifact["summary"]
    spans = artifact["spans"]
    lines: List[str] = []
    duration_ms = meta["duration_ns"] / 1e6
    lines.append(
        f"telemetry report: {len(meta['cells'])} cell(s) on "
        f"{len(meta['channels'])} channel(s), seed {meta['seed']}, "
        f"{duration_ms:.0f} ms simulated, sample interval "
        f"{meta['sample_interval_ns'] / 1e6:.1f} ms")
    lines.append(f"  traffic {meta['traffic']}, "
                 f"policy {meta['policy']}, "
                 f"{len(artifact['samples'])} sample records")
    adversary = meta.get("adversary")
    if adversary is not None:
        lines.append(
            f"  adversary {adversary['kind']} "
            f"@ intensity {adversary['intensity']:g} "
            f"(jam {adversary['jam_mode']}, "
            f"mutate {adversary['mutate_mode']})")

    if spans and spans.get("owners"):
        total = spans["total_wall_ns"] or 1
        lines.append("")
        lines.append(f"top kernel time consumers "
                     f"({spans['events']} events, "
                     f"{total / 1e6:.1f} ms host wall):")
        for row in spans["owners"][:top]:
            share = row["wall_ns"] / total
            mean_us = row["wall_ns"] / row["count"] / 1e3
            lines.append(
                f"  {row['owner']:<40} {share:>6.1%}  "
                f"{row['count']:>9} events  "
                f"{mean_us:>7.2f} us/event")

    if summary is not None:
        util = _gauge_highlights(summary, ".utilisation")
        if util:
            lines.append("")
            lines.append("airtime (medium utilisation at sample "
                         "instants):")
            for name, gauge in util:
                channel = name.split(".")[0]
                lines.append(
                    f"  {channel:<10} mean {gauge['mean']:>7.2%}  "
                    f"max {gauge['max']:>7.2%}")
        queues = _gauge_highlights(summary, ".ap_queue")
        if queues:
            lines.append("")
            lines.append(f"queue highlights (AP MAC backlog, "
                         f"top {top}):")
            for name, gauge in queues[:top]:
                cell = name.split(".")[0]
                lines.append(
                    f"  {cell:<10} mean {gauge['mean']:>7.1f}  "
                    f"max {gauge['max']:>5.0f} packets")
        busiest: List[tuple] = []
        for suffix, label in ((".live_flows", "live flows"),
                              (".hack_buffer", "HACK buffer"),
                              (".rohc_cids", "ROHC CIDs")):
            rows = _gauge_highlights(summary, suffix)
            if rows:
                name, gauge = rows[0]
                busiest.append((label, name.split(".")[0], gauge))
        if busiest:
            lines.append("")
            lines.append("peaks:")
            for label, cell, gauge in busiest:
                lines.append(f"  {label:<12} peak {gauge['max']:>5.0f} "
                             f"({cell}, mean {gauge['mean']:.1f})")
        corrupt = [(name, gauge) for name, gauge
                   in _gauge_highlights(summary, ".rohc_failures")
                   if (gauge["max"] or 0) > 0]
        if corrupt:
            lines.append("")
            lines.append("ROHC corruption (cumulative failure counter "
                         "at sample instants):")
            for name, gauge in corrupt[:top]:
                cell = name.split(".")[0]
                lines.append(
                    f"  {cell:<10} final {gauge['last']:>6.0f}  "
                    f"peak {gauge['max']:>6.0f}")
    else:
        lines.append("")
        lines.append("(no summary record: the file is truncated — torn "
                     "or cut by hand; its complete sample lines are "
                     "counted above)")
    return "\n".join(lines)


def print_report(path: str, top: int = 10) -> int:
    """CLI entry: load, format, print.  Returns an exit code."""
    artifact = load_telemetry(path)
    print(format_report(artifact, top=top))
    return 0
