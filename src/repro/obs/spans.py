"""Kernel span instrumentation: where wall-clock goes inside a run.

A :class:`KernelInstrument` installed on a
:class:`~repro.sim.engine.Simulator` (``sim.set_instrument``) times
every event callback with ``perf_counter_ns`` and aggregates by
*callback owner* — ``DcfMac._backoff_expired``, ``Medium._ifs_wake``
(the IFS wait the medium runs for its contenders: the stations'
``_defer_done`` and whatever they go on to transmit are accounted
there), ``ApNode.receive_wired`` / ``ClientNode._stack_process`` (a
:class:`~repro.sim.engine.Train`'s deliveries are recorded one by one
under its deliver callback, dispatched from the heap or not) — giving
a per-subsystem event-type histogram and wall-time table without
touching event semantics (the simulated timeline is read-only to the
instrument, so golden rows stay bit-identical).

The kernel has one run loop.  With no instrument installed it tests a
local per event and never reads the clock; that loop's cost is the
``sim.engine.noop_ns_per_event`` row of ``bench/ledger.json``.

Besides the always-on aggregates, the instrument can retain up to
``max_spans`` individual spans (simulated timestamp, owner, wall ns)
for Chrome-trace export: each becomes a duration event placed at its
simulated instant whose length is the host wall time of the handler —
a timeline of *where the host worked* across *simulated* time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple


def owner_key(callback: Callable[..., Any]) -> str:
    """Stable aggregation key for a callback: ``Class.method`` for
    bound methods, ``__qualname__`` otherwise (plain functions,
    closures like the scenario builder's ``_start``)."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{callback.__name__}"
    return getattr(callback, "__qualname__",
                   getattr(callback, "__name__", repr(callback)))


class KernelInstrument:
    """Per-owner span timing + event-type histogram for one simulator."""

    __slots__ = ("owners", "spans", "max_spans", "dropped_spans",
                 "total_wall_ns", "events")

    def __init__(self, max_spans: int = 0):
        #: owner -> [count, total wall ns, max wall ns]
        self.owners: Dict[str, List[int]] = {}
        #: (sim time ns, wall ns, owner) for the first ``max_spans``
        #: executed events (trace export; 0 = aggregates only).
        self.spans: List[Tuple[int, int, str]] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.total_wall_ns = 0
        self.events = 0

    def record(self, callback: Callable[..., Any], sim_ns: int,
               wall_ns: int) -> None:
        """Called by the instrumented run loop after each event."""
        key = owner_key(callback)
        entry = self.owners.get(key)
        if entry is None:
            self.owners[key] = [1, wall_ns, wall_ns]
        else:
            entry[0] += 1
            entry[1] += wall_ns
            if wall_ns > entry[2]:
                entry[2] = wall_ns
        self.total_wall_ns += wall_ns
        self.events += 1
        if len(self.spans) < self.max_spans:
            self.spans.append((sim_ns, wall_ns, key))
        elif self.max_spans:
            self.dropped_spans += 1

    def owner_table(self) -> List[Dict[str, Any]]:
        """Owners sorted by total wall time, descending."""
        rows = []
        for key, (count, wall_ns, max_ns) in self.owners.items():
            rows.append({
                "owner": key,
                "count": count,
                "wall_ns": wall_ns,
                "max_ns": max_ns,
            })
        rows.sort(key=lambda row: (-row["wall_ns"], row["owner"]))
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able spans block (the nondeterministic — wall-time —
        part of the telemetry block; kept under its own key so
        determinism oracles can pop it)."""
        return {
            "events": self.events,
            "total_wall_ns": self.total_wall_ns,
            "recorded_spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "owners": self.owner_table(),
        }


def merge_span_blocks(blocks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard ``KernelInstrument.as_dict()`` blocks: counts
    and wall times sum by owner (each shard timed its own kernel)."""
    owners: Dict[str, List[int]] = {}
    merged: Dict[str, Any] = {"events": 0, "total_wall_ns": 0,
                              "recorded_spans": 0, "dropped_spans": 0}
    for block in blocks:
        if not block:
            continue
        for field in ("events", "total_wall_ns", "recorded_spans",
                      "dropped_spans"):
            merged[field] += block.get(field, 0)
        for row in block.get("owners", ()):
            entry = owners.setdefault(row["owner"], [0, 0, 0])
            entry[0] += row["count"]
            entry[1] += row["wall_ns"]
            entry[2] = max(entry[2], row["max_ns"])
    rows = [{"owner": key, "count": count, "wall_ns": wall_ns,
             "max_ns": max_ns}
            for key, (count, wall_ns, max_ns) in owners.items()]
    rows.sort(key=lambda row: (-row["wall_ns"], row["owner"]))
    merged["owners"] = rows
    return merged
