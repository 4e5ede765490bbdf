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

The instrument rides the ``ScenarioResult`` as plain data and is an
accumulator under the one merge rule of :mod:`repro.obs.metrics`: the
span table is rendered once, from the shards' merged instrument.
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

    __slots__ = ("owners", "spans", "max_spans", "dropped_spans")

    def __init__(self, max_spans: int = 0):
        #: owner -> [count, total wall ns, max wall ns]
        self.owners: Dict[str, List[int]] = {}
        #: (sim time ns, wall ns, owner) for the first ``max_spans``
        #: executed events (trace export; 0 = aggregates only).
        self.spans: List[Tuple[int, int, str]] = []
        self.max_spans = max_spans
        self.dropped_spans = 0

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
        determinism oracles can pop it).  ``events`` and
        ``total_wall_ns`` are the owner table's sums."""
        owners = self.owners.values()
        return {
            "events": sum(count for count, _, _ in owners),
            "total_wall_ns": sum(wall_ns for _, wall_ns, _ in owners),
            "recorded_spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "owners": self.owner_table(),
        }

    def merge(self, other: "KernelInstrument") -> None:
        """Fold another simulator's timings in: counts and wall times
        sum by owner, retained spans pool."""
        for key, (count, wall_ns, max_ns) in other.owners.items():
            entry = self.owners.setdefault(key, [0, 0, 0])
            entry[0] += count
            entry[1] += wall_ns
            entry[2] = max(entry[2], max_ns)
        self.spans.extend(other.spans)
        self.dropped_spans += other.dropped_spans
