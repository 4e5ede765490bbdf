"""Discrete-event simulation engine.

A minimal but complete event scheduler: events are ``(time, priority,
sequence, callback)`` tuples kept in a binary heap.  Ties on time are
broken first by an explicit priority (lower runs first) and then by
insertion order, which makes runs fully deterministic.

Events can be cancelled; cancellation is O(1) (the heap entry is marked
dead and skipped when popped), which matters because the MAC layer
cancels timers constantly (ACK timeouts, backoff expiries).  The heap
is kept hygienic under heavy cancellation: a live-event counter makes
:attr:`Simulator.pending_events` O(1), and the heap is compacted in
place whenever dead entries outnumber live ones, so a long run that
schedules and cancels millions of timers keeps a bounded heap instead
of accreting garbage until the run ends.

:attr:`Simulator.stats` counts scheduled/executed/cancelled events and
compactions; scenario results surface it so benchmarks can report
kernel overhead (events per simulated exchange) alongside goodput.
"""

from __future__ import annotations

import heapq
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

from .units import SEC

#: Sentinel horizon for ``run(until=None)``: effectively forever.
_FOREVER = 365 * 24 * 3600 * SEC

#: Compaction policy: never compact tiny heaps (the rebuild would cost
#: more than it frees), and only when dead entries are the majority.
_COMPACT_MIN_SIZE = 64


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Use :meth:`cancel` to prevent a pending event from firing.  Attributes
    are read-only from the caller's perspective.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args",
                 "cancelled", "sim", "sort_key")

    def __init__(self, time: int, priority: int, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulator while the event sits in the heap (cleared
        #: when popped, so late cancels cannot corrupt live counts).
        self.sim = sim
        #: Precomputed ordering key: heap sift comparisons dominate
        #: scheduling cost, and building two tuples per ``__lt__`` was
        #: measurable at hundreds of thousands of comparisons per run.
        self.sort_key = (time, priority, seq)

    def cancel(self) -> None:
        """Mark this event dead; it will be skipped by the main loop."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            self.sim = None
            sim._event_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} {state}>"


class SimStats:
    """Kernel counters, cheap enough to keep always-on."""

    __slots__ = ("scheduled", "executed", "cancelled", "compactions")

    def __init__(self) -> None:
        self.scheduled = 0
        self.executed = 0
        self.cancelled = 0
        self.compactions = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "events_scheduled": self.scheduled,
            "events_executed": self.executed,
            "events_cancelled": self.cancelled,
            "heap_compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimStats scheduled={self.scheduled} "
                f"executed={self.executed} cancelled={self.cancelled} "
                f"compactions={self.compactions}>")


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(usec(10), lambda: print("hello"))
        sim.run(until=sec(1))
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.stats = SimStats()
        self._heap: List[Event] = []
        self._seq: int = 0
        self._live: int = 0
        self._running = False
        self._stopped = False
        self._frame_ids: int = 0
        #: Optional observability hook (see :mod:`repro.obs.spans`).
        self._instrument = None

    def set_instrument(self, instrument) -> None:
        """Install (or clear, with ``None``) a span instrument.

        The instrument's ``record(callback, sim_ns, wall_ns)`` is
        invoked after every executed event.  It observes the timeline;
        it must never mutate it — event order, timestamps and
        scheduling behaviour are identical with and without it.
        """
        self._instrument = instrument

    def new_frame_id(self) -> int:
        """Allocate a MAC frame id scoped to this simulation.

        Ids used to come from a process-global counter, so the ids a
        run observed depended on whatever other simulations the
        process had executed before it; a per-Simulator counter makes
        back-to-back identical runs produce identical ids.
        """
        self._frame_ids += 1
        return self._frame_ids

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, *args,
                                priority=priority)

    def schedule_at(self, time: int, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` at an absolute timestamp."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}")
        self._seq += 1
        event = Event(time, priority, self._seq, callback, args, self)
        heapq.heappush(self._heap, event)
        self._live += 1
        self.stats.scheduled += 1
        return event

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------
    def _event_cancelled(self) -> None:
        """Bookkeeping callback from :meth:`Event.cancel`."""
        self._live -= 1
        self.stats.cancelled += 1
        heap = self._heap
        if (len(heap) > _COMPACT_MIN_SIZE
                and (len(heap) - self._live) * 2 > len(heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify, in place.

        In place matters: :meth:`run` holds a reference to the heap
        list, so compaction mutates rather than rebinding it.  Event
        ordering is a strict total order (seq breaks all ties), so
        rebuilding the heap cannot reorder execution.
        """
        heap = self._heap
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)
        self.stats.compactions += 1

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of events run.

        ``until`` is exclusive: an event at exactly ``until`` does not run,
        and ``now`` is advanced to ``until`` when the horizon is hit.
        """
        if until is None:
            until = _FOREVER
        if max_events is None:
            max_events = float("inf")
        executed = 0
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        # Bound once: the per-event cost of the disabled mode is one
        # local ``is None`` test (measured on bench/ledger.json's
        # ``sim.engine.noop_ns_per_event``).
        instrument = self._instrument
        record = instrument.record if instrument is not None else None
        try:
            while heap:
                if self._stopped:
                    break
                if executed >= max_events:
                    break
                event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if event.time >= until:
                    self.now = until
                    break
                pop(heap)
                event.sim = None
                self._live -= 1
                self.now = event.time
                if record is None:
                    event.callback(*event.args)
                else:
                    started = perf_counter_ns()
                    event.callback(*event.args)
                    record(event.callback, event.time,
                           perf_counter_ns() - started)
                executed += 1
            else:
                # Heap drained; advance the clock to the horizon if finite.
                if until < _FOREVER:
                    self.now = max(self.now, until)
        finally:
            self._running = False
            self.stats.executed += executed
        return executed

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator now={self.now} pending={self._live} "
                f"heap={len(self._heap)}>")
