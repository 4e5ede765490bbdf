"""Discrete-event simulation engine.

A minimal but complete event scheduler: the heap holds plain
``(time, priority, sequence, item)`` tuples, so every sift comparison
is a C tuple comparison that never reaches ``item`` (sequence numbers
are unique).  Ties on time are broken first by an explicit priority
(lower runs first) and then by insertion order, which makes runs fully
deterministic.

Three kinds of item sit in the heap:

* an :class:`Event` — one callback at one fixed time.  Cancelling it is
  O(1): the entry is marked dead and skipped when popped.  The MAC's
  backoff and response timers and the medium's IFS wake are plain
  events: their deadlines are tens of microseconds away, so a cancelled
  one pops before the next is armed and there is nothing for laziness
  to absorb.  What pays there is pushing fewer of them — the medium
  queues one wake per idle period and deadline, not one defer per
  station (on the ``churn_city_20cell`` benchmark cell, 40 011 wakes
  where there were 120 674 ``_defer_done`` events, 72 084 of them
  cancelled).
* a :class:`Timer` — a logical timer that is re-armed far more often
  than it fires (TCP's RTO is pushed back by every ACK, the delayed-ACK
  timer is disarmed by every second segment).  It keeps at most one
  useful heap entry: :meth:`Timer.arm` takes a sequence number exactly
  where ``schedule()`` would have and writes ``(deadline, seq)`` into
  the timer; as long as the queued entry is not later than the new
  deadline nothing is pushed.  When that entry pops, the run loop
  re-queues it under the reserved ``(deadline, 0, seq)`` key if the
  timer is still armed, or drops it.  The timer therefore fires under
  the very key an eager cancel-and-``schedule`` would have used, and
  execution order is identical by construction.  On the ten-client
  bulk cell this removes 94 014 of 449 974 heap pushes and all 2 125
  heap compactions.
* a :class:`Train` — a FIFO of timed deliveries to one callback (the
  packets in flight on a wired pipe, the MPDUs of a burst on their way
  up a client's stack).  :meth:`Train.push` takes a sequence number
  exactly where ``schedule()`` would have and appends the very
  ``(time, 0, seq, arg)`` tuple it would have pushed, but only the
  train's head is in the heap.  When the run loop dispatches it the
  train keeps delivering inline while its next item compares below
  ``heap[0]`` — and since every other train's items sort at or after
  that train's own heap entry, "below ``heap[0]``" means "the smallest
  key anywhere".  Each item therefore runs under the very key a heap
  event would have given it, and execution order is identical by
  construction.  On the ten-client HACK cell 271 698 of 316 145
  callbacks are delivered this way and heap pushes fall from 325 589
  to 53 850.

The heap is kept hygienic under heavy cancellation: a live counter
keeps the count of pending entries O(1), and the heap is compacted
in place whenever dead entries (cancelled events, stale timer entries)
outnumber live ones, so a long run that schedules and cancels millions
of timers keeps a bounded heap instead of accreting garbage until the
run ends.

:attr:`Simulator.stats` counts heap pushes (``scheduled``), callbacks
dispatched from the heap (``executed``), entries that will never
dispatch (``cancelled``: an event when it is cancelled; a timer's entry
when an earlier one supersedes it, when the timer is closed, or when it
pops as a mere stand-in), compactions and the timer arms that needed no
push (``timer_rearms``), so ``scheduled`` always equals ``executed`` +
``cancelled`` + the entries still of use.  The deliveries a train made
without a dispatch are ``inlined``: ``executed + inlined`` is the
number of callbacks run, whatever share of them went through the heap.
Scenario results surface the counters so benchmarks can report kernel
overhead alongside goodput.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from time import perf_counter_ns
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, \
    Tuple

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
                 "cancelled", "sim")

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

    def cancel(self) -> None:
        """Mark this event dead; it will be skipped by the main loop."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            self.sim = None
            sim._event_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} {state}>"


class Timer:
    """A re-armable timer with at most one useful heap entry.

    ``arm(delay)`` behaves exactly like cancelling the previous
    deadline and calling ``sim.schedule(delay, callback)`` — the same
    sequence number is consumed, so the callback runs in the same
    position — but while the entry already queued is not later than
    the new deadline it is a field write, not a heap push.  The timer
    disarms itself just before its callback runs, so the callback may
    re-arm it.

    A cancelled timer's entry stays queued until its old time (or the
    next compaction); :meth:`close` additionally drops the callback so
    that entry no longer keeps the timer's owner alive.
    """

    __slots__ = ("sim", "callback", "deadline", "_seq",
                 "_queued_time", "_queued_seq")

    #: What tells the run loop and compaction that a heap item is a
    #: timer: an :class:`Event`'s ``args`` is always a tuple, and its
    #: ``cancelled`` flag is what they test first.
    args = None
    cancelled = False

    def __init__(self, sim: "Simulator", callback: Callable[[], Any]):
        self.sim = sim
        self.callback: Optional[Callable[[], Any]] = callback
        #: Absolute time the timer fires at; None while disarmed.
        self.deadline: Optional[int] = None
        #: Sequence number reserved by the current arm (0: disarmed).
        self._seq = 0
        #: Key of the heap entry standing in for this timer (seq 0:
        #: none).  Older entries it superseded are dropped when popped.
        self._queued_time = 0
        self._queued_seq = 0

    @property
    def armed(self) -> bool:
        return self._seq != 0

    def arm(self, delay: int) -> None:
        """(Re)start the timer to fire ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if self.callback is None:
            raise RuntimeError("cannot arm a closed timer")
        sim = self.sim
        sim._seq += 1
        if not self._seq:
            sim._live += 1
            if self._queued_seq:
                sim._parked -= 1
        self._seq = sim._seq
        self.deadline = deadline = sim.now + delay
        if self._queued_seq and self._queued_time <= deadline:
            sim.stats.timer_rearms += 1
        else:
            self._push()

    def cancel(self) -> None:
        """Disarm; harmless when not armed (e.g. after firing).  The
        queued entry stays parked, ready to absorb the next arm."""
        if self._seq:
            self._seq = 0
            self.deadline = None
            sim = self.sim
            sim._live -= 1
            sim._parked += 1

    def close(self) -> None:
        """Cancel for good and let go of the callback's owner; a
        parked entry becomes dead weight compaction may reclaim."""
        self.cancel()
        if self._queued_seq:
            self._queued_seq = 0
            self.sim._parked -= 1
            self.sim.stats.cancelled += 1
        self.callback = None

    def _push(self) -> None:
        """Queue an entry under the current arm's reserved key; an
        entry it supersedes (it is later) is dead from here on."""
        sim = self.sim
        if self._queued_seq:
            sim.stats.cancelled += 1
        self._queued_time = self.deadline
        self._queued_seq = self._seq
        heappush(sim._heap, (self.deadline, 0, self._seq, self))
        sim.stats.scheduled += 1

    def _popped(self, seq: int) -> bool:
        """The run loop popped this timer's entry ``seq``.  True if it
        is the armed deadline (the timer is then disarmed, ready to
        fire); otherwise a stand-in, re-queued under the current arm's
        key if there is one, or an already dead entry."""
        if seq == self._seq:
            self._seq = self._queued_seq = 0
            self.deadline = None
            return True
        if seq == self._queued_seq:
            self._queued_seq = 0
            if self._seq:
                self._push()
            else:
                self.sim._parked -= 1
            self.sim.stats.cancelled += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"armed t={self.deadline}" if self._seq else "disarmed"
        return f"<Timer {state}>"


class Train:
    """A FIFO of timed deliveries with at most one heap entry.

    ``push(time, arg)`` behaves exactly like ``sim.schedule(time -
    sim.now, deliver, arg)`` — the same sequence number is consumed, so
    ``deliver(arg)`` runs in the same position — but
    only the head of the queue sits in the heap.  When the run loop
    dispatches that entry the train delivers the head and then keeps
    delivering, advancing the clock itself, for as long as its next
    item sorts before everything in the heap (re-read after every
    delivery: a delivery may schedule something earlier, at a negative
    priority included) and lies before the run's horizon; otherwise it
    queues one entry for its new head.

    Why the order is exact: an item is the very tuple
    ``(time, 0, seq, ...)`` ``schedule`` would have pushed, and the
    queue is sorted by it (times are FIFO, sequence numbers grow).  An
    item is delivered either from the heap under that key, or inline
    at a moment when it compares below ``heap[0]`` — and every item of
    every *other* train sorts at or after that train's own head, which
    is in the heap.  So whatever runs next is always the globally
    smallest key, which is all a heap of one entry per item would have
    guaranteed.  A push that is not FIFO (earlier than the tail)
    cannot join the queue and becomes a plain :class:`Event` under the
    sequence number it reserved.
    """

    __slots__ = ("sim", "callback", "_items", "_queued_seq")

    #: Like a :class:`Timer`, told from an :class:`Event` by ``args``.
    args = None
    cancelled = False

    def __init__(self, sim: "Simulator", deliver: Callable[[Any], Any]):
        self.sim = sim
        self.callback = deliver
        #: Undelivered ``(time, 0, seq, arg)`` items, oldest first.
        self._items: Deque[Tuple[int, int, int, Any]] = deque()
        #: Sequence number of the head's heap entry; -1 while the run
        #: loop is delivering from this train; 0 when it is empty.
        self._queued_seq = 0

    def push(self, time: int, arg: Any) -> None:
        """Queue ``deliver(arg)`` at the absolute timestamp ``time``."""
        sim = self.sim
        if time < sim.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {sim.now}")
        sim._seq = seq = sim._seq + 1
        items = self._items
        if not self._queued_seq:
            items.append((time, 0, seq, arg))
            self._queued_seq = seq
            heappush(sim._heap, (time, 0, seq, self))
        elif items and time < items[-1][0]:
            heappush(sim._heap, (time, 0, seq, Event(
                time, 0, seq, self.callback, (arg,), sim)))
        else:
            items.append((time, 0, seq, arg))
            sim._queued += 1
            return
        sim._live += 1
        sim.stats.scheduled += 1

    def newest_first(self) -> Iterator[Tuple[int, Any]]:
        """``(time, arg)`` of every queued item, latest push first
        (non-FIFO pushes, which became events, excluded)."""
        return ((item[0], item[3]) for item in reversed(self._items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Train queued={len(self._items)}>"


class SimStats:
    """Kernel counters, cheap enough to keep always-on."""

    __slots__ = ("scheduled", "executed", "inlined", "cancelled",
                 "compactions", "timer_rearms")

    def __init__(self) -> None:
        self.scheduled = 0
        self.executed = 0
        self.inlined = 0
        self.cancelled = 0
        self.compactions = 0
        self.timer_rearms = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "events_scheduled": self.scheduled,
            "events_executed": self.executed,
            "events_inlined": self.inlined,
            "events_cancelled": self.cancelled,
            "heap_compactions": self.compactions,
            "timer_rearms": self.timer_rearms,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimStats scheduled={self.scheduled} "
                f"executed={self.executed} inlined={self.inlined} "
                f"cancelled={self.cancelled} "
                f"compactions={self.compactions} "
                f"timer_rearms={self.timer_rearms}>")


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(usec(10), lambda: print("hello"))
        sim.run(until=SEC)
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.stats = SimStats()
        self._heap: List[Tuple[int, int, int, Any]] = []
        self._seq: int = 0
        #: Pending events, armed timers and train heads, and the
        #: disarmed timers whose entry is parked: what compaction must
        #: keep.  Train items behind their head are pending but not in
        #: the heap.
        self._live: int = 0
        self._parked: int = 0
        self._queued: int = 0
        self._running = False
        self._frame_ids: int = 0
        #: Optional observability hook (see :mod:`repro.obs.spans`).
        self._instrument = None

    def set_instrument(self, instrument) -> None:
        """Install (or clear, with ``None``) a span instrument.

        The instrument's ``record(callback, sim_ns, wall_ns)`` is
        invoked after every executed event and every delivery a
        :class:`Train` makes inline.  It observes the timeline;
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

    def new_frame_ids(self, count: int) -> range:
        """The ids ``count`` successive :meth:`new_frame_id` calls
        would return, allocated at once."""
        first = self._frame_ids + 1
        self._frame_ids += count
        return range(first, first + count)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        event = Event(time, priority, seq, callback, args, self)
        heappush(self._heap, (time, priority, seq, event))
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
        size = len(self._heap)
        if (size > _COMPACT_MIN_SIZE
                and (size - self._live - self._parked) * 2 > size):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify, in place.

        In place matters: :meth:`run` holds a reference to the heap
        list, so compaction mutates rather than rebinding it.  Event
        ordering is a strict total order (seq breaks all ties), so
        rebuilding the heap cannot reorder execution.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if not entry[3].cancelled
                   and (entry[3].args is not None
                        or entry[2] == entry[3]._queued_seq)]
        heapify(heap)
        self.stats.compactions += 1

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of callbacks
        run (a :class:`Train`'s inline deliveries included; there are
        none under ``max_events``, which counts heap dispatches).

        ``until`` is exclusive: an event at exactly ``until`` does not run,
        and ``now`` is advanced to ``until`` when the horizon is hit (the
        clock never moves backwards: a horizon already passed leaves it
        alone).
        """
        if until is None:
            until = _FOREVER
        # A train delivers inline only up to the horizon, and not at
        # all while a budget is set: every delivery is then a dispatch.
        inline_until = until if max_events is None else -1
        if max_events is None:
            max_events = float("inf")
        executed = inlined = 0
        self._running = True
        heap = self._heap
        # Bound once: the per-event cost of the disabled mode is one
        # local ``is None`` test (measured on bench/ledger.json's
        # ``sim.engine.noop_ns_per_event``).
        instrument = self._instrument
        record = instrument.record if instrument is not None else None
        try:
            while heap:
                if executed >= max_events:
                    break
                time, _, seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time >= until:
                    self.now = max(self.now, until)
                    break
                heappop(heap)
                args = event.args
                if args is None:
                    if event.__class__ is Train:
                        self._live -= 1
                        inlined += self._run_train(event, inline_until,
                                                   record)
                        executed += 1
                        continue
                    # A Timer's entry: fires only if it is the armed
                    # deadline, else it was re-queued or dropped —
                    # without touching the clock or the event count.
                    if not event._popped(seq):
                        continue
                    args = ()
                else:
                    event.sim = None
                self._live -= 1
                self.now = time
                callback = event.callback
                if record is None:
                    callback(*args)
                else:
                    started = perf_counter_ns()
                    callback(*args)
                    record(callback, time, perf_counter_ns() - started)
                executed += 1
            else:
                # Heap drained; advance the clock to the horizon if finite.
                if until < _FOREVER:
                    self.now = max(self.now, until)
        finally:
            self._running = False
            self.stats.executed += executed
            self.stats.inlined += inlined
        return executed + inlined

    def _run_train(self, train: Train, until: int, record) -> int:
        """Deliver the head of ``train`` (its heap entry was just
        popped), then every following item that still sorts before the
        whole heap and lies before ``until``; queue one entry for what
        is left.  Returns the number delivered inline."""
        heap = self._heap
        items = train._items
        deliver = train.callback
        train._queued_seq = -1
        item = items.popleft()
        inlined = 0
        try:
            while True:
                self.now = time = item[0]
                if record is None:
                    deliver(item[3])
                else:
                    started = perf_counter_ns()
                    deliver(item[3])
                    record(deliver, time, perf_counter_ns() - started)
                if not items:
                    break
                item = items[0]
                # ``heap[0] < item`` is one C tuple comparison that
                # stops at the (unique) sequence numbers.
                if item[0] >= until or (heap and heap[0] < item):
                    break
                items.popleft()
                self._queued -= 1
                inlined += 1
        finally:
            # Also on an exception: the rest of the train stays due.
            if items:
                time, _, seq, _ = items[0]
                train._queued_seq = seq
                heappush(heap, (time, 0, seq, train))
                self._queued -= 1
                self._live += 1
                self.stats.scheduled += 1
            else:
                train._queued_seq = 0
        return inlined

    @property
    def sequence(self) -> int:
        """Sequence number of the latest ``schedule`` / ``Timer.arm``.
        Unchanged between two instants means nothing can sort between
        an entry pushed at the first and one pushed at the second."""
        return self._seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator now={self.now} pending="
                f"{self._live + self._queued} "
                f"heap={len(self._heap)}>")
