"""Queue disciplines for the per-destination MAC transmit queues.

Three disciplines share one deque-shaped contract (``append``,
``popleft``, ``[0]`` peek, ``len``, truthiness, ``filter_out``), so
``DcfMac`` and the A-MPDU batcher stay agnostic:

* ``DropTailQueue`` — FIFO, byte-for-byte the behaviour of the plain
  ``deque`` it replaces (the tail-drop test stays in
  ``DcfMac.enqueue``), but it timestamps arrivals so sojourn
  percentiles exist for every discipline.
* ``CoDelQueue`` — CoDel (RFC 8289): head drops at dequeue when the
  head packet's sojourn time has exceeded ``target`` for at least one
  ``interval``, with the ``interval/sqrt(count)`` control law and
  count decay on re-entry.  Driven entirely by simulated time.
* ``FqCodelQueue`` — FQ-CoDel (RFC 8290): flows hashed by the
  payload's ``flow_id`` into per-flow CoDel sub-queues served by
  deficit round-robin with new-flow priority.

Peek-then-pop coherence: the A-MPDU batcher peeks ``queue[0]`` and
then pops at the same simulated timestamp, so AQM head-dropping is
performed by an idempotent ``_advance(now)`` pass that CoDel runs
before both — the packet returned by a peek is the packet a same-time
pop yields.  Drop-tail (the default on every historical scenario) has
no AQM pass at all: its pop/peek path is kept to the minimum over the
plain ``deque`` it replaced, because these run once per MPDU on the
MAC hot path (the kernel benchmark gate is the regression net).

CoDel never drops the last remaining packet (RFC 8289 §4.1), which
also keeps queue truthiness coherent for the MAC's has-work checks.

Sojourn times (milliseconds) are recorded on *successful dequeue*
(delivered to the MAC) into a :class:`repro.obs.metrics.Histogram`;
:class:`QdiscStats` objects merge exactly across MACs and channel
shards and render the ``"aqm"`` block once, after the merge.
"""

from __future__ import annotations

import math
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

from ..obs.metrics import Histogram
from ..sim.units import MS

#: CoDel defaults (RFC 8289 §4.2-4.3).
CODEL_TARGET_NS = 5 * MS
CODEL_INTERVAL_NS = 100 * MS
#: FQ-CoDel DRR quantum: one full-size Ethernet frame (RFC 8290 §5.2).
FQ_QUANTUM_BYTES = 1514

DISCIPLINES = ("droptail", "codel", "fq_codel")


class QdiscStats:
    """The queue book of one MAC, shared by its per-destination queues:
    ``enqueued == dequeued + drops + withdrawn + queued`` at any
    instant (``drops`` are the AQM's; a ``tail_drops`` packet never
    entered).  ``DcfMac`` counts what it decides, the queues what they
    do.

    Sojourns are kept as they come, in nanoseconds, and folded into
    the histogram ``FOLD_EVERY`` at a time and whenever it is read
    — the same ``observe`` calls in the same order, for one list append
    per packet on the dequeue path."""

    __slots__ = ("enqueued", "tail_drops", "drops", "withdrawn",
                 "_sojourn", "_unfolded")

    FOLD_EVERY = 256
    #: The counters :meth:`merge` sums (``dequeued`` is the histogram's).
    COUNTERS = ("enqueued", "tail_drops", "drops", "withdrawn")

    def __init__(self) -> None:
        self.enqueued = 0
        self.tail_drops = 0
        self.drops = 0          # AQM (head) drops
        self.withdrawn = 0
        self._sojourn = Histogram()
        #: Sojourns (ns) dequeued since the last fold, oldest first.
        self._unfolded: List[int] = []

    @property
    def sojourn(self) -> Histogram:
        """Sojourn (ms) of every packet delivered to the MAC."""
        if self._unfolded:
            self._fold()
        return self._sojourn

    def _fold(self) -> None:
        self._sojourn.observe_many([ns / MS for ns in self._unfolded])
        self._unfolded = []

    @property
    def dequeued(self) -> int:
        return self.sojourn.count

    def on_dequeue(self, sojourn_ns: int) -> None:
        unfolded = self._unfolded
        unfolded.append(sojourn_ns)
        if len(unfolded) >= self.FOLD_EVERY:
            self._fold()

    def merge(self, other: "QdiscStats") -> None:
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.sojourn.merge(other.sojourn)

    def block(self, discipline: str) -> Dict[str, Any]:
        """The ``metrics_dict()["aqm"]`` payload."""
        return {
            "discipline": discipline,
            "drops": self.drops,
            "dequeued": self.dequeued,
            "sojourn_bins": self.sojourn.bins_dict(),
            "sojourn_p50_ms": self.sojourn.percentile(0.50),
            "sojourn_p99_ms": self.sojourn.percentile(0.99),
        }


class DropTailQueue:
    """FIFO with arrival timestamps; drop policy stays at the tail
    (enforced by ``DcfMac.enqueue`` via ``queue_limit``)."""

    __slots__ = ("sim", "stats", "_items")

    def __init__(self, sim, stats: QdiscStats) -> None:
        self.sim = sim
        self.stats = stats
        self._items: deque = deque()   # (payload, enqueued_ns)

    # -- deque contract -------------------------------------------------
    def append(self, payload: Any) -> None:
        self._items.append((payload, self.sim.now))

    def popleft(self) -> Any:
        payload, enqueued_ns = self._items.popleft()
        self.stats.on_dequeue(self.sim.now - enqueued_ns)
        return payload

    def __getitem__(self, index: int) -> Any:
        if index != 0:
            raise IndexError("qdisc queues only expose the head")
        return self._items[0][0]

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self):
        return map(itemgetter(0), self._items)

    def take(self, count: int) -> List[Any]:
        """``count`` :meth:`popleft` calls at once: the oldest payloads,
        their sojourns folded into the histogram in dequeue order."""
        items, now, stats = self._items, self.sim.now, self.stats
        taken = [items.popleft() for _ in range(count)]
        stats._unfolded += [now - enqueued_ns for _, enqueued_ns in taken]
        if len(stats._unfolded) >= stats.FOLD_EVERY:
            stats._fold()
        return [payload for payload, _ in taken]

    def filter_out(self, predicate: Callable[[Any], bool]) -> List[Any]:
        """Withdraw payloads matching ``predicate`` (order preserved)."""
        kept, removed = deque(), []
        for payload, enqueued_ns in self._items:
            if predicate(payload):
                removed.append(payload)
            else:
                kept.append((payload, enqueued_ns))
        self._items = kept
        return removed


class CoDelQueue(DropTailQueue):
    """CoDel head-drop AQM over the timestamped FIFO."""

    __slots__ = ("target_ns", "interval_ns", "_first_above", "_dropping",
                 "_count", "_drop_next")

    def __init__(self, sim, stats: QdiscStats,
                 target_ns: int = CODEL_TARGET_NS,
                 interval_ns: int = CODEL_INTERVAL_NS) -> None:
        super().__init__(sim, stats)
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self._first_above = 0     # when sojourn first crossed target
        self._dropping = False
        self._count = 0           # drops in the current dropping state
        self._drop_next = 0       # absolute time of the next drop

    def popleft(self) -> Any:
        self._advance(self.sim.now)
        return super().popleft()

    def __getitem__(self, index: int) -> Any:
        if index != 0:
            raise IndexError("qdisc queues only expose the head")
        self._advance(self.sim.now)
        return self._items[0][0]

    def _control_gap_ns(self) -> int:
        return max(1, int(self.interval_ns / math.sqrt(self._count)))

    def _drop_head(self) -> None:
        self._items.popleft()
        self.stats.drops += 1

    def _advance(self, now: int) -> None:
        while self._items:
            _, enqueued_ns = self._items[0]
            sojourn = now - enqueued_ns
            if sojourn < self.target_ns or len(self._items) <= 1:
                # Below target (or a single packet — never drop the
                # last one): leave the dropping state.
                self._first_above = 0
                self._dropping = False
                return
            if self._first_above == 0:
                self._first_above = now + self.interval_ns
                return
            if now < self._first_above:
                return
            # Sojourn has stayed above target for a full interval.
            if not self._dropping:
                self._dropping = True
                if (now - self._drop_next < self.interval_ns
                        and self._count > 2):
                    # Re-entered soon after leaving: resume the drop
                    # rate rather than restarting from one.
                    self._count -= 2
                else:
                    self._count = 1
                self._drop_head()
                self._drop_next = now + self._control_gap_ns()
            elif now >= self._drop_next:
                self._count += 1
                self._drop_head()
                self._drop_next = self._drop_next + self._control_gap_ns()
            else:
                return


#: Bucket key for payloads without a ``flow_id`` (e.g. UDP background
#: datagrams).  A real sentinel, not ``None`` — ``None`` would collide
#: with the scheduler's "no flow eligible" result.
_NO_FLOW = "__no_flow__"


class _FqFlow:
    __slots__ = ("queue", "deficit")

    def __init__(self, queue: CoDelQueue, deficit: int) -> None:
        self.queue = queue
        self.deficit = deficit


class FqCodelQueue:
    """FQ-CoDel: per-flow CoDel sub-queues under DRR with new-flow
    priority.  Flow key is the payload's ``flow_id`` (payloads without
    one share a single bucket).

    Simplification vs RFC 8290: a flow whose sub-queue empties is
    forgotten immediately (it re-enters as a new flow on its next
    packet) instead of lingering on the old-flow list for one round.

    The head is found once per simulated instant: :meth:`_schedule`
    is idempotent at a fixed time (see there), so the key it returns
    is kept with that time and a peek or pop at the same time reuses
    it; ``append``, ``popleft`` and ``filter_out`` — the only changes
    to the queue between two such calls — drop it.  A pop takes the
    packet straight off the head flow's FIFO: the sub-queue's own
    ``popleft`` would first run ``_advance`` again at the time
    ``_schedule`` just ran it at, which changes nothing.
    """

    __slots__ = ("sim", "stats", "target_ns", "interval_ns",
                 "quantum_bytes", "_flows", "_new", "_old", "_len",
                 "_head", "_head_at")

    def __init__(self, sim, stats: QdiscStats,
                 target_ns: int = CODEL_TARGET_NS,
                 interval_ns: int = CODEL_INTERVAL_NS,
                 quantum_bytes: int = FQ_QUANTUM_BYTES) -> None:
        if interval_ns <= 0:
            # CoDel's _advance is idempotent at a fixed time only while
            # a new above-target episode ends strictly later than now.
            raise ValueError("CoDel interval must be positive")
        self.sim = sim
        self.stats = stats
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self.quantum_bytes = quantum_bytes
        self._flows: Dict[Any, _FqFlow] = {}
        self._new: deque = deque()
        self._old: deque = deque()
        self._len = 0
        #: The key ``_schedule`` returned at ``_head_at`` (None: none
        #: kept).
        self._head: Optional[Any] = None
        self._head_at = -1

    # -- deque contract -------------------------------------------------
    def append(self, payload: Any) -> None:
        key = getattr(payload, "flow_id", _NO_FLOW)
        flow = self._flows.get(key)
        if flow is None:
            flow = _FqFlow(
                CoDelQueue(self.sim, self.stats,
                           self.target_ns, self.interval_ns),
                self.quantum_bytes)
            self._flows[key] = flow
            self._new.append(key)
        # CoDelQueue.append, which adds exactly one entry.
        flow.queue._items.append((payload, self.sim.now))
        self._len += 1
        self._head = None

    def popleft(self) -> Any:
        now = self.sim.now
        key = self._head
        if key is None or self._head_at != now:
            key = self._schedule()
            if key is None:
                raise IndexError("pop from an empty FQ-CoDel queue")
        self._head = None
        flow = self._flows[key]
        items = flow.queue._items
        payload, enqueued_ns = items.popleft()
        self._len -= 1
        # QdiscStats.on_dequeue, written out.
        stats = self.stats
        unfolded = stats._unfolded
        unfolded.append(now - enqueued_ns)
        if len(unfolded) >= stats.FOLD_EVERY:
            stats._fold()
        flow.deficit -= getattr(payload, "byte_length", None) \
            or self.quantum_bytes
        if not items:
            self._forget(key)
        return payload

    def __getitem__(self, index: int) -> Any:
        if index != 0:
            raise IndexError("qdisc queues only expose the head")
        now = self.sim.now
        key = self._head
        if key is None or self._head_at != now:
            key = self._schedule()
            if key is None:
                raise IndexError("peek into an empty FQ-CoDel queue")
            self._head, self._head_at = key, now
        return self._flows[key].queue._items[0][0]

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self):
        for lst in (self._new, self._old):
            for key in lst:
                yield from self._flows[key].queue

    def filter_out(self, predicate: Callable[[Any], bool]) -> List[Any]:
        self._head = None
        removed: List[Any] = []
        for key in list(self._new) + list(self._old):
            flow = self._flows[key]
            before = len(flow.queue)
            removed.extend(flow.queue.filter_out(predicate))
            self._len -= before - len(flow.queue)
            if not flow.queue:
                self._forget(key)
        return removed

    # -- DRR scheduler --------------------------------------------------
    def _forget(self, key: Any) -> None:
        del self._flows[key]
        new = self._new
        if new and new[0] == key:
            # The usual case: the head flow ran dry.
            new.popleft()
        elif key in new:
            new.remove(key)
        else:
            self._old.remove(key)

    def _schedule(self) -> Optional[Any]:
        """Pick the flow whose head is next to go.

        Idempotent at a fixed simulated time: state only changes when a
        head flow is empty (forgotten) or out of deficit (refilled and
        rotated), so peek-then-pop resolves to the same packet.
        """
        now = self.sim.now
        while True:
            if self._new:
                lst, key = self._new, self._new[0]
            elif self._old:
                lst, key = self._old, self._old[0]
            else:
                return None
            flow = self._flows[key]
            queue = flow.queue
            items = queue._items
            if items and (now - items[0][1] < queue.target_ns
                          or len(items) <= 1):
                # CoDelQueue._advance's first exit, written out.
                queue._first_above = 0
                queue._dropping = False
            else:
                before = len(items)
                queue._advance(now)
                self._len -= before - len(items)
                if not items:
                    self._forget(key)
                    continue
            if flow.deficit <= 0:
                flow.deficit += self.quantum_bytes
                lst.popleft()
                self._old.append(key)
                continue
            return key


def make_queue(sim, params, stats: QdiscStats):
    """Build one per-destination queue per ``MacParams``."""
    discipline = params.queue_discipline
    if discipline == "droptail":
        return DropTailQueue(sim, stats)
    if discipline == "codel":
        return CoDelQueue(sim, stats)
    if discipline == "fq_codel":
        return FqCodelQueue(sim, stats)
    raise ValueError(f"unknown queue discipline {discipline!r}")
