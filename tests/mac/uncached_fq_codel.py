"""FQ-CoDel as it was before it found its DRR head once per instant.

Kept verbatim (the class docstring aside) as the oracle
``tests/mac/test_qdisc.py`` holds :class:`repro.mac.qdisc.FqCodelQueue`
to: every peek schedules from scratch, every pop schedules again and
lets the sub-queue's ``popleft`` run CoDel's ``_advance`` once more.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.mac.qdisc import CODEL_INTERVAL_NS, CODEL_TARGET_NS, \
    FQ_QUANTUM_BYTES, CoDelQueue, QdiscStats, _FqFlow, _NO_FLOW


class UncachedFqCodelQueue:
    """FQ-CoDel as it was before its head was kept per instant."""

    __slots__ = ("sim", "stats", "target_ns", "interval_ns",
                 "quantum_bytes", "_flows", "_new", "_old", "_len")

    def __init__(self, sim, stats: QdiscStats,
                 target_ns: int = CODEL_TARGET_NS,
                 interval_ns: int = CODEL_INTERVAL_NS,
                 quantum_bytes: int = FQ_QUANTUM_BYTES) -> None:
        self.sim = sim
        self.stats = stats
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self.quantum_bytes = quantum_bytes
        self._flows: Dict[Any, _FqFlow] = {}
        self._new: deque = deque()
        self._old: deque = deque()
        self._len = 0

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
        before = len(flow.queue)
        flow.queue.append(payload)
        self._len += len(flow.queue) - before

    def popleft(self) -> Any:
        key = self._schedule()
        if key is None:
            raise IndexError("pop from an empty FQ-CoDel queue")
        flow = self._flows[key]
        before = len(flow.queue)
        payload = flow.queue.popleft()
        self._len -= before - len(flow.queue)
        flow.deficit -= getattr(payload, "byte_length", None) \
            or self.quantum_bytes
        if not flow.queue:
            self._forget(key)
        return payload

    def __getitem__(self, index: int) -> Any:
        if index != 0:
            raise IndexError("qdisc queues only expose the head")
        key = self._schedule()
        if key is None:
            raise IndexError("peek into an empty FQ-CoDel queue")
        return self._flows[key].queue[0]

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self):
        for lst in (self._new, self._old):
            for key in lst:
                yield from self._flows[key].queue

    def filter_out(self, predicate: Callable[[Any], bool]) -> List[Any]:
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
        try:
            self._new.remove(key)
        except ValueError:
            self._old.remove(key)

    def _schedule(self) -> Optional[Any]:
        """Pick the flow whose head is next to go.

        Idempotent at a fixed simulated time: state only changes when a
        head flow is empty (forgotten) or out of deficit (refilled and
        rotated), so peek-then-pop resolves to the same packet.
        """
        while True:
            if self._new:
                lst, key = self._new, self._new[0]
            elif self._old:
                lst, key = self._old, self._old[0]
            else:
                return None
            flow = self._flows[key]
            before = len(flow.queue)
            flow.queue._advance(self.sim.now)
            self._len -= before - len(flow.queue)
            if not flow.queue:
                self._forget(key)
                continue
            if flow.deficit <= 0:
                flow.deficit += self.quantum_bytes
                lst.popleft()
                self._old.append(key)
                continue
            return key
