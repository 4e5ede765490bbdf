"""The eager reference for :class:`repro.sim.engine.Train`.

One heap event per item: ``push`` is ``schedule_at`` and nothing else,
which is what ``WiredPipe`` and ``ClientNode`` did per packet before
they queued on a train.  ``tests/sim/test_train.py`` runs the same
program through both and demands the same trace.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator


class EagerTrain:
    def __init__(self, sim: Simulator, deliver: Callable[[Any], Any]):
        self.sim = sim
        self.deliver = deliver

    def push(self, time: int, arg: Any) -> None:
        self.sim.schedule_at(time, self.deliver, arg)
