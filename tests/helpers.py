"""Shared test doubles, importable from any test module.

Kept separate from ``conftest.py`` (which holds fixtures) so test
modules can do ``from tests.helpers import FakeFrame`` — plain
absolute imports that work under pytest's rootdir-based collection
without making the test tree a package.
"""

from __future__ import annotations

from repro.experiments.batch import SweepRecord, SweepResult, SweepSpec
from repro.sim.engine import Simulator
from repro.sim.medium import MediumListener


class RecordingListener(MediumListener):
    """Test double that logs every medium event with its timestamp."""

    def __init__(self, sim: Simulator, name: str = "node"):
        self.sim = sim
        self.name = name
        self.events = []

    def on_channel_busy(self, now: int) -> None:
        self.events.append(("busy", now))

    def on_channel_idle(self, now: int) -> None:
        self.events.append(("idle", now))

    def on_frame_received(self, frame, sender) -> None:
        self.events.append(("rx", self.sim.now, frame, sender))

    def on_frame_error(self, frame, sender) -> None:
        self.events.append(("err", self.sim.now, frame, sender))

    def of_kind(self, kind: str):
        return [e for e in self.events if e[0] == kind]


class FakeFrame:
    """Minimal frame object for medium/MAC plumbing tests."""

    def __init__(self, name: str = "f", byte_length: int = 100,
                 dst=None, src=None, is_control: bool = False):
        self.name = name
        self.byte_length = byte_length
        self.dst = dst
        self.src = src
        self.is_control = is_control

    def __repr__(self) -> str:
        return f"<FakeFrame {self.name}>"


class FakePayload:
    """Minimal higher-layer payload (stands in for a TcpSegment)."""

    def __init__(self, byte_length: int = 1500, kind: str = "data"):
        self.byte_length = byte_length
        self.kind = kind


def constant_metrics(**kwargs):
    """Analytic-point target used by the sweep-engine tests."""
    return dict(kwargs)


def not_a_metrics_fn(**_kwargs):
    """Analytic-point target that (wrongly) returns a scalar."""
    return 42


def raising_metrics_fn(message="boom", **_kwargs):
    """Analytic-point target that always fails (a poisoned point)."""
    raise RuntimeError(message)


def slow_metrics_fn(delay_s=0.2, **kwargs):
    """Analytic-point target that takes a while (interrupt tests)."""
    import time

    time.sleep(delay_s)
    return dict(kwargs)


def dying_worker_fn(delay_s=0.0, **_kwargs):
    """Kills its own process (``os._exit``) — breaks a worker pool."""
    import os
    import time

    if delay_s:
        time.sleep(delay_s)
    os._exit(3)


def interrupting_metrics_fn(**kwargs):
    """Analytic-point target that, in a pool worker, sends SIGINT to
    the sweep that started the pool (a Ctrl-C mid-schedule)."""
    import multiprocessing
    import os
    import signal

    parent = multiprocessing.parent_process()
    if parent is None:
        raise RuntimeError("only meaningful inside a pool worker")
    os.kill(parent.pid, signal.SIGINT)
    return dict(kwargs)


class StubSweepRunner:
    """Sweep runner double: constant metrics per point, zero sims.

    Lets experiment ``run(..., runner=...)`` paths be exercised
    instantly; ``metrics`` is copied into every record.
    """

    def __init__(self, **metrics):
        self.metrics = metrics or {"aggregate_goodput_mbps": 100.0}
        self.specs = []

    def run(self, spec: SweepSpec) -> SweepResult:
        self.specs.append(spec)
        return SweepResult(
            spec_name=spec.name,
            records=[SweepRecord(key=p.key, seed=p.seed, signature="",
                                 metrics=dict(self.metrics))
                     for p in spec.points])
