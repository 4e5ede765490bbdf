"""Shared test doubles, importable from any test module.

Kept separate from ``conftest.py`` (which holds fixtures) so test
modules can do ``from tests.helpers import FakeFrame`` — plain
absolute imports that work under pytest's rootdir-based collection
without making the test tree a package.
"""

from __future__ import annotations

import math

from repro.analysis.capacity import CapacityPoint, figure_1a_point, \
    figure_1b_point, figure_1b_rates
from repro.experiments.batch import SweepRecord, SweepResult, SweepSpec
from repro.phy.params import PHY_11A
from repro.sim.engine import Simulator
from repro.sim.medium import DEFAULT_CELL, MediumListener
from repro.workloads.scenarios import ScenarioConfig


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


def self_interrupting_metrics_fn(**kwargs):
    """Analytic-point target that sends SIGINT to its own process and
    still returns (a Ctrl-C landing while an in-process point runs)."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGINT)
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


# ----------------------------------------------------------------------
# Readings and shorthands the tests use and no production code does
# ----------------------------------------------------------------------
def schedule_at(sim: Simulator, time: int, callback, *args,
                priority: int = 0):
    """``callback(*args)`` at the absolute timestamp ``time``."""
    if time < sim.now:
        raise ValueError(
            f"cannot schedule in the past: {time} < now {sim.now}")
    return sim.schedule(time - sim.now, callback, *args,
                        priority=priority)


def pending_events(sim: Simulator) -> int:
    """Not-yet-cancelled events, armed timers and undelivered train
    items still queued."""
    return sim._live + sim._queued


def stream_names(registry):
    """Names of the streams an ``RngRegistry`` has created, sorted."""
    return sorted(registry._streams)


def cell_keys(medium):
    """Every dispatch group a medium has created (default cell first)."""
    return list(medium._cells)


def cell_of(medium, listener):
    """The dispatch group a listener was attached under."""
    return medium._cell_of.get(listener, DEFAULT_CELL)


def _on_the_wire(pipe):
    """Packets a ``WiredPipe`` has serialised but not yet delivered
    (still propagating in its train)."""
    now = pipe.sim.now
    return [packet for delivery, packet in pipe._train.newest_first()
            if delivery - pipe.delay_ns <= now]


def packets_sent(pipe, delivered) -> int:
    """Packets a ``WiredPipe`` has fully serialised onto the wire:
    ``delivered`` (what its deliver callback got) plus those whose
    propagation is still in progress."""
    return len(delivered) + len(_on_the_wire(pipe))


def bytes_sent(pipe, delivered) -> int:
    """Bytes a ``WiredPipe`` has fully serialised onto the wire."""
    return sum(packet.byte_length
               for packet in [*delivered, *_on_the_wire(pipe)])


def pipes(link):
    """A ``WiredLink``'s (a->b, b->a) pipes."""
    return link._a_to_b, link._b_to_a


def has_seen(recipient, seq: int) -> bool:
    """Whether a ``BlockAckRecipient``'s scoreboard holds ``seq``."""
    index = seq - recipient._base
    return 0 <= index < len(recipient._flags) \
        and recipient._flags[index] == 1


def snr_from_distance(distance_m: float, snr_at_1m_db: float = 40.0,
                      path_loss_exponent: float = 3.0) -> float:
    """Log-distance path loss: SNR(d) = SNR(1m) - 10*alpha*log10(d)."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    if distance_m < 1.0:
        return snr_at_1m_db
    return snr_at_1m_db - 10.0 * path_loss_exponent * math.log10(distance_m)


def improvement(point: CapacityPoint) -> float:
    """HACK's relative goodput gain at one capacity point."""
    if point.tcp_goodput_mbps == 0:
        return 0.0
    return point.hack_goodput_mbps / point.tcp_goodput_mbps - 1.0


def figure_1a(rates=PHY_11A.data_rates):
    """Theoretical goodput for 802.11a rates (Fig 1a)."""
    return [figure_1a_point(r) for r in rates]


def figure_1b():
    """Theoretical goodput for 802.11n rates up to 600 Mbps (Fig 1b)."""
    return [figure_1b_point(rate) for rate in figure_1b_rates()]


def run_experiment(module, quick: bool = False, runner=None, **scope):
    """One experiment module's rows; ``scope`` narrows the grid
    through ``sweep_spec``'s own keyword arguments (e.g.
    ``client_counts=(1,)`` for fig10, or ``seeds``)."""
    from repro.experiments.batch import SweepRunner
    runner = runner or SweepRunner()
    return module.rows_from_sweep(
        runner.run(module.sweep_spec(quick, **scope)))


def grid_spec(name: str, base, axes, seeds) -> SweepSpec:
    """Cartesian product of config-field axes crossed with seeds; each
    cell's key is the tuple of axis values in axis order."""
    spec = SweepSpec(name)
    assignments = [{}]
    for field_name, values in axes.items():
        assignments = [dict(a, **{field_name: v})
                       for a in assignments for v in values]
    for assignment in assignments:
        key = tuple(assignment[f] for f in axes)
        for seed in seeds:
            params = dict(base, **assignment, seed=seed)
            spec.add_scenario(key, ScenarioConfig(**params))
    return spec


def spec_keys(spec: SweepSpec):
    """A spec's distinct cell keys in first-appearance order."""
    return list(dict.fromkeys(point.key for point in spec.points))


def aggregate(result: SweepResult, metric):
    """Per-cell mean/stdev of a metric across a whole sweep."""
    return {key: result.cell(key, metric) for key in result.keys()}
