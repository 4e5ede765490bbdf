"""Trains: the same trace as one heap event per item, one heap entry.

The differential oracle runs the same randomly generated program once
with :class:`~repro.sim.engine.Train` and once with
``tests/sim/eager_train.py`` (``push`` = ``schedule_at``): train
pushes, FIFO and not, at deliberately colliding timestamps; plain
events at priorities -2..1; timers armed and cancelled; events
cancelled; callbacks that push onto their own and other trains or
schedule something that must pre-empt the rest of a train;
runs cut by ``until`` and ``max_events``; a span instrument.  It
demands the identical callback trace — name, time, argument,
``pending_events`` — the same clock and counts after every run, and
the same spans.

Four seeded mutations of the kernel show the oracle is alive: each
must make it fail.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.sim import engine
from repro.sim.engine import Simulator, Timer, Train

from tests.helpers import pending_events
from tests.sim.eager_train import EagerTrain

N_TRAINS = 2
N_TIMERS = 2

# Few distinct small values, so that timestamps collide and the
# sequence number decides the order.
DELAYS = st.sampled_from([0, 0, 1, 2, 3, 5, 8])

ACTIONS = st.one_of(
    # A burst of 1-4 items, ``step`` apart (0: all at one instant).
    st.tuples(st.just("push"), st.integers(0, N_TRAINS - 1), DELAYS,
              st.integers(1, 4), st.integers(0, 1)),
    st.tuples(st.just("event"), DELAYS, st.integers(-2, 1)),
    st.tuples(st.just("event"), DELAYS, st.integers(-2, 1)),
    st.tuples(st.just("arm"), st.integers(0, N_TIMERS - 1), DELAYS),
    st.tuples(st.just("disarm"), st.integers(0, N_TIMERS - 1)),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
)

PROGRAMS = st.tuples(
    # (time the action is issued at, action): by plain driver events.
    st.lists(st.tuples(st.integers(0, 12), ACTIONS), max_size=30),
    # What callbacks do when they run — deliveries, events and timer
    # fires alike — one entry consumed per callback, None for nothing.
    st.lists(st.one_of(st.none(), ACTIONS), max_size=40),
    # The run is cut into (until, max_events) chunks, then drained.
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 25)),
                       st.one_of(st.none(), st.integers(1, 6))),
             max_size=5),
    # Whether a span instrument is installed.
    st.booleans(),
)

ORACLE = settings(max_examples=400, deadline=None)


class Spans:
    def __init__(self, names):
        self.names = names
        self.recorded = []

    def record(self, callback, sim_ns, wall_ns):
        assert wall_ns >= 0
        self.recorded.append((self.names[callback], sim_ns))


def execute(train_cls, program):
    """Run ``program``; return everything observable about it."""
    actions, reactions, chunks, instrumented = program
    sim = Simulator()
    reactions = list(reactions)
    log, events, names = [], [], {}
    items = iter(range(10_000))

    def ran(name, arg=None):
        log.append((name, sim.now, arg, pending_events(sim)))
        if reactions:
            reaction = reactions.pop(0)
            if reaction is not None:
                act(reaction)

    def named(name, callback):
        names[callback] = name
        return callback

    trains = [train_cls(sim, named(f"deliver{index}", lambda arg,
                                   index=index: ran(f"train{index}", arg)))
              for index in range(N_TRAINS)]
    timers = [Timer(sim, named(f"fire{index}", lambda index=index:
                               ran(f"timer{index}")))
              for index in range(N_TIMERS)]
    plain = named("plain", lambda arg: ran("event", arg))
    issue = named("issue", lambda number, action: (
        act(action), ran("issue", number)))

    def act(action):
        kind = action[0]
        if kind == "push":
            _, train, delay, burst, step = action
            for index in range(burst):
                trains[train].push(sim.now + delay + index * step,
                                   next(items))
        elif kind == "event":
            events.append(sim.schedule(action[1], plain, next(items),
                                       priority=action[2]))
        elif kind == "arm":
            timers[action[1]].arm(action[2])
        elif kind == "disarm":
            timers[action[1]].cancel()
        else:
            if events:
                events[-1 - action[1] % len(events)].cancel()

    spans = Spans(names)
    if instrumented:
        sim.set_instrument(spans)
    for number, (at, action) in enumerate(actions):
        sim.schedule(at, issue, number, action)
    counts = []
    chunks = list(chunks)
    while chunks or pending_events(sim):
        until, max_events = chunks.pop(0) if chunks else (None, None)
        ran_now = sim.run(until=until, max_events=max_events)
        stats = sim.stats
        counts.append((ran_now, sim.now, pending_events(sim),
                       stats.executed + stats.inlined))
        # The kernel's own books balance wherever a run stops.
        assert stats.scheduled == (stats.executed + stats.cancelled
                                   + sim._live + sim._parked)
        if train_cls is Train:
            assert pending_events(sim) == sim._live + sum(
                max(len(train._items) - 1, 0) for train in trains)
    return log, counts, spans.recorded


def check(program):
    assert execute(Train, program) == execute(EagerTrain, program)


@ORACLE
@given(PROGRAMS)
def test_train_delivers_exactly_like_one_event_per_item(program):
    check(program)


# ----------------------------------------------------------------------
# Seeded mutations: each must make the oracle fail.
# ----------------------------------------------------------------------
def mutated(method, edits):
    """``method`` recompiled with each ``(old, new)`` edit applied."""
    source = textwrap.dedent(inspect.getsource(method))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(engine))
    exec(source, namespace)
    return namespace[method.__name__]


MUTANTS = {
    # With unique sequence numbers ``<=`` and ``<`` on whole entries
    # are the same comparison; what ``<=`` stands for is a tie on
    # (time, priority) going to the train instead of to the sequence
    # number.
    "a tie with the heap goes to the train": (
        Simulator._run_train,
        [("(heap and heap[0] < item)",
          "(heap and heap[0][:2] < item[:2])")]),
    "heap[0] is read once, before the first delivery": (
        Simulator._run_train,
        [("item = items.popleft()",
          "item = items.popleft(); top = heap[:1]"),
         ("(heap and heap[0] < item)", "(top and top[0] < item)")]),
    "a push takes no sequence number": (
        Train.push,
        [("sim._seq = seq = sim._seq + 1", "seq = sim._seq + 1")]),
    "a train drains past the horizon": (
        Simulator._run_train, [("item[0] >= until or ", "")]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_oracle_catches(name, monkeypatch):
    method, edits = MUTANTS[name]
    owner = Train if method is Train.push else Simulator
    monkeypatch.setattr(owner, method.__name__, mutated(method, edits))
    with pytest.raises(Exception):
        settings(ORACLE, derandomize=True, database=None,
                 max_examples=1_000,
                 phases=(Phase.generate,))(given(PROGRAMS)(check))()


class TestTrain:
    def test_one_heap_entry_however_long_the_queue(self, sim):
        got = []
        train = Train(sim, lambda arg: got.append((sim.now, arg)))
        for index in range(100):
            train.push(10 + index, index)
        assert len(sim._heap) == 1 and sim.stats.scheduled == 1
        assert len(train._items) == 100 and pending_events(sim) == 100
        assert sim.run() == 100
        assert got == [(10 + index, index) for index in range(100)]
        assert sim.stats.executed == 1 and sim.stats.inlined == 99
        assert sim.stats.scheduled == 1 and len(train._items) == 0
        assert sim.now == 109 and pending_events(sim) == 0

    def test_a_push_that_is_not_fifo_becomes_an_event(self, sim):
        got = []
        train = Train(sim, got.append)
        train.push(10, "a")
        train.push(20, "b")
        train.push(15, "early")
        assert len(train._items) == 2 and len(sim._heap) == 2
        assert list(train.newest_first()) == [(20, "b"), (10, "a")]
        sim.run()
        assert got == ["a", "early", "b"]

    def test_negative_priority_event_preempts_the_rest(self, sim):
        got = []

        def deliver(arg):
            got.append(arg)
            if arg == "a":
                sim.schedule(0, got.append, "response", priority=-2)

        train = Train(sim, deliver)
        train.push(5, "a")
        train.push(5, "b")
        sim.run()
        assert got == ["a", "response", "b"]

    def test_max_events_counts_every_delivery(self, sim):
        got = []
        train = Train(sim, got.append)
        for index in range(5):
            train.push(index, index)
        assert sim.run(max_events=2) == 2
        assert got == [0, 1] and pending_events(sim) == 3
        assert sim.stats.inlined == 0 and sim.stats.executed == 2
        assert sim.run() == 3 and sim.stats.inlined == 2

    def test_push_in_the_past_rejected(self, sim):
        train = Train(sim, lambda arg: None)
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="in the past"):
            train.push(9, "late")
        assert pending_events(sim) == 0 and sim.sequence == 1

    def test_a_delivery_that_raises_leaves_the_rest_queued(self, sim):
        got = []

        def deliver(arg):
            if arg == "bad":
                raise RuntimeError(arg)
            got.append(arg)

        train = Train(sim, deliver)
        for arg in ("a", "bad", "b"):
            train.push(5, arg)
        with pytest.raises(RuntimeError):
            sim.run()
        assert got == ["a"] and pending_events(sim) == 1
        sim.run()
        assert got == ["a", "b"]

    def test_compaction_keeps_a_trains_entry(self, sim):
        got = []
        train = Train(sim, got.append)
        train.push(1_000, "kept")
        train.push(1_001, "behind")
        doomed = [sim.schedule(500, lambda: None) for _ in range(100)]
        for event in doomed:
            event.cancel()
        assert sim.stats.compactions >= 1 and len(sim._heap) <= 50
        sim.run()
        assert got == ["kept", "behind"]
