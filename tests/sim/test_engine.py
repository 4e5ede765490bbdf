"""Event engine: ordering, cancellation, horizons, determinism,
heap hygiene under mass cancellation."""

import random

import pytest

from repro.sim.engine import Simulator, Timer
from repro.sim.units import SEC, usec

from tests.helpers import pending_events, schedule_at


class TestScheduling:
    def test_runs_in_time_order(self, sim):
        log = []
        sim.schedule(30, lambda: log.append("c"))
        sim.schedule(10, lambda: log.append("a"))
        sim.schedule(20, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(usec(5), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [usec(5)]

    def test_fifo_for_ties(self, sim):
        log = []
        for tag in "abcd":
            sim.schedule(100, lambda t=tag: log.append(t))
        sim.run()
        assert log == list("abcd")

    def test_priority_breaks_ties(self, sim):
        log = []
        sim.schedule(100, lambda: log.append("low"), priority=5)
        sim.schedule(100, lambda: log.append("high"), priority=-5)
        sim.run()
        assert log == ["high", "low"]

    def test_args_passed(self, sim):
        out = []
        sim.schedule(1, out.append, "x")
        sim.run()
        assert out == ["x"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            schedule_at(sim, 50, lambda: None)

    def test_events_scheduled_during_run(self, sim):
        log = []

        def first():
            log.append("first")
            sim.schedule(10, lambda: log.append("nested"))

        sim.schedule(5, first)
        sim.run()
        assert log == ["first", "nested"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        log = []
        event = sim.schedule(10, lambda: log.append("no"))
        event.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_pending_events_excludes_cancelled(self, sim):
        sim.schedule(10, lambda: None)
        event = sim.schedule(20, lambda: None)
        event.cancel()
        assert pending_events(sim) == 1


class TestRunControl:
    def test_until_is_exclusive(self, sim):
        log = []
        sim.schedule(100, lambda: log.append("at"))
        sim.run(until=100)
        assert log == []
        assert sim.now == 100

    def test_until_resumable(self, sim):
        log = []
        sim.schedule(100, lambda: log.append("x"))
        sim.run(until=50)
        assert log == []
        sim.run(until=200)
        assert log == ["x"]

    def test_max_events(self, sim):
        log = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: log.append(i))
        executed = sim.run(max_events=3)
        assert executed == 3
        assert log == [0, 1, 2]

    def test_clock_advances_to_horizon_when_drained(self, sim):
        sim.schedule(10, lambda: None)
        sim.run(until=1 * SEC)
        assert sim.now == 1 * SEC

    def test_until_never_moves_the_clock_backwards(self, sim):
        # Regression: the horizon branch set now = until unclamped.
        sim.schedule(200, lambda: None)
        sim.run(until=100)
        assert sim.now == 100
        sim.run(until=50)
        assert sim.now == 100
        with pytest.raises(ValueError, match="in the past"):
            schedule_at(sim, 60, lambda: None)
        assert sim.run() == 1 and sim.now == 200

    def test_run_returns_event_count(self, sim):
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.run() == 5


def brute_force_pending(sim):
    """Live heap entries: uncancelled events, plus the one entry that
    stands in for each armed timer."""
    live = 0
    for _, _, seq, item in sim._heap:
        if isinstance(item, Timer):
            live += item.armed and seq == item._queued_seq
        else:
            live += not item.cancelled
    return live


class TestHeapHygiene:
    def test_million_cancels_keep_heap_bounded(self, sim):
        # Regression: cancelled timers used to sit in the heap until
        # popped, so a timer-heavy run accreted unbounded garbage.
        sim.schedule(2 * SEC, lambda: None)  # one long-lived survivor
        peak = 0
        for i in range(1_000_000):
            sim.schedule(SEC + i, lambda: None).cancel()
            if i % 4096 == 0:
                peak = max(peak, len(sim._heap))
        peak = max(peak, len(sim._heap))
        assert peak <= 2 * 64 + 2  # compaction threshold, not 10^6
        assert sim.stats.cancelled == 1_000_000
        assert sim.stats.compactions > 1_000
        assert pending_events(sim) == 1

    def test_compaction_does_not_lose_or_reorder_events(self, sim):
        log = []
        events = []
        for i in range(500):
            events.append(sim.schedule(100 + i, lambda i=i: log.append(i)))
        for i, event in enumerate(events):
            if i % 2:
                event.cancel()
        sim.run()
        assert log == [i for i in range(500) if i % 2 == 0]

    def test_pending_events_matches_brute_force(self, sim):
        rng = random.Random(7)
        live = []
        for step in range(2000):
            action = rng.random()
            if action < 0.5 or not live:
                live.append(sim.schedule(rng.randint(1, 1000),
                                         lambda: None))
            elif action < 0.9:
                live.pop(rng.randrange(len(live))).cancel()
            else:
                sim.run(max_events=rng.randint(1, 5))
                live = [e for e in live
                        if not e.cancelled and e.time > sim.now]
            assert pending_events(sim) == brute_force_pending(sim)

    def test_cancel_after_execution_is_harmless(self, sim):
        event = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run()
        before = pending_events(sim)
        event.cancel()  # already ran; must not corrupt live counts
        assert pending_events(sim) == before == 0
        assert sim.stats.cancelled == 0

    def test_stats_counters(self, sim):
        done = sim.schedule(10, lambda: None)
        dead = sim.schedule(20, lambda: None)
        dead.cancel()
        sim.run()
        assert sim.stats.scheduled == 2
        assert sim.stats.executed == 1
        assert sim.stats.cancelled == 1
        stats = sim.stats.as_dict()
        assert stats["events_executed"] == 1
        assert stats["events_scheduled"] == 2
        assert stats["events_cancelled"] == 1
        assert stats["heap_compactions"] == 0


class TestDeterminism:
    def test_identical_runs(self):
        def build_and_run():
            sim = Simulator()
            log = []
            for i in range(100):
                sim.schedule((i * 7919) % 1000 + 1,
                             lambda i=i: log.append(i))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
