"""Re-armable timers: same firing order as cancel-and-``schedule``,
one useful heap entry, exact live counts, nothing pinned after close.

The differential oracle runs the same randomly generated program —
``arm`` / ``cancel`` / plain ``schedule`` at deliberately colliding
timestamps, timers re-arming themselves from their own callbacks —
once through :class:`~repro.sim.engine.Timer` and once through
:class:`EagerTimer` (the cancel + ``schedule`` idiom the TCP stack
used before), and demands the identical fire log: times *and* order.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator, Timer
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.tcp.segment import TcpSegment

from tests.helpers import pending_events


class EagerTimer:
    """The reference: every arm is a cancel and a fresh event."""

    def __init__(self, sim, callback):
        self.sim = sim
        self.callback = callback
        self._event = None

    @property
    def armed(self):
        return self._event is not None

    def arm(self, delay):
        self.cancel()
        self._event = self.sim.schedule(delay, self._fire)

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self.callback()


# Few distinct small values, so that timestamps collide and the
# sequence number decides the order.
DELAYS = st.sampled_from([0, 0, 1, 2, 3, 5, 8])
N_TIMERS = 3

OPS = st.one_of(
    st.tuples(st.just("arm"), st.integers(0, N_TIMERS - 1), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, N_TIMERS - 1)),
    st.tuples(st.just("schedule"), DELAYS),
)

PROGRAMS = st.tuples(
    # (time the op is issued at, op): issued by plain driver events.
    st.lists(st.tuples(st.integers(0, 12), OPS), max_size=40),
    # Per timer: the delays it re-arms itself with from its own
    # callback, one per fire, until the list runs out.
    st.lists(st.lists(DELAYS, max_size=4),
             min_size=N_TIMERS, max_size=N_TIMERS),
    # The run is cut into max_events chunks of these sizes.
    st.lists(st.integers(1, 6), max_size=6),
)


def execute(timer_cls, program):
    """Run ``program``; return everything observable about it."""
    ops, refires, chunks = program
    sim = Simulator()
    log = []
    timers = []

    refires = [list(delays) for delays in refires]

    def fired(index):
        log.append((sim.now, f"T{index}", pending_events(sim)))
        if refires[index]:
            timers[index].arm(refires[index].pop(0))

    for index in range(N_TIMERS):
        timers.append(timer_cls(sim, lambda index=index: fired(index)))

    def issue(number, op):
        if op[0] == "arm":
            timers[op[1]].arm(op[2])
        elif op[0] == "cancel":
            timers[op[1]].cancel()
        else:
            sim.schedule(op[1], lambda: log.append(
                (sim.now, f"E{number}", pending_events(sim))))
        log.append((sim.now, f"op{number}", pending_events(sim),
                    tuple(timer.armed for timer in timers)))

    for number, (at, op) in enumerate(ops):
        sim.schedule(at, issue, number, op)
    counts = []
    for chunk in chunks:
        counts.append((sim.run(max_events=chunk), sim.now,
                       pending_events(sim)))
    counts.append((sim.run(), sim.now, pending_events(sim)))
    return log, counts, sim.stats.executed


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_timer_fires_exactly_like_cancel_and_schedule(program):
    assert execute(Timer, program) == execute(EagerTimer, program)


class TestTimer:
    def test_fires_once_at_its_deadline_and_disarms(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append((sim.now, timer.armed)))
        assert not timer.armed and timer.deadline is None
        timer.arm(10)
        assert timer.armed and timer.deadline == 10
        assert pending_events(sim) == 1
        assert sim.run() == 1
        assert fired == [(10, False)]
        assert timer.deadline is None and pending_events(sim) == 0

    def test_rearm_later_is_absorbed_without_a_push(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(10)
        for delay in (20, 30, 40):
            timer.arm(delay)
        assert len(sim._heap) == 1
        assert sim.stats.scheduled == 1 and sim.stats.timer_rearms == 3
        assert sim.run() == 1                # stale pops are not events
        assert fired == [40]
        # One push at arm, one when the stand-in popped at t=10.
        assert sim.stats.scheduled == 2 and sim.stats.cancelled == 1

    def test_deadline_moved_earlier_fires_early_and_only_once(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(100)
        timer.arm(10)
        assert timer.deadline == 10
        assert pending_events(sim) == 1 and len(sim._heap) == 2
        sim.run()
        assert fired == [10]
        assert sim.stats.executed == 1
        assert sim.stats.scheduled == 2 and sim.stats.cancelled == 1

    def test_earlier_then_later_again_keeps_the_earliest_entry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(100)
        timer.arm(10)
        timer.arm(50)                        # rides the t=10 entry
        assert len(sim._heap) == 2 and sim.stats.timer_rearms == 1
        sim.run()
        assert fired == [50]

    def test_rearm_from_inside_its_own_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.arm(7)

        timer = Timer(sim, tick)
        timer.arm(7)
        sim.run()
        assert fired == [7, 14, 21]
        assert not timer.armed

    def test_cancel_then_arm_reuses_the_parked_entry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for _ in range(5):                   # the delayed-ACK pattern
            timer.arm(100)
            timer.cancel()
            sim.run(until=sim.now + 10)
        assert sim.stats.scheduled == 1 and sim.stats.timer_rearms == 4
        assert pending_events(sim) == 0 and fired == []
        timer.arm(100)
        sim.run()
        assert fired == [150]

    def test_cancel_after_fire_is_harmless(self, sim):
        timer = Timer(sim, lambda: None)
        timer.arm(5)
        sim.schedule(9, lambda: None)
        sim.run(max_events=1)
        timer.cancel()
        timer.cancel()
        assert pending_events(sim) == 1
        assert sim.stats.cancelled == 0

    def test_negative_delay_rejected(self, sim):
        timer = Timer(sim, lambda: None)
        with pytest.raises(ValueError, match="negative delay"):
            timer.arm(-1)
        assert not timer.armed and pending_events(sim) == 0

    def test_closed_timer_cannot_be_armed(self, sim):
        timer = Timer(sim, lambda: None)
        timer.arm(5)
        timer.close()
        timer.close()
        assert not timer.armed and pending_events(sim) == 0
        with pytest.raises(RuntimeError, match="closed"):
            timer.arm(5)
        assert sim.run() == 0

    def test_priority_zero_like_schedule(self, sim):
        log = []
        sim.schedule(10, lambda: log.append("late"), priority=1)
        timer = Timer(sim, lambda: log.append("timer"))
        timer.arm(10)
        sim.schedule(10, lambda: log.append("early"), priority=-1)
        sim.schedule(10, lambda: log.append("after"))
        sim.run()
        assert log == ["early", "timer", "after", "late"]


class TestStaleEntries:
    def test_max_events_and_pending_ignore_stale_entries(self, sim):
        log = []
        timers = [Timer(sim, lambda i=i: log.append(f"T{i}"))
                  for i in range(4)]
        for timer in timers:
            timer.arm(10)
            timer.arm(30)                    # stand-ins pop at t=10
        timers[3].cancel()
        sim.schedule(20, lambda: log.append("E"))
        assert pending_events(sim) == 4
        assert sim.run(max_events=1) == 1    # four stale pops, then E
        assert log == ["E"] and sim.now == 20
        assert pending_events(sim) == 3
        assert sim.run(max_events=2) == 2
        assert log == ["E", "T0", "T1"]
        assert pending_events(sim) == 1

    def test_stale_pops_leave_the_clock_alone(self, sim):
        timer = Timer(sim, lambda: None)
        sim.schedule(5, lambda: None)
        timer.arm(50)
        timer.cancel()
        assert sim.run() == 1
        assert sim.now == 5 and sim._heap == []
        timer.arm(50)
        timer.cancel()
        sim.run(until=20)
        assert sim.now == 20 and len(sim._heap) == 1

    def test_counters_balance(self, sim):
        timers = [Timer(sim, lambda: None) for _ in range(8)]
        for step in range(400):
            timer = timers[step % 8]
            if step % 3:
                timer.arm(1 + step % 11)
            elif step % 5:
                timer.cancel()
            else:
                sim.schedule(step % 7, lambda: None).cancel()
            if step % 13 == 0:
                sim.run(max_events=2)
            stats = sim.stats
            assert stats.scheduled == (stats.executed + stats.cancelled
                                       + sim._live + sim._parked)
            assert pending_events(sim) == \
                sum(timer.armed for timer in timers)

    def test_compaction_keeps_timers_and_reclaims_closed_ones(self, sim):
        fired = []
        armed = [Timer(sim, lambda i=i: fired.append(i))
                 for i in range(10)]
        parked = [Timer(sim, lambda: fired.append("parked"))
                  for _ in range(10)]
        closed = [Timer(sim, lambda: fired.append("closed"))
                  for _ in range(100)]
        for index, timer in enumerate(armed):
            timer.arm(1_000 + index)
        for timer in parked + closed:
            timer.arm(2_000)
            timer.cancel()
        for timer in closed:
            timer.close()
        assert len(sim._heap) == 120 and sim.stats.compactions == 0
        sim.schedule(5, lambda: None).cancel()   # triggers the check
        assert sim.stats.compactions == 1
        assert len(sim._heap) == 20
        parked[0].arm(500)                   # earlier than its entry
        parked[1].arm(3_000)                 # rides its entry
        sim.run()
        assert fired == ["parked"] + list(range(10)) + ["parked"]
        assert pending_events(sim) == 0


MSS = 1460


def ack(value):
    return TcpSegment(flow_id=1, src="C1", dst="S", seq=0,
                      payload_bytes=0, ack=value, rwnd=1 << 20)


class TestClosedFlowsAreNotPinned:
    """A lazily cancelled timer leaves its entry queued until the old
    deadline; closing must cut the entry's path back to the flow."""

    def test_completed_sender_is_collectable_before_its_old_rto(self, sim):
        sender = TcpSender(sim, 1, "S", "C1", output=lambda seg: None,
                           total_bytes=2 * MSS)
        sender.start()
        old_deadline = sender._rto_timer.deadline
        sim.run(until=1_000)
        sender.on_ack(ack(2 * MSS))
        assert sender.completed
        ref = weakref.ref(sender)
        del sender
        gc.collect()
        assert sim.now < old_deadline and len(sim._heap) == 1
        assert ref() is None
        assert sim.run() == 0

    def test_closed_receiver_is_collectable_before_its_old_delack(self, sim):
        receiver = TcpReceiver(sim, 1, "C1", "S",
                               output=lambda seg: None)
        receiver.on_segment(TcpSegment(
            flow_id=1, src="S", dst="C1", seq=0, payload_bytes=MSS,
            ack=0, rwnd=0))
        assert receiver._delack_timer.armed
        receiver.close()
        ref = weakref.ref(receiver)
        del receiver
        gc.collect()
        assert len(sim._heap) == 1 and pending_events(sim) == 0
        assert ref() is None
        assert sim.run() == 0
