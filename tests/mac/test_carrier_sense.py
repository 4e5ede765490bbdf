"""Carrier sense owned by the medium: same air, fewer visits.

`DcfMac` leaves its idle clock and IFS wait to `Medium` (one wake per
idle period and deadline, stations visited on an edge only while they
can act on it).  The differential oracle runs a randomly generated
world — 3-8 stations, enqueues landing mid-IFS and exactly on edges,
jams that collide, frame losses that flip stations between EIFS and
DIFS, foreign events and timer re-arms that consume sequence numbers
mid-idle — three times: every station eager
(:class:`~tests.mac.slotted_reference.EagerDcfMac`, the parent commit's
carrier sense), every station a `DcfMac`, and a drawn mix of the two on
one medium.  All three must put the same frames on the air at the same
instants in the same order.  Two seeded mutations of the medium show
the oracle has teeth.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.dcf import DcfMac
from repro.mac.frames import AckFrame, AmpduFrame, BarFrame, \
    BlockAckFrame, DataFrame
from repro.mac.params import MacParams
from repro.phy.params import PHY_11A, PHY_11N
from repro.sim.engine import Simulator, Timer
from repro.sim.medium import Medium
from repro.sim.units import msec, usec

from tests.helpers import FakeFrame, FakePayload, RecordingListener
from tests.mac.slotted_reference import EagerDcfMac
from tests.mac.test_dcf import ScriptedRng

# A tiny contention window, so that same-slot expiries are common.
PHYS = {False: (dataclasses.replace(PHY_11A, cw_min=3, cw_max=15), 54.0),
        True: (dataclasses.replace(PHY_11N, cw_min=3, cw_max=15), 150.0)}
SLOT = PHY_11A.slot_ns
SIFS = PHY_11A.sifs_ns
DIFS = PHY_11A.difs_ns
EIFS = PHY_11A.eifs_ns
HORIZON = msec(12)


class DrawnLoss:
    """Medium-level loss: each delivery is lost with probability ``p``.
    Deliveries happen in the same order in equivalent worlds, so the
    draws line up."""

    def __init__(self, p):
        self.p = p
        self.rng = random.Random(7)

    def is_lost(self, sender, receiver, frame):
        return self.rng.random() < self.p


def identity(frame):
    if isinstance(frame, DataFrame):
        return ("data", frame.mpdu.frame_id)
    if isinstance(frame, AmpduFrame):
        return ("ampdu",) + tuple(m.frame_id for m in frame.mpdus)
    if isinstance(frame, AckFrame):
        return ("ack", frame.dst, frame.acked_seq)
    if isinstance(frame, BlockAckFrame):
        return ("ba", frame.dst, frame.win_start,
                tuple(sorted(frame.acked_seqs)))
    if isinstance(frame, BarFrame):
        return ("bar", frame.dst, frame.win_start)
    return ("jam",)


def run_world(kinds, setup, ops, medium_cls=Medium):
    """Build the world, play ``ops``, return what went on the air.

    ``ops`` are ``(at, lead, via, action)``: the action runs at ``at``,
    put on the heap at set-up time (``via`` None), by a plain event at
    ``at - lead`` (a foreign ``schedule`` mid-run) or by a timer that is
    re-armed at ``at - lead`` — which consumes a sequence number but,
    its entry being queued already, pushes nothing.
    """
    cells, aggregation, loss_p = setup
    phy, rate = PHYS[aggregation]
    sim = Simulator()
    medium = medium_cls(sim, loss_model=DrawnLoss(loss_p) if loss_p else None)
    params = MacParams(data_rate_mbps=rate, aggregation=aggregation,
                       retry_limit=2, bar_retry_limit=2)
    stations = [kind(sim, medium, phy, f"S{i}", params,
                     random.Random(100 + i), cell=cells[i])
                for i, kind in enumerate(kinds)]
    starts, ends = [], []
    transmit = medium.transmit

    def logged_transmit(sender, frame, duration):
        starts.append((getattr(sender, "address", "jam"), sim.now,
                       identity(frame)))
        return transmit(sender, frame, duration)

    medium.transmit = logged_transmit
    medium.observers.append(lambda tx: ends.append(
        (getattr(tx.sender, "address", "jam"), tx.start, tx.end,
         identity(tx.frame), tx.collided)))
    jammer = object()

    def act(action):
        if action[0] == "enqueue":
            _, src, dst, size = action
            stations[src % len(stations)].enqueue(
                FakePayload(size), f"S{dst % len(stations)}")
        else:
            medium.transmit(jammer, FakeFrame(dst="elsewhere"), action[1])

    for at, lead, via, action in ops:
        early = max(0, at - lead)
        if via is None:
            sim.schedule(at, act, action)
        elif via == "event":
            sim.schedule(early, sim.schedule_at, at, act, action)
        else:
            # Armed for ``at`` now, re-armed for ``at`` then: the timer
            # fires under the later sequence number.
            timer = Timer(sim, lambda action=action: act(action))
            timer.arm(at)
            sim.schedule(early, lambda timer=timer, at=at:
                         timer.arm(at - sim.now))
    sim.run(until=HORIZON)
    return starts, ends, sim.stats.scheduled


def edges_of(setup, n, ops):
    """Every busy/idle instant of the all-eager run of ``ops``."""
    _, ends, _ = run_world((EagerDcfMac,) * n, setup, ops)
    return sorted({t for _, start, end, _, _ in ends for t in (start, end)})


OFFSETS = st.sampled_from([
    0, 0, 1, SLOT, SIFS, SIFS + 1, DIFS // 2, DIFS - 1, DIFS, DIFS + 1,
    DIFS + SLOT, DIFS + 2 * SLOT, EIFS - 1, EIFS, EIFS + SLOT])
LEADS = st.sampled_from([1, SLOT, DIFS // 2, DIFS, EIFS, usec(150)])
VIAS = st.sampled_from([None, None, "event", "timer"])
ACTIONS = st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, 7), st.integers(0, 7),
              st.sampled_from([60, 400, 1400])),
    st.tuples(st.just("jam"), st.sampled_from(
        [usec(4), usec(30), usec(44), usec(120)])),
)
#: Ops placed on the clock, and ops placed relative to an edge of the
#: run so far (resolved against the all-eager world, see below).
ABSOLUTE = st.tuples(st.integers(0, 400).map(usec), LEADS, VIAS, ACTIONS)
RELATIVE = st.tuples(st.integers(0, 60), OFFSETS, LEADS, VIAS, ACTIONS)
WORLDS = st.integers(3, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.tuples(st.lists(st.integers(0, 1), min_size=n, max_size=n),
              st.booleans(), st.sampled_from([0.0, 0.0, 0.15, 0.4])),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(ABSOLUTE, min_size=1, max_size=12),
    st.lists(RELATIVE, max_size=12),
))


def resolve(n, setup, absolute, relative):
    """Pin each relative op to an edge of the run that precedes it.

    Adding an op can only change the run from its own instant on, so
    an edge found before resolving it is still an edge afterwards —
    which is what lands enqueues and jams exactly on busy/idle edges
    and a chosen distance into an IFS.
    """
    ops = list(absolute)
    for pick, offset, lead, via, action in relative:
        edges = edges_of(setup, n, ops) or [0]
        ops.append((edges[pick % len(edges)] + offset, lead, via, action))
    return ops


@settings(max_examples=120, deadline=None)
@given(WORLDS)
def test_same_air_as_an_all_eager_world(world):
    n, setup, lazy, absolute, relative = world
    ops = resolve(n, setup, absolute, relative)
    eager = run_world((EagerDcfMac,) * n, setup, ops)
    owned = run_world((DcfMac,) * n, setup, ops)
    mixed = run_world(tuple(DcfMac if flag else EagerDcfMac
                            for flag in lazy), setup, ops)
    assert owned[:2] == eager[:2]
    assert mixed[:2] == eager[:2]
    # One wake per deadline never needs more heap pushes than one
    # defer event per station.
    assert owned[2] <= mixed[2] <= eager[2]


# ----------------------------------------------------------------------
# Seeded mutations: both must change what goes on the air.
# ----------------------------------------------------------------------
class AttachOrderMedium(Medium):
    """Mutation: a wake fires its members in attach order."""

    def _ifs_wake(self, wake):
        wake.members.sort(key=self.listeners.index)
        super()._ifs_wake(wake)


class AlwaysRideMedium(Medium):
    """Mutation: a late joiner rides an open wake even though something
    else was scheduled since."""

    def defer(self, station):
        self._wake_seq = self.sim.sequence
        super().defer(station)


JAM = (0, 1, None, ("jam", usec(100)))   # idle from 100 us on


def air(kind, medium_cls, aggregation, ops):
    """Three same-cell stations of one kind, no loss."""
    return run_world((kind,) * 3, ((0, 0, 0), aggregation, 0.0), ops,
                     medium_cls)[:2]


class TestMutationsAreCaught:
    def join_order_ops(self):
        # S1 waits from the idle edge; S0 — attached first — joins its
        # wake 10 us into the DIFS.  Both transmit at 134 us, S1 first.
        return [JAM,
                (usec(50), 1, None, ("enqueue", 1, 2, 400)),
                (usec(110), 1, None, ("enqueue", 0, 2, 400))]

    def foreign_schedule_ops(self):
        # S0 opens a wake at 105 us; at 106 us a foreign event books
        # S1's second packet for the wake's deadline; S1's first packet
        # arrives at 110 us.  S1 must fire *behind* that booking, so
        # its A-MPDU carries both packets.
        difs = PHYS[True][0].difs_ns
        deadline = usec(100) + difs
        return [JAM,
                (usec(105), 1, None, ("enqueue", 0, 2, 400)),
                (deadline, deadline - usec(106), "event",
                 ("enqueue", 1, 2, 400)),
                (usec(110), 1, None, ("enqueue", 1, 2, 400))]

    def test_members_fire_in_join_order_not_attach_order(self):
        ops = self.join_order_ops()
        eager = air(EagerDcfMac, Medium, False, ops)
        assert air(DcfMac, Medium, False, ops) == eager
        # S1 (joined at the edge) takes the air before S0 (joined late).
        at_deadline = [s for s in eager[0] if s[1] == usec(100) + DIFS]
        assert [s[0] for s in at_deadline] == ["S1", "S0"]
        assert air(DcfMac, AttachOrderMedium, False, ops) != eager

    def test_late_joiner_does_not_ride_past_a_foreign_schedule(self):
        ops = self.foreign_schedule_ops()
        eager = air(EagerDcfMac, Medium, True, ops)
        assert air(DcfMac, Medium, True, ops) == eager
        # S1's batch was formed after the booked enqueue ran.
        s1 = [s for s in eager[0] if s[0] == "S1"][0]
        assert s1[2][0] == "ampdu" and len(s1[2]) == 3
        assert air(DcfMac, AlwaysRideMedium, True, ops) != eager

    def test_timer_rearm_counts_as_a_foreign_schedule(self):
        # The same booking made by re-arming a parked timer: a sequence
        # number is consumed, ``stats.scheduled`` does not move.
        ops = [op if op[2] != "event" else op[:2] + ("timer",) + op[3:]
               for op in self.foreign_schedule_ops()]
        eager = air(EagerDcfMac, Medium, True, ops)
        assert air(DcfMac, Medium, True, ops) == eager
        assert air(DcfMac, AlwaysRideMedium, True, ops) != eager


# ----------------------------------------------------------------------
# Who is visited on an edge
# ----------------------------------------------------------------------
class EdgeCountingMac(DcfMac):
    """Counts the carrier-sense callbacks and ``_has_work`` calls it
    gets, and whether a medium edge was being processed at the time."""

    def __init__(self, *args, **kwargs):
        self.edge_calls = 0
        self.has_work_calls = 0
        self.has_work_during_edge = 0
        super().__init__(*args, **kwargs)

    def on_channel_busy(self, now):
        self.edge_calls += 1
        super().on_channel_busy(now)

    def on_channel_idle(self, now):
        self.edge_calls += 1
        super().on_channel_idle(now)

    def _has_work(self):
        self.has_work_calls += 1
        self.has_work_during_edge += self.medium.in_edge
        return super()._has_work()


class EdgeFlagMedium(Medium):
    in_edge = False

    def _busy_edge(self, now):
        self.in_edge = True
        super()._busy_edge(now)
        self.in_edge = False

    def _idle_edge(self, now):
        self.in_edge = True
        super()._idle_edge(now)
        self.in_edge = False


class OrderedListener(RecordingListener):
    def __init__(self, sim, name, order):
        super().__init__(sim, name)
        self.order = order

    def on_channel_busy(self, now):
        self.order.append((self.name, "busy", now))

    def on_channel_idle(self, now):
        self.order.append((self.name, "idle", now))


def visiting_world(n_frames):
    sim = Simulator()
    medium = EdgeFlagMedium(sim)
    params = MacParams(data_rate_mbps=54.0, aggregation=False)
    order = []
    first = OrderedListener(sim, "first", order)
    medium.attach(first)
    macs = {name: EdgeCountingMac(sim, medium, PHY_11A, name, params,
                                  random.Random(3))
            for name in ("quiet", "A", "B")}
    last = OrderedListener(sim, "last", order)
    medium.attach(last)
    for _ in range(n_frames):
        macs["A"].enqueue(FakePayload(300), "B")
    return sim, medium, macs, order


class TestSubscription:
    def test_quiescent_station_hears_no_edge_listeners_hear_all(self):
        n = 25
        sim, medium, macs, order = visiting_world(n)
        sim.run()
        assert macs["B"].stats.delivered() == 0 and \
            macs["A"].stats.delivered() == n
        assert macs["quiet"].edge_calls == 0
        # n data frames + n ACKs: 2n busy and 2n idle edges, each heard
        # by both plain listeners, the one attached first first.
        assert len(order) == 2 * 4 * n
        assert [name for name, _, _ in order] == ["first", "last"] * (4 * n)
        assert order[0::2] == [("first",) + e[1:] for e in order[1::2]]

    def test_station_inside_its_own_exchange_is_not_visited(self):
        sim, medium, macs, _ = visiting_world(10)
        sim.run()
        # The sender is frozen only while its backoff counts down; the
        # responder (nothing to send) never.
        assert macs["B"].edge_calls == 0
        assert macs["A"].edge_calls <= 10

    def test_has_work_is_never_reached_from_an_edge(self):
        n = 25
        sim, medium, macs, _ = visiting_world(n)
        sim.run()
        assert macs["quiet"].has_work_calls == 0
        assert macs["B"].has_work_calls == 0
        # One look when the first packet arrives at the idle station,
        # one after each finished exchange.
        assert macs["A"].has_work_calls == 1 + n
        assert sum(m.has_work_during_edge for m in macs.values()) == 0


# ----------------------------------------------------------------------
# The one idle clock
# ----------------------------------------------------------------------
def jammed_world(names=("A", "B"), backoffs=()):
    """Stations on a medium a jammer holds until t = 100 us."""
    sim = Simulator()
    medium = Medium(sim)
    params = MacParams(data_rate_mbps=54.0, aggregation=False)
    macs = [DcfMac(sim, medium, PHY_11A, name, params,
                   ScriptedRng(backoffs)) for name in names]
    starts = []
    medium.observers.append(lambda tx: starts.append(
        (getattr(tx.sender, "address", "jam"), tx.start)))
    medium.transmit(object(), FakeFrame(dst="elsewhere"), usec(100))
    return sim, medium, macs, starts


class TestIdleClock:
    @pytest.mark.parametrize("into_idle", [0, 1, usec(10), DIFS - 1])
    def test_mid_idle_enqueue_defers_the_rest_of_the_ifs(self, into_idle):
        sim, medium, (a, _), starts = jammed_world()
        sim.schedule(usec(100) + into_idle, a.enqueue, FakePayload(100), "B")
        sim.run()
        assert medium.idle_since > usec(100)         # moved on since
        assert starts[1] == ("A", usec(100) + DIFS)

    @pytest.mark.parametrize("into_idle", [DIFS, DIFS + 1, usec(500)])
    def test_enqueue_after_the_ifs_transmits_at_once(self, into_idle):
        sim, medium, (a, _), starts = jammed_world()
        sim.run(until=usec(100) + into_idle)
        assert medium.idle_since == usec(100)
        sim.schedule(0, a.enqueue, FakePayload(100), "B")
        sim.run()
        assert starts[1] == ("A", usec(100) + into_idle)

    def test_failed_exchange_after_the_ifs_starts_backoff_at_once(self):
        # Nobody answers "nowhere": the ACK timeout (45 us) outlasts
        # DIFS, so the retry's three slots start counting that instant.
        sim, medium, (a, _), starts = jammed_world(backoffs=(3,))
        a.enqueue(FakePayload(100), "nowhere")
        sim.run(until=msec(1))
        data = [t for who, t in starts if who == "A"]
        airtime = PHY_11A.frame_duration_ns(100 + 38, 54.0)
        timeout = PHY_11A.ack_timeout_ns()
        assert timeout > DIFS
        assert data[1] == data[0] + airtime + timeout + 3 * SLOT

    def test_eifs_is_measured_from_the_same_clock(self):
        # Two overlapping jams: garbage for everyone, so a station
        # whose packet arrives 20 us into the idle period still owes
        # EIFS from the idle edge, not from its own arrival.
        sim, medium, (a, _), starts = jammed_world()
        medium.transmit(object(), FakeFrame(dst="elsewhere"), usec(60))
        sim.schedule(usec(120), a.enqueue, FakePayload(100), "B")
        sim.run()
        assert ("A", usec(100) + EIFS) in starts


class TestSameSlotRule:
    def contenders(self):
        """Three stations with a packet each, all waiting in the one
        wake due at 100 us + DIFS."""
        sim, medium, macs, starts = jammed_world(names=("A", "B", "C"))
        for mac in macs:
            mac.enqueue(FakePayload(100), "nowhere")
        return sim, medium, macs, starts

    def test_wake_due_exactly_at_a_busy_edge_still_fires(self):
        sim, medium, macs, starts = self.contenders()
        deadline = usec(100) + DIFS
        # Booked first, so the jam takes the air before the wake runs.
        sim.schedule(deadline, medium.transmit, object(),
                     FakeFrame(dst="elsewhere"), usec(30))
        sim.run(until=deadline + 1)
        assert [s for s in starts if s[1] == deadline] == []  # in flight
        assert medium.frames_sent == 5 and medium.frames_collided == 4
        assert sim.stats.cancelled == 0

    def test_wake_due_later_dies_with_one_cancellation(self):
        sim, medium, macs, starts = self.contenders()
        busy_at = usec(100) + DIFS - 1
        sim.schedule(busy_at, medium.transmit, object(),
                     FakeFrame(dst="elsewhere"), usec(30))
        sim.run(until=busy_at)
        before = sim.stats.cancelled
        sim.run(until=busy_at + 1)
        assert sim.stats.cancelled == before + 1
        assert medium.frames_sent == 2               # nobody committed
        # ... and all three are back in one wake after the jam.
        sim.run(until=busy_at + usec(30) + DIFS + 1)
        assert medium.frames_sent == 5
