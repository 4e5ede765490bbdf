"""Wired link: serialisation, propagation, FIFO, drop-tail."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.units import MS, transmission_time_ns, usec
from repro.sim.wired import WiredLink, WiredPipe

from tests.helpers import FakeFrame, bytes_sent, packets_sent, pending_events, \
    pipes


class Sink:
    def __init__(self):
        self.received = []

    def receive_wired(self, packet):
        self.received.append(packet)


class TestWiredPipe:
    def test_serialisation_plus_propagation(self, sim):
        got = []

        def deliver(p):
            got.append((sim.now, p))

        pipe = WiredPipe(sim, rate_mbps=8.0, delay_ns=MS, deliver=deliver)
        pipe.send(FakeFrame(byte_length=1000))  # 8000 bits @ 8Mbps = 1ms
        sim.run()
        assert got[0][0] == 2 * MS

    def test_fifo_order(self, sim):
        got = []
        pipe = WiredPipe(sim, 100.0, 0, lambda p: got.append(p.name))
        for name in "abc":
            pipe.send(FakeFrame(name))
        sim.run()
        assert got == ["a", "b", "c"]

    def test_back_to_back_serialisation(self, sim):
        times = []
        pipe = WiredPipe(sim, 8.0, 0, lambda p: times.append(sim.now))
        pipe.send(FakeFrame(byte_length=1000))
        pipe.send(FakeFrame(byte_length=1000))
        sim.run()
        assert times == [MS, 2 * MS]

    def test_queue_limit_drop_tail(self, sim):
        pipe = WiredPipe(sim, 1.0, 0, lambda p: None, queue_limit=2)
        # First packet starts transmitting immediately (leaves queue).
        assert pipe.send(FakeFrame(byte_length=10_000))
        assert pipe.send(FakeFrame(byte_length=10_000))
        assert pipe.send(FakeFrame(byte_length=10_000))
        assert not pipe.send(FakeFrame(byte_length=10_000))
        assert pipe.packets_dropped == 1

    def test_counters(self, sim):
        pipe = WiredPipe(sim, 100.0, 0, lambda p: None)
        pipe.send(FakeFrame(byte_length=500))
        sim.run()
        assert packets_sent(pipe) == 1
        assert bytes_sent(pipe) == 500

    def test_counters_reflect_serialisation_not_delivery(self, sim):
        # 8000 bits @ 8 Mbps serialise by 1 ms; propagation adds 1 ms.
        pipe = WiredPipe(sim, 8.0, MS, lambda p: None)
        pipe.send(FakeFrame(byte_length=1000))
        sim.run(until=MS + usec(1))
        assert packets_sent(pipe) == 1  # on the wire, not yet delivered
        assert bytes_sent(pipe) == 1000

    def test_bookkeeping_stays_bounded_without_queue_limit(self, sim):
        # After its last delivery a pipe holds no per-packet state,
        # with or without a queue limit for a read to prune by: the
        # counters are totals, and a read walks only what is queued.
        delivered = []
        pipe = WiredPipe(sim, 100.0, usec(10), delivered.append)
        for _ in range(100):
            for _ in range(1000):
                pipe.send(FakeFrame(byte_length=1000))
            assert pipe.queue_depth == 999 and packets_sent(pipe) == \
                len(delivered)
            sim.run()
            assert pipe.queue_depth == 0
        assert len(delivered) == packets_sent(pipe) == 100_000
        assert bytes_sent(pipe) == 100_000_000
        assert pending_events(sim) == 0 and len(pipe._train._items) == 0

    def test_invalid_params(self, sim):
        with pytest.raises(ValueError):
            WiredPipe(sim, 0.0, 0, lambda p: None)
        with pytest.raises(ValueError):
            WiredPipe(sim, 10.0, -1, lambda p: None)


class TwoEventPipe:
    """Brute-force model of the historical pipe — a queue, a
    serialisation-complete event and a propagation event per packet —
    as arithmetic over every packet ever accepted.  At the instant a
    serialisation boundary falls the packet counts as serialised (and
    the next one as started)."""

    def __init__(self, rate_mbps, delay_ns, queue_limit):
        self.rate_mbps = rate_mbps
        self.delay_ns = delay_ns
        self.queue_limit = queue_limit
        self.accepted = []          # (start, end, bytes, name)
        self.dropped = 0

    def send(self, now, packet):
        if (self.queue_limit is not None
                and self.queue_depth(now) >= self.queue_limit):
            self.dropped += 1
            return False
        start = max([now] + [end for _, end, _, _ in self.accepted])
        end = start + transmission_time_ns(packet.byte_length,
                                           self.rate_mbps)
        self.accepted.append((start, end, packet.byte_length,
                              packet.name))
        return True

    def queue_depth(self, now):
        return sum(1 for start, _, _, _ in self.accepted if start > now)

    def packets_sent(self, now):
        return sum(1 for _, end, _, _ in self.accepted if end <= now)

    def bytes_sent(self, now):
        return sum(nbytes for _, end, nbytes, _ in self.accepted
                   if end <= now)

    def deliveries(self):
        return [(end + self.delay_ns, name)
                for _, end, _, name in self.accepted]


# 8 Mbit/s: one byte serialises in exactly 1 us, so these gaps land
# reads and sends on serialisation boundaries as often as beside them.
GAPS = st.sampled_from([0, 0, 500, 1_000, 1_000, 2_000, 3_000, 7_000])
STEPS = st.lists(st.tuples(GAPS, st.one_of(
    st.just("read"), st.integers(1, 3))), max_size=60)


@settings(max_examples=200, deadline=None)
@given(STEPS, st.sampled_from([0, 1_000, 2_500]),
       st.one_of(st.none(), st.integers(0, 3)))
def test_counters_and_drops_match_the_two_event_pipe(steps, delay_ns,
                                                     queue_limit):
    sim = Simulator()
    model = TwoEventPipe(8.0, delay_ns, queue_limit)
    delivered = []

    def same_counters():
        assert (packets_sent(pipe), bytes_sent(pipe), pipe.queue_depth,
                pipe.packets_dropped) == (
            model.packets_sent(sim.now), model.bytes_sent(sim.now),
            model.queue_depth(sim.now), model.dropped)

    def deliver(packet):
        delivered.append((sim.now, packet.name))
        same_counters()             # read at a delivery instant too

    pipe = WiredPipe(sim, 8.0, delay_ns, deliver, queue_limit)
    at = 0
    for number, (gap, step) in enumerate(steps):
        at += gap
        sim.run(until=at)
        if step != "read":
            packet = FakeFrame(name=number, byte_length=step)
            assert pipe.send(packet) == model.send(at, packet)
        same_counters()
    sim.run()
    same_counters()
    assert delivered == model.deliveries()
    assert pipe.queue_depth == 0 and len(pipe._train._items) == 0


class TestWiredLink:
    def test_bidirectional(self, sim):
        a, b = Sink(), Sink()
        link = WiredLink(sim, a, b, 100.0, usec(10))
        link.sender_for(a)(FakeFrame("to-b"))
        link.sender_for(b)(FakeFrame("to-a"))
        sim.run()
        assert b.received[0].name == "to-b"
        assert a.received[0].name == "to-a"

    def test_foreign_endpoint_rejected(self, sim):
        a, b, c = Sink(), Sink(), Sink()
        link = WiredLink(sim, a, b, 100.0, 0)
        with pytest.raises(ValueError):
            link.sender_for(c)

    def test_sender_for_is_the_pipe_leaving_that_end(self, sim):
        a, b = Sink(), Sink()
        link = WiredLink(sim, a, b, 100.0, usec(10))
        to_b, to_a = link.sender_for(a), link.sender_for(b)
        assert to_b(FakeFrame("to-b")) and to_a(FakeFrame("to-a"))
        sim.run()
        assert [p.name for p in b.received] == ["to-b"]
        assert [p.name for p in a.received] == ["to-a"]

    def test_pipes_accessor(self, sim):
        a, b = Sink(), Sink()
        link = WiredLink(sim, a, b, 100.0, 0)
        ab, ba = pipes(link)
        link.sender_for(a)(FakeFrame())
        sim.run()
        assert packets_sent(ab) == 1
        assert packets_sent(ba) == 0
