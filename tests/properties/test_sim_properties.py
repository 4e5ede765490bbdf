"""Property-based tests for the simulation substrate."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.tcp.receiver import TcpReceiver
from repro.tcp.segment import TcpSegment

from tests.helpers import FakeFrame, RecordingListener, schedule_at

MSS = 1460


class TestEngineProperties:
    @settings(max_examples=100)
    @given(delays=st.lists(st.integers(0, 10**6), min_size=1,
                           max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=50)
    @given(delays=st.lists(st.integers(1, 1000), min_size=1,
                           max_size=30),
           horizon=st.integers(1, 1000))
    def test_horizon_respected(self, delays, horizon):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(until=horizon)
        assert all(d < horizon for d in fired)
        assert sim.now == horizon


class TestMediumProperties:
    @settings(max_examples=100, deadline=None)
    @given(txs=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(1, 500)),
        min_size=1, max_size=12))
    def test_collision_iff_overlap(self, txs):
        """Every frame is delivered intact to the idle observer iff no
        other transmission overlapped it in time."""
        sim = Simulator()
        medium = Medium(sim)
        senders = [RecordingListener(sim, f"s{i}")
                   for i in range(len(txs))]
        observer = RecordingListener(sim, "observer")
        for node in senders + [observer]:
            medium.attach(node)
        frames = []
        for i, (start, duration) in enumerate(txs):
            frame = FakeFrame(f"f{i}")
            frames.append((frame, start, start + duration))
            schedule_at(sim, start,
                            lambda s=senders[i], f=frame, d=duration:
                            medium.transmit(s, f, d))
        sim.run()
        received = {e[2].name for e in observer.of_kind("rx")}
        errored = {e[2].name for e in observer.of_kind("err")}
        for i, (frame, start, end) in enumerate(frames):
            overlaps = any(
                s2 < end and start < e2
                for j, (_, s2, e2) in enumerate(frames) if j != i)
            if overlaps:
                assert frame.name in errored
            else:
                assert frame.name in received
        assert received | errored == {f.name for f, _, _ in frames}


class TestReceiverProperties:
    @settings(max_examples=100, deadline=None)
    @given(perm=st.permutations(list(range(12))))
    def test_delivery_complete_under_any_reordering(self, perm):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(sim, 1, "C1", "SRV", output=acks.append)
        for index in perm:
            receiver.on_segment(TcpSegment(
                flow_id=1, src="SRV", dst="C1", seq=index * MSS,
                payload_bytes=MSS, ack=0, rwnd=0, ts_val=1))
        sim.run()
        assert receiver.rcv_nxt == 12 * MSS
        assert receiver.bytes_delivered == 12 * MSS
        assert acks and acks[-1].ack == 12 * MSS

    @settings(max_examples=50, deadline=None)
    @given(dups=st.lists(st.integers(0, 7), min_size=8, max_size=40))
    def test_duplicates_never_inflate_delivery(self, dups):
        sim = Simulator()
        receiver = TcpReceiver(sim, 1, "C1", "SRV",
                               output=lambda a: None)
        # Guarantee every segment 0..7 arrives at least once.
        for index in list(range(8)) + dups:
            receiver.on_segment(TcpSegment(
                flow_id=1, src="SRV", dst="C1", seq=index * MSS,
                payload_bytes=MSS, ack=0, rwnd=0, ts_val=1))
        assert receiver.bytes_delivered == 8 * MSS
