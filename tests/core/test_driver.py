"""HackDriver unit tests: policy routing, buffering, flush transitions.

These use a fake MAC so each driver rule can be exercised in isolation;
the end-to-end loss scenarios of Figs 5-8 live in test_loss_recovery.
"""

from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.driver import HackDriver, ppdu_flags
from repro.core.policies import HackConfig, HackPolicy
from repro.mac.frames import AmpduFrame, DataFrame, Mpdu
from repro.rohc.packets import parse_frame
from repro.sim.engine import Simulator
from repro.sim.units import msec, usec
from repro.tcp.segment import FiveTuple, TcpSegment

FT = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)


class FakeMac:
    def __init__(self):
        self.upper = None
        self.queues = {}
        self.enqueued = []

    def enqueue(self, payload, dst):
        self.queues.setdefault(dst, deque()).append(payload)
        self.enqueued.append((payload, dst))
        return True

    def remove_from_queue(self, dst, predicate):
        queue = self.queues.get(dst, deque())
        kept, removed = deque(), []
        for item in queue:
            (removed if predicate(item) else kept).append(item)
        self.queues[dst] = kept
        return removed


class FakeNode:
    def __init__(self):
        self.received = []

    def on_packets_received(self, packets, sender):
        self.received.extend((packet, sender) for packet in packets)


def tcp_ack(ack_no, ts=10, flow_id=1):
    return TcpSegment(flow_id=flow_id, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack_no, rwnd=65535,
                      ts_val=ts, ts_ecr=ts - 1, five_tuple=FT)


def tcp_data(seq):
    return TcpSegment(flow_id=1, src="SRV", dst="C1", seq=seq,
                      payload_bytes=1460, ack=0, rwnd=0,
                      five_tuple=FT.reversed())


def make_driver(policy=HackPolicy.MORE_DATA, **cfg_kw):
    sim = Simulator()
    mac = FakeMac()
    config = HackConfig.for_policy(policy)
    for key, value in cfg_kw.items():
        setattr(config, key, value)
    driver = HackDriver(sim, mac, config, node=FakeNode())
    return sim, mac, driver


def data_ppdu(seqs, more_data=True, sync=False, batch=True):
    mpdus = [Mpdu(src="AP", dst="C1", seq=s, payload=tcp_data(s * 1460),
                  more_data=more_data, sync=sync) for s in seqs]
    if batch:
        return AmpduFrame(mpdus=mpdus, rate_mbps=150.0), mpdus
    return DataFrame(mpdu=mpdus[0], rate_mbps=54.0), mpdus


class TestVanillaPolicy:
    def test_everything_goes_to_queue(self):
        _, mac, driver = make_driver(HackPolicy.VANILLA)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_data(0), "AP")
        assert len(mac.enqueued) == 2

    def test_no_payload_offered(self):
        _, _, driver = make_driver(HackPolicy.VANILLA)
        assert driver.hack_payload_for("AP") is None


class TestMoreDataPolicy:
    def latch(self, driver, more=True):
        frame, mpdus = data_ppdu([0, 1], more_data=more)
        driver.on_data_ppdu(frame, "AP", mpdus)

    def test_first_ack_always_vanilla(self):
        _, mac, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")
        assert len(mac.enqueued) == 1  # context init rides vanilla
        assert driver.stats.vanilla_acks_sent == 1

    def test_latched_acks_compressed(self):
        _, mac, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        driver.send_packet(tcp_ack(5840), "AP")
        assert len(mac.enqueued) == 1
        payload = driver.hack_payload_for("AP")
        assert payload is not None
        _, entries = parse_frame(payload)
        assert len(entries) == 2

    def test_unlatched_acks_vanilla(self):
        _, mac, driver = make_driver()
        self.latch(driver, more=False)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        assert len(mac.enqueued) == 2

    def test_data_never_compressed(self):
        _, mac, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_data(0), "AP")
        assert len(mac.enqueued) == 1

    def test_payload_retained_until_confirmed(self):
        _, _, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        first = driver.hack_payload_for("AP")
        response = object()
        driver.on_ll_response_tx("AP", response, first)
        # Not yet confirmed: the same entries ride again.
        assert driver.hack_payload_for("AP") == first

    def test_new_batch_confirms(self):
        _, _, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        payload = driver.hack_payload_for("AP")
        driver.on_ll_response_tx("AP", object(), payload)
        self.latch(driver)  # any new A-MPDU confirms (Fig 5a)
        assert driver.hack_payload_for("AP") is None
        assert driver.stats.entries_confirmed == 1

    def test_sync_bit_blocks_confirmation(self):
        _, _, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        payload = driver.hack_payload_for("AP")
        driver.on_ll_response_tx("AP", object(), payload)
        frame, mpdus = data_ppdu([2, 3], more_data=True, sync=True)
        driver.on_data_ppdu(frame, "AP", mpdus)  # Fig 8
        assert driver.hack_payload_for("AP") == payload
        assert driver.stats.sync_events == 1

    def test_unlatch_flushes_after_last_ride(self):
        _, _, driver = make_driver()
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        # Final batch: MORE DATA clear (Fig 2 / Fig 7).
        self.latch(driver, more=False)
        payload = driver.hack_payload_for("AP")
        assert payload is not None  # last ride
        driver.on_ll_response_tx("AP", object(), payload)
        assert driver.hack_payload_for("AP") is None
        assert driver.stats.unlatch_flushes == 1

    def test_singleton_higher_seq_confirms(self):
        _, _, driver = make_driver()
        frame, mpdus = data_ppdu([0], batch=False)
        driver.on_data_ppdu(frame, "AP", mpdus)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        payload = driver.hack_payload_for("AP")
        driver.on_ll_response_tx("AP", object(), payload)
        # Retransmission (same seq) does NOT confirm (Fig 5b).
        frame2, mpdus2 = data_ppdu([0], batch=False)
        driver.on_data_ppdu(frame2, "AP", mpdus2)
        assert driver.hack_payload_for("AP") == payload
        driver.on_ll_response_tx("AP", object(), payload)
        # Higher sequence number confirms.
        frame3, mpdus3 = data_ppdu([1], batch=False)
        driver.on_data_ppdu(frame3, "AP", mpdus3)
        assert driver.hack_payload_for("AP") is None

    def test_buffer_overflow_flushes_vanilla(self):
        _, mac, driver = make_driver(max_buffered=4)
        self.latch(driver)
        driver.send_packet(tcp_ack(1460), "AP")  # vanilla init
        for i in range(6):
            driver.send_packet(tcp_ack(2920 + i * 1460), "AP")
        assert driver.stats.overflow_flushes == 1
        # 1 init + 4 flushed entries re-sent vanilla.
        assert len(mac.enqueued) == 5


class TestOpportunisticPolicy:
    def test_acks_queue_normally(self):
        _, mac, driver = make_driver(HackPolicy.OPPORTUNISTIC)
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        assert len(mac.enqueued) == 2

    def test_queued_acks_pulled_at_response_time(self):
        _, mac, driver = make_driver(HackPolicy.OPPORTUNISTIC)
        driver.send_packet(tcp_ack(1460), "AP")  # establishes context
        mac.queues["AP"].popleft()               # ...and "transmits"
        driver.send_packet(tcp_ack(2920), "AP")
        driver.send_packet(tcp_ack(4380), "AP")
        payload = driver.hack_payload_for("AP")
        assert payload is not None
        _, entries = parse_frame(payload)
        assert len(entries) == 2
        assert len(mac.queues["AP"]) == 0  # yanked from the queue

    def test_uninitialised_flows_left_queued(self):
        _, mac, driver = make_driver(HackPolicy.OPPORTUNISTIC)
        driver.send_packet(tcp_ack(1460), "AP")  # still in queue: the
        # context needs one vanilla delivery, so it must not be pulled.
        assert driver.hack_payload_for("AP") is None
        assert len(mac.queues["AP"]) == 1


class TestExplicitTimerPolicy:
    def test_flush_fires_after_delay(self):
        sim, mac, driver = make_driver(HackPolicy.EXPLICIT_TIMER,
                                       flush_after_ns=msec(5))
        driver.send_packet(tcp_ack(1460), "AP")  # vanilla init
        driver.send_packet(tcp_ack(2920), "AP")  # compressed + timer
        assert len(mac.enqueued) == 1
        sim.run(until=msec(6))
        assert driver.stats.timer_flushes == 1
        assert len(mac.enqueued) == 2  # flushed vanilla
        assert driver.hack_payload_for("AP") is None

    def test_ride_before_timer_cancels_nothing_but_confirm_does(self):
        sim, mac, driver = make_driver(HackPolicy.EXPLICIT_TIMER,
                                       flush_after_ns=msec(5))
        driver.send_packet(tcp_ack(1460), "AP")
        driver.send_packet(tcp_ack(2920), "AP")
        payload = driver.hack_payload_for("AP")
        driver.on_ll_response_tx("AP", object(), payload)
        frame, mpdus = data_ppdu([5, 6])
        driver.on_data_ppdu(frame, "AP", mpdus)  # confirmed
        sim.run(until=msec(6))
        assert driver.stats.timer_flushes == 0
        assert len(mac.enqueued) == 1


class TestDecompressionPath:
    def test_ll_ack_payload_reinjected(self):
        _, mac, driver = make_driver()
        # Peer context: snoop a vanilla ACK arriving as an MPDU.
        mpdu = Mpdu(src="C1", dst="AP", seq=0, payload=tcp_ack(1460))
        driver.on_mpdus_delivered([mpdu], "C1")
        # Build a frame as the peer would.
        peer_sim, peer_mac, peer_driver = make_driver()
        frame, mpdus = data_ppdu([0, 1])
        peer_driver.on_data_ppdu(frame, "C1", mpdus)
        peer_driver.send_packet(tcp_ack(1460), "C1")
        peer_driver.send_packet(tcp_ack(2920), "C1")
        payload = peer_driver.hack_payload_for("C1")

        class Response:
            hack_payload = payload

        driver.on_ll_ack_rx(Response(), "C1")
        assert driver.stats.acks_reinjected == 1
        reinjected = driver.node.received[-1][0]
        assert reinjected.ack == 2920
        assert reinjected.is_pure_ack


class TestPpduFlags:
    """The driver's one pass over a PPDU's MPDUs reads what the three
    passes it replaced read: ``any`` SYNC, ``any`` MORE DATA, ``max``
    sequence number."""

    @settings(max_examples=200, deadline=None)
    @given(flags=st.lists(st.tuples(st.integers(-3, 200), st.booleans(),
                                    st.booleans()),
                          min_size=1, max_size=64))
    def test_same_flags(self, flags):
        mpdus = [Mpdu(src="AP", dst="C1", seq=seq, payload=tcp_data(0),
                      more_data=more, sync=sync)
                 for seq, sync, more in flags]
        assert ppdu_flags(mpdus) == (any(m.sync for m in mpdus),
                                     any(m.more_data for m in mpdus),
                                     max(m.seq for m in mpdus))
