"""TS_ECHO policy (§5 future work): echo-driven ACK deferral."""

from collections import deque

import pytest

from repro.core.driver import HackDriver
from repro.core.policies import HackConfig, HackPolicy
from repro.mac.frames import AmpduFrame, Mpdu
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC, msec
from repro.tcp.segment import FiveTuple, TcpSegment

FT = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)


class FakeMac:
    def __init__(self):
        self.upper = None
        self.enqueued = []

    def enqueue(self, payload, dst):
        self.enqueued.append(payload)
        return True

    def remove_from_queue(self, dst, predicate):
        return []


class FakeNode:
    def __init__(self):
        self.received = []

    def on_packets_received(self, packets, sender):
        self.received.extend(packets)


def make_driver(sim=None, stall_guard=msec(50)):
    sim = sim or Simulator()
    config = HackConfig.for_policy(HackPolicy.TS_ECHO)
    config.stall_guard_ns = stall_guard
    driver = HackDriver(sim, FakeMac(), config, node=FakeNode())
    return sim, driver


def tcp_ack(ack_no, ts_val):
    return TcpSegment(flow_id=1, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack_no, rwnd=65535,
                      ts_val=ts_val, ts_ecr=ts_val - 1, five_tuple=FT)


def deliver_data(driver, seq, ts_ecr):
    data = TcpSegment(flow_id=1, src="SRV", dst="C1", seq=seq,
                      payload_bytes=1460, ack=0, rwnd=0, ts_val=0,
                      ts_ecr=ts_ecr, five_tuple=FT.reversed())
    mpdu = Mpdu(src="AP", dst="C1", seq=seq // 1460, payload=data)
    driver.on_mpdus_delivered([mpdu], "AP")
    return data


class TestEchoDeferral:
    def test_first_ack_vanilla(self):
        _, driver = make_driver()
        driver.send_packet(tcp_ack(1460, ts_val=10), "AP")
        assert len(driver.mac.enqueued) == 1

    def test_ack_deferred_while_echo_outstanding(self):
        _, driver = make_driver()
        driver.send_packet(tcp_ack(1460, ts_val=10), "AP")  # vanilla
        # No echo for ts 10 yet: the next ACK defers.
        driver.send_packet(tcp_ack(2920, ts_val=11), "AP")
        assert len(driver.mac.enqueued) == 1
        assert driver.hack_payload_for("AP") is not None

    def test_echo_catchup_goes_vanilla(self):
        _, driver = make_driver()
        driver.send_packet(tcp_ack(1460, ts_val=10), "AP")
        deliver_data(driver, 0, ts_ecr=10)  # echo of our newest ACK
        # Caught up: the next ACK may find the sender idle -> vanilla.
        driver.send_packet(tcp_ack(2920, ts_val=11), "AP")
        assert len(driver.mac.enqueued) == 2

    def test_stale_echo_does_not_catch_up(self):
        _, driver = make_driver()
        driver.send_packet(tcp_ack(1460, ts_val=10), "AP")
        driver.send_packet(tcp_ack(2920, ts_val=12), "AP")  # deferred
        deliver_data(driver, 0, ts_ecr=10)  # echoes the OLD ACK only
        driver.send_packet(tcp_ack(4380, ts_val=13), "AP")
        # Still outstanding (12 > 10): keeps deferring.
        assert len(driver.mac.enqueued) == 1

    def test_catchup_flushes_buffer_vanilla(self):
        _, driver = make_driver()
        driver.send_packet(tcp_ack(1460, ts_val=10), "AP")
        driver.send_packet(tcp_ack(2920, ts_val=12), "AP")  # deferred
        deliver_data(driver, 0, ts_ecr=12)  # echo catches right up
        assert driver.stats.echo_flushes == 1
        # The deferred ACK was re-sent vanilla.
        assert len(driver.mac.enqueued) == 2
        assert driver.hack_payload_for("AP") is None

    def test_ignores_more_data_bit(self):
        _, driver = make_driver()
        mpdus = [Mpdu(src="AP", dst="C1", seq=0,
                      payload=deliver_data(make_driver()[1], 0, 0),
                      more_data=False)]
        frame = AmpduFrame(mpdus=mpdus, rate_mbps=150.0)
        driver.on_data_ppdu(frame, "AP", mpdus)
        ps = driver.peer("AP")
        assert not ps.flush_after_response  # MORE DATA logic inert


class TestStallGuard:
    def test_guard_flushes_deadlocked_acks(self):
        sim, driver = make_driver(stall_guard=msec(20))
        driver.send_packet(tcp_ack(1460, ts_val=10), "AP")
        driver.send_packet(tcp_ack(2920, ts_val=12), "AP")  # deferred
        # No data ever arrives (the sender is window-limited and
        # waiting for exactly this ACK): the guard must fire.
        sim.run(until=msec(25))
        assert driver.stats.stall_guard_flushes == 1
        assert len(driver.mac.enqueued) == 2

    def test_preset_has_guard(self):
        config = HackConfig.for_policy(HackPolicy.TS_ECHO)
        assert config.stall_guard_ns is not None


class TestEndToEnd:
    def test_download_with_ts_echo(self):
        from repro import ScenarioConfig, run_scenario
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0,
            traffic="tcp_download", policy=HackPolicy.TS_ECHO,
            duration_ns=1500 * MS, warmup_ns=700 * MS, stagger_ns=0))
        assert res.aggregate_goodput_mbps > 100
        assert res.driver_metrics["C1"]["hack_frames_attached"] > 0
        assert res.decomp_counters["crc_failures"] == 0
        assert all(c["timeouts"] == 0
                   for c in res.sender_counters.values())

    def test_ts_echo_competitive_with_more_data(self):
        from repro import ScenarioConfig, run_scenario

        def goodput(policy):
            return run_scenario(ScenarioConfig(
                phy_mode="11n", data_rate_mbps=150.0,
                traffic="tcp_download", policy=policy,
                duration_ns=1500 * MS, warmup_ns=700 * MS,
                stagger_ns=0)).aggregate_goodput_mbps

        assert goodput(HackPolicy.TS_ECHO) > \
            0.9 * goodput(HackPolicy.MORE_DATA)
