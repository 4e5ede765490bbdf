"""MediumTracer and fairness metrics."""

import pytest

from repro.mac.frames import AckFrame, AmpduFrame, BlockAckFrame, \
    DataFrame, Mpdu
from repro.sim.medium import Medium
from repro.sim.units import usec
from repro.stats.fairness import goodput_fairness, jain_index
from repro.stats.trace import MediumTracer

from tests.helpers import FakePayload, RecordingListener, schedule_at


def data_frame(src="AP", dst="C1", more=False):
    mpdu = Mpdu(src=src, dst=dst, seq=0, payload=FakePayload(1500),
                more_data=more)
    return DataFrame(mpdu=mpdu, rate_mbps=54.0)


class TestTracer:
    def build(self, sim):
        medium = Medium(sim)
        a = RecordingListener(sim, "a")
        b = RecordingListener(sim, "b")
        a.address, b.address = "AP", "C1"
        medium.attach(a)
        medium.attach(b)
        return medium, a, b

    def test_records_transmissions(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer({0: medium})
        medium.transmit(a, data_frame(), usec(100))
        sim.run()
        assert len(tracer.records) == 1
        record = tracer.records[0]
        assert record.frame_type == "data"
        assert record.src == "AP" and record.dst == "C1"
        assert record.duration_ns == usec(100)
        assert not record.collided

    def test_classification(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer({0: medium})
        frames = [
            data_frame(),
            AmpduFrame(mpdus=[Mpdu(src="AP", dst="C1", seq=1,
                                   payload=FakePayload(100))],
                       rate_mbps=150.0),
            AckFrame(src="C1", dst="AP", acked_seq=0),
            BlockAckFrame(src="C1", dst="AP", win_start=0,
                          acked_seqs=frozenset(), hack_payload=b"xyz"),
        ]
        start = 0
        for frame in frames:
            schedule_at(sim, start,
                            lambda f=frame: medium.transmit(a, f,
                                                            usec(10)))
            start += usec(20)
        sim.run()
        types = [r.frame_type for r in tracer.records]
        assert types == ["data", "ampdu", "ack", "block_ack"]
        assert tracer.records[3].hack_payload_bytes == 3
        assert sum(r.hack_payload_bytes > 0 for r in tracer.records) == 1

    def test_collision_flag(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer({0: medium})
        medium.transmit(a, data_frame(), usec(100))
        medium.transmit(b, data_frame(src="C1", dst="AP"), usec(50))
        sim.run()
        assert [r.collided for r in tracer.records] == [True, True]

    def test_record_cap(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer({0: medium}, max_records=2)
        for i in range(4):
            schedule_at(sim, i * usec(20),
                            lambda: medium.transmit(a, data_frame(),
                                                    usec(10)))
        sim.run()
        assert len(tracer.records) == 2
        assert tracer.dropped == 2


class TestJain:
    def test_perfectly_fair(self):
        assert jain_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_one_hog(self):
        assert jain_index([30.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_goodput_fairness_skips_udp_pseudoflows(self):
        # Negative ids are UDP sinks in ScenarioResult.
        assert goodput_fairness({1: 10.0, 2: 10.0, -1: 99.0}) == \
            pytest.approx(1.0)


class TestScenarioFairness:
    def test_multi_client_fairness(self):
        from repro import HackPolicy, ScenarioConfig, run_scenario
        from repro.sim.units import MS, SEC
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=3,
            policy=HackPolicy.MORE_DATA, duration_ns=2 * SEC,
            warmup_ns=1 * SEC, stagger_ns=50 * MS))
        assert res.fairness_index > 0.9

