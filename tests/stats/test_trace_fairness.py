"""MediumTracer and fairness metrics."""

import pytest

from repro.mac.frames import AckFrame, AmpduFrame, BlockAckFrame, \
    DataFrame, Mpdu
from repro.obs import TelemetryConfig
from repro.sim.medium import Medium
from repro.sim.units import usec
from repro.stats.fairness import airtime_shares, goodput_fairness, \
    jain_index
from repro.stats.trace import MediumTracer

from tests.helpers import FakePayload, RecordingListener


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
        tracer = MediumTracer(medium)
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
        tracer = MediumTracer(medium)
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
            sim.schedule_at(start,
                            lambda f=frame: medium.transmit(a, f,
                                                            usec(10)))
            start += usec(20)
        sim.run()
        types = [r.frame_type for r in tracer.records]
        assert types == ["data", "ampdu", "ack", "block_ack"]
        assert tracer.records[3].hack_payload_bytes == 3
        assert tracer.summary()["hack_frames"] == 1

    def test_collision_flag(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer(medium)
        medium.transmit(a, data_frame(), usec(100))
        medium.transmit(b, data_frame(src="C1", dst="AP"), usec(50))
        sim.run()
        assert all(r.collided for r in tracer.records)
        assert tracer.summary()["collided"] == 2

    def test_filtering(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer(medium)
        medium.transmit(a, data_frame(more=True), usec(10))
        sim.schedule(usec(20), lambda: medium.transmit(
            b, AckFrame(src="C1", dst="AP", acked_seq=0), usec(5)))
        sim.run()
        assert len(tracer.filter(frame_type="data")) == 1
        assert len(tracer.filter(src="C1")) == 1
        assert len(tracer.filter(
            predicate=lambda r: r.more_data)) == 1

    def test_response_gap_measurement(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer(medium)
        medium.transmit(a, data_frame(), usec(100))
        sim.schedule(usec(116), lambda: medium.transmit(
            b, AckFrame(src="C1", dst="AP", acked_seq=0), usec(28)))
        sim.run()
        assert tracer.response_gaps_ns() == [usec(16)]

    def test_airtime_by_station(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer(medium)
        medium.transmit(a, data_frame(), usec(100))
        sim.schedule(usec(200), lambda: medium.transmit(
            b, AckFrame(src="C1", dst="AP", acked_seq=0), usec(30)))
        sim.run()
        airtime = tracer.airtime_by_station()
        assert airtime == {"AP": usec(100), "C1": usec(30)}

    def test_record_cap(self, sim):
        medium, a, b = self.build(sim)
        tracer = MediumTracer(medium, max_records=2)
        for i in range(4):
            sim.schedule_at(i * usec(20),
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


class TestAirtimeShares:
    def test_normalisation(self):
        shares = airtime_shares({"AP": 750, "C1": 250})
        assert shares == {"AP": 0.75, "C1": 0.25}

    def test_exclude(self):
        shares = airtime_shares({"AP": 800, "C1": 100, "C2": 100},
                                exclude=("AP",))
        assert shares == {"C1": 0.5, "C2": 0.5}

    def test_zero_total(self):
        assert airtime_shares({"AP": 0}) == {"AP": 0.0}


class TestScenarioFairness:
    def test_multi_client_fairness(self):
        from repro import HackPolicy, ScenarioConfig, run_scenario
        from repro.sim.units import MS, SEC
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=3,
            policy=HackPolicy.MORE_DATA, duration_ns=2 * SEC,
            warmup_ns=1 * SEC, stagger_ns=50 * MS))
        assert res.fairness_index > 0.9


def frame_record(tmp_path):
    """Telemetry that asks for the frame record (a Chrome-trace export,
    the one way to ask for it)."""
    return TelemetryConfig(trace_export_path=str(tmp_path / "run.json"))


class TestTimelineRendering:
    def test_render_contains_flags_and_types(self, sim, tmp_path):
        from repro import HackPolicy, ScenarioConfig, run_scenario
        from repro.sim.units import MS
        res = run_scenario(ScenarioConfig(
            duration_ns=400 * MS, warmup_ns=200 * MS,
            policy=HackPolicy.MORE_DATA, stagger_ns=0),
            telemetry=frame_record(tmp_path))
        text = res.trace.render_timeline(limit=100_000)
        assert "ampdu" in text
        assert "block_ack" in text
        # MORE DATA and HACK-payload flags appear once the queue builds.
        assert "M]" in text or "M," in text
        assert "[H" in text or ",H" in text

    def test_limit_respected(self, sim, tmp_path):
        from repro import HackPolicy, ScenarioConfig, run_scenario
        from repro.sim.units import MS
        res = run_scenario(ScenarioConfig(
            duration_ns=400 * MS, warmup_ns=200 * MS, stagger_ns=0),
            telemetry=frame_record(tmp_path))
        text = res.trace.render_timeline(limit=5)
        assert len(text.splitlines()) <= 6

    def test_window_selection(self, sim, tmp_path):
        from repro import ScenarioConfig, run_scenario
        from repro.sim.units import MS
        res = run_scenario(ScenarioConfig(
            duration_ns=400 * MS, warmup_ns=200 * MS, stagger_ns=0),
            telemetry=frame_record(tmp_path))
        early = res.trace.render_timeline(end_ns=50 * MS, limit=1000)
        late = res.trace.render_timeline(start_ns=300 * MS, limit=1000)
        assert early and late and early != late
