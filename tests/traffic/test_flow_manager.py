"""FlowManager lifecycle: creation, teardown, state reclamation."""

import pytest

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.sim.units import MS, SEC
from repro.tcp.segment import FiveTuple, TcpSegment
from repro.rohc.compressor import Compressor
from repro.rohc.decompressor import Decompressor
from repro.rohc.context import cid_for_flow
from repro.traffic import ArrivalSpec, SizeSpec


def churn_config(**overrides):
    base = dict(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
        traffic="dynamic", policy=HackPolicy.MORE_DATA,
        arrivals=ArrivalSpec(
            kind="trace",
            trace=((0.0, 0, 200_000), (20.0, 1, 100_000),
                   (50.0, 0, 50_000))),
        duration_ns=800 * MS, warmup_ns=400 * MS, stagger_ns=0)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestLifecycle:
    def test_flows_complete_and_are_torn_down(self):
        res = run_scenario(churn_config())
        manager = res.world.traffic_manager
        assert manager.flows_spawned == 3
        assert manager.flows_completed == 3
        assert manager.live == {}
        # Endpoint maps are empty again: state was reclaimed.
        assert res.world.clients["C1"].receivers == {}
        assert res.world.clients["C2"].receivers == {}
        assert res.fct["flows_completed"] == 3
        assert res.fct["flows_censored"] == 0
        for record in res.fct["flows"]:
            assert record["completed"]
            assert record["bytes_delivered"] == record["size_bytes"]
            assert record["fct_ms"] > 0

    def test_censored_flow_keeps_partial_bytes(self):
        res = run_scenario(churn_config(
            arrivals=ArrivalSpec(
                kind="trace", trace=((0.0, 0, 50_000_000),)),
            duration_ns=300 * MS, warmup_ns=100 * MS))
        assert res.fct["flows_completed"] == 0
        assert res.fct["flows_censored"] == 1
        record = res.fct["flows"][0]
        assert not record["completed"]
        assert 0 < record["bytes_delivered"] < 50_000_000
        assert res.fct["fct_ms"]["flows"] == 0   # zero-count block
        # Still live at run end, so nothing was reclaimed yet.
        assert len(res.world.traffic_manager.live) == 1
        assert res.fct["carried_load_mbps"] < \
            res.fct["offered_load_mbps"]

    def test_upload_direction(self):
        res = run_scenario(churn_config(
            arrivals=ArrivalSpec(
                kind="trace", direction="upload",
                trace=((0.0, 0, 100_000), (10.0, 1, 100_000)))))
        assert res.fct["flows_completed"] == 2
        assert res.world.clients["C1"].senders == {}
        # The server-side receiver map was reclaimed too.
        assert res.world.traffic_manager.server.receivers == {}

    def test_hack_contexts_released_after_churn(self):
        res = run_scenario(churn_config(
            arrivals=ArrivalSpec(
                kind="poisson", rate_per_s=60.0,
                size=SizeSpec(kind="fixed", bytes=30_000)),
            duration_ns=1 * SEC))
        assert res.fct["flows_completed"] > 20
        live = len(res.world.traffic_manager.live)
        for driver in res.world.drivers.values():
            for ps in driver._peers.values():
                assert len(ps.compressor.contexts) <= live
                assert len(ps.decompressor.contexts) <= live

    def test_spawn_rejects_bad_size(self):
        res = run_scenario(churn_config())
        with pytest.raises(ValueError, match="size must be positive"):
            res.world.traffic_manager.spawn(0, "C1")

    def test_dynamic_requires_arrivals(self):
        with pytest.raises(ValueError, match="requires an ArrivalSpec"):
            run_scenario(churn_config(arrivals=None))

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic"):
            run_scenario(churn_config(traffic="carrier-pigeon"))


def _ack(five_tuple, ack=1000, flow_id=1):
    return TcpSegment(flow_id=flow_id, src="C1", dst="SRV", seq=0,
                      payload_bytes=0, ack=ack, rwnd=65535,
                      ts_val=1, ts_ecr=1, five_tuple=five_tuple)


class TestRohcRelease:
    def test_release_frees_cid_for_reuse(self):
        comp = Compressor(init_threshold=1)
        tup = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)
        comp.note_vanilla_ack(_ack(tup))
        assert comp.can_compress(_ack(tup, ack=2000))
        assert comp.release_flow(tup)
        assert not comp.can_compress(_ack(tup, ack=3000))
        assert cid_for_flow(tup) not in comp.contexts

    def test_release_unblocks_collided_flow(self):
        comp = Compressor(init_threshold=1)
        base = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)
        collider = None
        for port in range(5002, 20_000):
            candidate = FiveTuple("10.0.0.1", "10.0.1.1", port, 80)
            if cid_for_flow(candidate) == cid_for_flow(base):
                collider = candidate
                break
        assert collider is not None, "no CID collision in port range"
        comp.note_vanilla_ack(_ack(base))
        # The collider hashes onto base's CID: blocked.
        comp.note_vanilla_ack(_ack(collider, flow_id=2))
        assert not comp.can_compress(_ack(collider, ack=9000,
                                          flow_id=2))
        # Releasing only the *owner* (what FlowManager does when base
        # completes while the collider is still alive) must lift the
        # collider's block: its next vanilla ACK claims the CID.
        assert comp.release_flow(base)
        comp.note_vanilla_ack(_ack(collider, flow_id=2))
        assert comp.can_compress(_ack(collider, ack=9000, flow_id=2))

    def test_release_missing_flow_is_noop(self):
        comp = Compressor()
        tup = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)
        assert comp.release_flow(tup) is False
        decomp = Decompressor()
        assert decomp.release_flow(tup) is False

    def test_decompressor_release_only_drops_owner(self):
        decomp = Decompressor()
        tup = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 80)
        other = FiveTuple("10.0.0.1", "10.0.1.2", 5002, 80)
        decomp.note_vanilla_ack(_ack(tup))
        assert decomp.release_flow(other) is False or \
            cid_for_flow(other) != cid_for_flow(tup)
        assert decomp.release_flow(tup) is True
        assert decomp.contexts == {}
