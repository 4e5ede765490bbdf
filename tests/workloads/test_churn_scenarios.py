"""Registry churn scenarios, UDP background knob, determinism."""

import dataclasses
import json

import pytest

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.experiments.batch import SweepRunner
from repro.obs.metrics import digest
from repro.sim.units import MS
from repro.workloads import registry

CHURN_NAMES = ("churn-poisson", "churn-web", "churn-bursty")

#: Short windows so the whole file stays CI-friendly.
QUICK = dict(duration_ns=700 * MS, warmup_ns=300 * MS)


class TestChurnRegistry:
    def test_all_registered(self):
        assert set(CHURN_NAMES) | {"udp-background"} <= \
            set(registry.names())

    @pytest.mark.parametrize("name", CHURN_NAMES)
    def test_runs_and_completes_flows(self, name):
        res = run_scenario(registry.build(name, **QUICK))
        assert res.fct is not None
        assert res.fct["flows_completed"] > 0
        for p in ("p50", "p95", "p99"):
            assert res.fct["fct_ms"][p] > 0

    @pytest.mark.parametrize("name", ("churn-poisson", "churn-web"))
    def test_hack_run_is_stock_tcp(self, name):
        """Why these have no ``-vanilla`` twin: at their registered
        load MORE DATA compresses no ACK, so the run is the stock one,
        record for record."""
        hack = registry.build(name, **QUICK)
        assert hack.policy is HackPolicy.MORE_DATA
        stock = dataclasses.replace(hack, policy=HackPolicy.VANILLA)
        assert digest(run_scenario(hack).record()) \
            == digest(run_scenario(stock).record())


class TestUdpBackground:
    def test_background_traffic_flows(self):
        res = run_scenario(registry.build("udp-background",
                                          duration_ns=1000 * MS,
                                          warmup_ns=400 * MS))
        noise = res.udp_background_goodput_mbps
        tcp = {k: v for k, v in res.per_flow_goodput_mbps.items()
               if k > 0}
        assert sorted(noise) == ["C1", "C2"]   # one source per client
        assert all(v > 1.0 for v in noise.values())
        assert len(tcp) == 2
        assert all(v > 5.0 for v in tcp.values())
        # Noise is environment, not workload: it must not inflate the
        # headline goodput (which is what HACK-vs-stock compares).
        assert not any(k < 0 for k in res.per_flow_goodput_mbps)
        assert res.aggregate_goodput_mbps == pytest.approx(
            sum(tcp.values()))
        assert 0.5 < res.fairness_index <= 1.0
        assert res.metrics_dict()[
            "udp_background_goodput_mbps"].keys() == {"C1", "C2"}

    def test_knob_composes_with_churn(self):
        cfg = registry.build("churn-poisson", udp_background_mbps=5.0,
                             **QUICK)
        res = run_scenario(cfg)
        assert res.fct["flows_completed"] > 0
        assert res.udp_background_goodput_mbps.keys() == {"C1", "C2"}

    def test_rejected_for_udp_download(self):
        with pytest.raises(ValueError, match="udp_background_mbps"):
            run_scenario(ScenarioConfig(traffic="udp_download",
                                        udp_background_mbps=5.0,
                                        **QUICK))

    def test_zero_means_off(self):
        res = run_scenario(registry.build("quickstart",
                                          **QUICK))
        assert res.udp_background_goodput_mbps == {}
        assert not any(k < 0 for k in res.per_flow_goodput_mbps)


class TestChurnDeterminism:
    """Satellite: churn rows must be bit-identical serial vs --jobs N
    and across repeated runs with the same seed."""

    def _spec(self):
        spec = registry.sweep_spec("churn-web", seeds=(1, 2),
                                   **QUICK)
        for point in registry.sweep_spec("churn-poisson", seeds=(1,),
                                         **QUICK).points:
            spec.points.append(point)
        return spec

    def test_serial_equals_parallel_and_repeat(self):
        spec = self._spec()
        serial = SweepRunner(jobs=1).run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        repeat = SweepRunner(jobs=None).run(spec)

        def canon(result):
            return json.dumps(
                [[list(r.key), r.seed, r.metrics]
                 for r in result.records], sort_keys=True)

        assert canon(serial) == canon(parallel)
        assert canon(serial) == canon(repeat)
        # Per-flow records themselves are identical, not just the
        # aggregates: per-process RNG streams are interleaving-proof.
        for rec_a, rec_b in zip(serial.records, parallel.records):
            assert rec_a.metrics["fct"]["flows"] == \
                rec_b.metrics["fct"]["flows"]
            assert rec_a.metrics["fct"]["flows_completed"] > 0

    def test_different_seeds_differ(self):
        rows = SweepRunner().run(
            registry.sweep_spec("churn-poisson", seeds=(1, 2),
                                **QUICK))
        a, b = (r.metrics["fct"]["flows"] for r in rows.records)
        assert a != b
