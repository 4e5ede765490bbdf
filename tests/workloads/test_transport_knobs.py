"""Scenario-level transport & queue knobs: cc, pacing,
queue_discipline, the always-present "aqm" metrics block, and the new
registry entries."""

import pytest

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.sim.units import MS
from repro.workloads import registry


def quick(**kw):
    defaults = dict(phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
                    traffic="tcp_download", policy=HackPolicy.MORE_DATA,
                    duration_ns=1000 * MS, warmup_ns=400 * MS,
                    stagger_ns=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestAqmMetricsBlock:
    def test_always_present_with_defaults(self):
        metrics = run_scenario(quick()).metrics_dict()
        aqm = metrics["aqm"]
        assert aqm["discipline"] == "droptail"
        assert aqm["drops"] == 0            # tail drops are the MAC's
        assert "marks" not in aqm           # never set, slot removed
        assert aqm["dequeued"] > 0
        # Sojourn percentiles exist for every discipline, so the CI
        # gate can compare drop-tail against CoDel.
        assert aqm["sojourn_p50_ms"] is not None
        assert aqm["sojourn_p50_ms"] <= aqm["sojourn_p99_ms"]
        assert aqm["sojourn_bins"]

    def test_discipline_reflected(self):
        res = run_scenario(quick(queue_discipline="codel"))
        assert res.metrics_dict()["aqm"]["discipline"] == "codel"


class TestTransportKnobs:
    def test_defaults_are_legacy_stack(self):
        cfg = ScenarioConfig()
        assert cfg.cc == "reno"
        assert cfg.pacing is False
        assert cfg.queue_discipline == "droptail"

    @pytest.mark.parametrize("kw", [dict(cc="cubic"),
                                    dict(pacing=True),
                                    dict(queue_discipline="codel"),
                                    dict(queue_discipline="fq_codel")])
    def test_each_knob_runs_end_to_end(self, kw):
        res = run_scenario(quick(**kw))
        assert res.aggregate_goodput_mbps > 40
        assert res.decomp_counters["crc_failures"] == 0

    def test_knobs_are_deterministic(self):
        cfg = quick(cc="cubic", pacing=True,
                    queue_discipline="fq_codel")
        assert run_scenario(cfg).metrics_dict() == \
            run_scenario(cfg).metrics_dict()


class TestTransportRegistryEntries:
    def test_registered(self):
        assert {"churn-cubic-codel", "churn-paced", "aqm-fqcodel"} <= \
            set(registry.names())

    def test_configs_match_their_story(self):
        cubic = registry.build("churn-cubic-codel")
        assert cubic.cc == "cubic"
        assert cubic.queue_discipline == "codel"
        paced = registry.build("churn-paced")
        assert paced.pacing is True
        fq = registry.build("aqm-fqcodel")
        assert fq.queue_discipline == "fq_codel"
        assert fq.udp_background_mbps == 50.0

    def test_aqm_fqcodel_runs_and_counts_sojourn(self):
        cfg = registry.build("aqm-fqcodel", duration_ns=700 * MS,
                             warmup_ns=300 * MS)
        res = run_scenario(cfg)
        aqm = res.metrics_dict()["aqm"]
        assert aqm["discipline"] == "fq_codel"
        assert aqm["dequeued"] > 0
        assert res.fct["flows_completed"] > 0
