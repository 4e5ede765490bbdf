"""Adversary determinism oracles.

The load-bearing guarantee of the whole scenario family: an *inert*
adversary plan (``intensity == 0``, whatever the kind) must install
nothing and reproduce the cooperative run bit-identically — only the
zeroed ``metrics_dict()["adversary"]`` block may differ.  Anything
less and every attacked sweep row would be incomparable with the
cooperative goldens.
"""

import dataclasses

import pytest

from repro.adversary import AdversaryConfig
from repro.core.policies import HackPolicy
from repro.sim.units import MS
from repro.workloads import registry
from repro.workloads.scenarios import ScenarioConfig, run_scenario


def base_config(**overrides):
    defaults = dict(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=300 * MS, warmup_ns=100 * MS, stagger_ns=0,
        seed=11)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def stripped(metrics):
    out = dict(metrics)
    out.pop("adversary", None)
    return out


class TestZeroIntensityOracle:
    @pytest.mark.parametrize("kind", ["greedy", "jammer", "mutator"])
    def test_inert_plan_bit_identical(self, kind):
        cooperative = run_scenario(base_config())
        attacked = run_scenario(base_config(
            adversary=AdversaryConfig(kind=kind, intensity=0.0)))
        assert stripped(attacked.metrics_dict()) \
            == stripped(cooperative.metrics_dict())

    def test_inert_plan_reports_zeroed_block(self):
        result = run_scenario(base_config(
            adversary=AdversaryConfig(kind="jammer", intensity=0.0)))
        block = result.metrics_dict()["adversary"]
        assert block["kind"] == "jammer"
        assert block["intensity"] == 0.0
        assert all(value == 0 for key, value in block.items()
                   if key not in ("kind", "intensity"))

    def test_no_adversary_means_no_block(self):
        result = run_scenario(base_config())
        metrics = result.metrics_dict()
        assert "adversary" not in metrics
        assert "rohc" in metrics  # robustness counters always present

    def test_cooperative_rohc_counters_all_zero(self):
        """The paper's Fig 11 claim, restated for the reproduction:
        no cooperative run ever exercises the containment paths."""
        result = run_scenario(base_config())
        assert all(value == 0
                   for value in result.metrics_dict()["rohc"].values())


class TestSeedReplay:
    def test_attacked_run_is_deterministic(self):
        cfg = base_config(adversary=AdversaryConfig(
            kind="mutator", intensity=0.7, mutate_mode="storm"))
        first = run_scenario(cfg).metrics_dict()
        second = run_scenario(cfg).metrics_dict()
        assert first == second

    @pytest.mark.parametrize("name", ["adv-greedy", "adv-jammer",
                                      "adv-mutator"])
    def test_registered_attack_replays_bit_identically(self, name):
        # The registry entries as registered, on a shortened window.
        cfg = registry.build(name, duration_ns=400 * MS,
                             warmup_ns=150 * MS)
        first = run_scenario(cfg).metrics_dict()
        second = run_scenario(cfg).metrics_dict()
        assert first == second
        assert any(value for key, value in first["adversary"].items()
                   if key not in ("kind", "intensity"))

    def test_attack_randomness_isolated_from_workload(self):
        """Different attack intensities draw from dedicated adversary
        RNG streams — the workload's own arrival/backoff draws differ
        only through the attack's physical effects, which keeps
        intensity grids comparable point-to-point."""
        mild = run_scenario(base_config(adversary=AdversaryConfig(
            kind="mutator", intensity=0.2))).metrics_dict()
        hot = run_scenario(base_config(adversary=AdversaryConfig(
            kind="mutator", intensity=1.0))).metrics_dict()
        assert hot["adversary"]["frames_mutated"] \
            > mild["adversary"]["frames_mutated"]


class TestConfigValidation:
    def test_valid_plans_pass(self):
        AdversaryConfig(kind="jammer").validate()
        AdversaryConfig(kind="greedy", intensity=1.0).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(kind="ddos"),
        dict(intensity=-0.1),
        dict(intensity=1.5),
        dict(mutate_mode="scramble"),
        # No attack is spelled adversary=None or intensity 0.
        dict(kind="none"),
        dict(intensity=float("nan")),
    ])
    def test_bad_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdversaryConfig(**{"kind": "jammer", **kwargs}).validate()

    def test_scenario_validation_covers_adversary(self):
        cfg = base_config(adversary=AdversaryConfig(kind="bogus"))
        with pytest.raises(ValueError):
            run_scenario(cfg)

    def test_sweep_signature_includes_plan(self):
        """Attacked points must cache separately per plan."""
        plain = dataclasses.asdict(base_config())
        attacked = dataclasses.asdict(base_config(
            adversary=AdversaryConfig(kind="jammer", intensity=0.5)))
        assert plain != attacked
        assert attacked["adversary"]["kind"] == "jammer"
