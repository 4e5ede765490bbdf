"""Scenario-registry tests: lookups, overrides, errors, sweep bridge."""

import pytest

from repro.core.policies import HackPolicy
from repro.obs.metrics import digest
from repro.sim.units import MS
from repro.workloads import UnknownScenarioError, registry
from repro.workloads.scenarios import ScenarioConfig, run_scenario

from tests.helpers import spec_keys


class TestLookup:
    def test_builtin_scenarios_registered(self):
        assert {"quickstart", "lossy-link", "multi-client",
                "wireless-backup", "sora-testbed"} <= \
            set(registry.names())

    def test_get_returns_described_entry(self):
        entry = registry.get("quickstart")
        assert entry.name == "quickstart"
        assert "150 Mbps" in entry.description

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(UnknownScenarioError) as err:
            registry.get("quickstrt")
        assert "quickstart" in str(err.value)
        assert err.value.suggestions == ["quickstart"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(UnknownScenarioError, match="multi-client"):
            registry.get("zzz-not-a-scenario")

    def test_describe_all_is_sorted(self):
        names = [e["name"] for e in registry.describe_all()]
        assert names == sorted(names)


class TestBuild:
    def test_build_mirrors_example(self):
        config = registry.build("multi-client")
        assert isinstance(config, ScenarioConfig)
        assert config.n_clients == 4
        assert config.phy_mode == "11n"
        assert config.policy is HackPolicy.MORE_DATA

    def test_build_applies_seed_and_overrides(self):
        config = registry.build("quickstart", seed=7,
                                policy=HackPolicy.VANILLA,
                                n_clients=3)
        assert config.seed == 7
        assert config.policy is HackPolicy.VANILLA
        assert config.n_clients == 3

    def test_build_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="unknown config fields"):
            registry.build("quickstart", bogus_field=1)

    def test_factories_return_fresh_configs(self):
        a = registry.build("wireless-backup")
        b = registry.build("wireless-backup")
        assert a is not b
        assert a.traffic == "tcp_upload"
        assert a.file_bytes == b.file_bytes == 20_000_000

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("quickstart", "dup")(
                lambda: ScenarioConfig())


class TestSweepBridge:
    def test_sweep_spec_expands_seeds(self):
        spec = registry.sweep_spec("lossy-link", seeds=(1, 2, 3))
        assert spec.name == "scenario:lossy-link"
        assert len(spec.points) == 3
        assert spec_keys(spec) == [("lossy-link",)]
        assert [p.config.seed for p in spec.points] == [1, 2, 3]

    def test_sweep_spec_applies_overrides(self):
        spec = registry.sweep_spec("quickstart", seeds=(1,),
                                   n_clients=2)
        assert spec.points[0].config.n_clients == 2


#: Every registered ``X`` / ``X-vanilla`` pair.
TWINS = [(name[:-len("-vanilla")], name) for name in registry.names()
         if name.endswith("-vanilla")]


class TestVanillaTwins:
    def test_twins_exist(self):
        assert TWINS == [("multi-ap", "multi-ap-vanilla")]

    @pytest.mark.parametrize("hack, stock", TWINS)
    def test_a_twin_simulates_something_else(self, hack, stock):
        """A ``-vanilla`` twin earns its registry entry only if its
        record differs from its HACK scenario's: where MORE DATA
        compresses nothing the two are one run (``--policy vanilla``
        is the baseline)."""
        short = dict(duration_ns=600 * MS, warmup_ns=300 * MS)
        records = [run_scenario(registry.build(name, **short)).record()
                   for name in (hack, stock)]
        assert digest(records[0]) != digest(records[1])
