"""Behavioural tests for the three attack families.

Each attack must (a) visibly perturb the system in the direction its
threat model predicts, and (b) stay fully contained: every injected
fault lands in a typed counter, never an escaped exception.
"""

from repro.adversary import AdversaryConfig
from repro.core.policies import HackPolicy
from repro.sim.units import MS
from repro.workloads.scenarios import ScenarioConfig, run_scenario

from tests.workloads.test_sharding import run_whole


def config(**overrides):
    defaults = dict(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=3,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=400 * MS, warmup_ns=100 * MS, stagger_ns=0,
        seed=3)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestGreedyStation:
    def test_cheater_steals_uplink_goodput(self):
        coop = run_scenario(config(traffic="tcp_upload", n_clients=4))
        greedy = run_scenario(config(
            traffic="tcp_upload", n_clients=4,
            adversary=AdversaryConfig(kind="greedy", intensity=1.0)))
        adv = greedy.metrics_dict()["adversary"]
        assert adv["greedy_stations"] == 1
        assert adv["cheated_draws"] > 0
        # The cheating station's flow gains at honest expense.
        cheater_flow = min(greedy.per_flow_goodput_mbps)
        assert greedy.per_flow_goodput_mbps[cheater_flow] \
            > coop.per_flow_goodput_mbps[cheater_flow]
        assert greedy.fairness_index < coop.fairness_index

    def test_intensity_scales_cheating(self):
        mild = run_scenario(config(
            traffic="tcp_upload",
            adversary=AdversaryConfig(kind="greedy", intensity=0.3)))
        # cheated_draws counts draws the shrunken CW actually changed;
        # a mild shrink changes fewer draws than the full cheat.
        hot = run_scenario(config(
            traffic="tcp_upload",
            adversary=AdversaryConfig(kind="greedy", intensity=1.0)))
        assert hot.metrics_dict()["adversary"]["cheated_draws"] \
            >= mild.metrics_dict()["adversary"]["cheated_draws"]


class TestJammer:
    def test_periodic_jam_degrades_goodput(self):
        coop = run_scenario(config())
        jammed = run_scenario(config(adversary=AdversaryConfig(
            kind="jammer", intensity=0.5)))
        adv = jammed.metrics_dict()["adversary"]
        assert adv["jam_bursts"] > 0
        assert adv["jam_airtime_ns"] > 0
        assert jammed.aggregate_goodput_mbps \
            < 0.8 * coop.aggregate_goodput_mbps

    def test_degradation_graded_in_intensity(self):
        goodputs = [run_scenario(config(adversary=AdversaryConfig(
            kind="jammer", intensity=i))).aggregate_goodput_mbps
            for i in (0.25, 0.75)]
        assert goodputs[0] > goodputs[1]

    def test_reactive_jam_forces_collisions(self):
        coop = run_scenario(config())
        jammed = run_scenario(config(adversary=AdversaryConfig(
            kind="jammer", intensity=0.5, jam_mode="reactive")))
        assert jammed.metrics_dict()["adversary"]["jam_bursts"] > 0
        assert jammed.medium_frames_collided \
            > coop.medium_frames_collided
        assert jammed.aggregate_goodput_mbps \
            < coop.aggregate_goodput_mbps


class TestMutator:
    def test_corruption_contained_as_typed_counters(self):
        result = run_scenario(config(adversary=AdversaryConfig(
            kind="mutator", intensity=0.8, mutate_mode="storm")))
        metrics = result.metrics_dict()
        adv, rohc = metrics["adversary"], metrics["rohc"]
        assert adv["frames_mutated"] > 0
        # Containment: faults land in counters, nothing escapes.
        assert adv["tamper_errors"] == 0
        assert rohc["internal_errors"] == 0
        assert metrics["decompressor"]["crc_failures"] > 0
        # Storms defeat single-retry retention: desyncs are declared
        # and then recovered (absolute rebase or vanilla ACK).
        assert rohc["desync_events"] > 0
        assert rohc["recoveries"] > 0
        assert rohc["recovery_ns_total"] >= 0

    def test_tcp_survives_sustained_corruption(self):
        coop = run_scenario(config())
        stormed = run_scenario(config(adversary=AdversaryConfig(
            kind="mutator", intensity=1.0, mutate_mode="storm")))
        # HACK's added attack surface may cost goodput but must not
        # wedge the connection: the run retains most of its goodput.
        assert stormed.aggregate_goodput_mbps \
            > 0.5 * coop.aggregate_goodput_mbps

    def test_vanilla_policy_immune(self):
        result = run_scenario(config(
            policy=HackPolicy.VANILLA,
            adversary=AdversaryConfig(kind="mutator", intensity=1.0)))
        adv = result.metrics_dict()["adversary"]
        assert adv["hack_frames_seen"] == 0
        assert adv["frames_mutated"] == 0


class TestShardedAttacks:
    def test_sharded_jammer_merges_identically(self):
        """Per-channel adversary actors + per-channel RNG streams:
        a sharded attacked run must merge to the unsharded metrics."""
        cfg = config(cells=2, channels=2, n_clients=2,
                     adversary=AdversaryConfig(kind="jammer",
                                               intensity=0.5))
        unsharded = run_whole(cfg)
        sharded = run_scenario(cfg, shard_jobs=1)
        m0, m1 = unsharded.metrics_dict(), sharded.metrics_dict()
        assert m0["adversary"] == m1["adversary"]
        assert m0["rohc"] == m1["rohc"]
        assert m0["per_flow_goodput_mbps"] == \
            m1["per_flow_goodput_mbps"]

    def test_sharded_mutator_merges_identically(self):
        cfg = config(cells=2, channels=2, n_clients=2,
                     adversary=AdversaryConfig(kind="mutator",
                                               intensity=0.8,
                                               mutate_mode="storm"))
        m0 = run_whole(cfg).metrics_dict()
        m1 = run_scenario(cfg, shard_jobs=1).metrics_dict()
        assert m0["adversary"] == m1["adversary"]
        assert m0["rohc"] == m1["rohc"]

