"""Policy robustness under loss: every policy must stay correct.

Correctness here means: no decompression CRC failures, no duplicate
ACK reinjection beyond the dedup counters, goodput above a sanity
floor, and no permanently stalled flows — across all HACK policies and
both loss models.
"""

import statistics

import pytest

from repro import HackPolicy, LossSpec, ScenarioConfig, run_scenario
from repro.sim.units import MS, SEC
from repro.workloads.scenarios import build_simulation, collect

ALL_POLICIES = [HackPolicy.VANILLA, HackPolicy.MORE_DATA,
                HackPolicy.OPPORTUNISTIC, HackPolicy.EXPLICIT_TIMER,
                HackPolicy.TS_ECHO]


def policy_config(policy, loss, **kw):
    defaults = dict(phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
                    traffic="tcp_download", policy=policy, loss=loss,
                    duration_ns=1500 * MS, warmup_ns=700 * MS,
                    stagger_ns=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def run_policy(policy, loss, **kw):
    return run_scenario(policy_config(policy, loss, **kw))


class TestUniformLoss:
    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=lambda p: p.value)
    def test_five_percent_loss(self, policy):
        res = run_policy(policy,
                         LossSpec(kind="uniform", data_loss=0.05))
        assert res.aggregate_goodput_mbps > 40
        assert res.decomp_counters["crc_failures"] == 0
        assert all(c["timeouts"] <= 1
                   for c in res.sender_counters.values())


class TestSnrLoss:
    @pytest.mark.parametrize("policy", [HackPolicy.MORE_DATA,
                                        HackPolicy.TS_ECHO],
                             ids=lambda p: p.value)
    def test_marginal_snr(self, policy):
        res = run_policy(policy, LossSpec(kind="snr", snr_db=23.0))
        assert res.aggregate_goodput_mbps > 20
        assert res.decomp_counters["crc_failures"] == 0


class TestRateAdaptation:
    def test_hack_stabilises_aarf(self):
        """An emergent synergy the paper does not evaluate: under
        stock TCP, AARF misreads data/ACK collisions as channel noise
        (spurious downshifts); TCP/HACK removes those collisions, so
        the same adapter carries more across the mid-SNR range."""
        def aarf_goodput(policy, snr):
            return run_policy(policy, LossSpec(kind="snr", snr_db=snr),
                              rate_adaptation="aarf"
                              ).aggregate_goodput_mbps

        assert statistics.fmean(
            aarf_goodput(HackPolicy.MORE_DATA, snr)
            - aarf_goodput(HackPolicy.VANILLA, snr)
            for snr in (18.0, 22.0, 26.0)) > 0


class TestSplitUnderLoss:
    def test_split_mode_stays_correct(self):
        """Without delayed ACKs an augmented LL ACK outgrows AIFS on
        this cell unless the driver splits it (§3.3.2): off, some
        responses miss AIFS; on, every one fits, and the split loses
        nothing."""
        def run(split_to_aifs):
            world = build_simulation(policy_config(
                HackPolicy.MORE_DATA,
                LossSpec(kind="uniform", data_loss=0.05),
                delayed_ack=False))
            # The split is no scenario knob: set it in the built world.
            for driver in world.drivers.values():
                driver.config.split_to_aifs = split_to_aifs
            world.run()
            return collect(world)

        unsplit, split = run(False), run(True)
        assert unsplit.mac_stats.hack_fit_fraction() < 1.0
        assert split.mac_stats.hack_fit_fraction() == 1.0
        for res in (unsplit, split):
            assert res.aggregate_goodput_mbps > 40
            assert res.decomp_counters["crc_failures"] == 0


class TestSoraPlusLoss:
    def test_everything_at_once(self):
        # SoRa quirks + per-client loss + two clients + HACK: the
        # kitchen-sink configuration must stay stable.
        res = run_scenario(ScenarioConfig(
            phy_mode="11a", data_rate_mbps=54.0, n_clients=2,
            traffic="tcp_download", policy=HackPolicy.MORE_DATA,
            loss=LossSpec(kind="uniform", data_loss=0.01,
                          per_client={"C1": 0.03}),
            sora=True,
            duration_ns=2 * SEC, warmup_ns=1 * SEC,
            stagger_ns=100 * MS))
        assert res.aggregate_goodput_mbps > 15
        assert res.decomp_counters["crc_failures"] == 0
        assert res.fairness_index > 0.9
