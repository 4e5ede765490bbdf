"""Integration tests: full scenarios through the public API.

These are the system-level checks: a complete simulated WLAN (server,
wired link, AP, clients, TCP/UDP) run end-to-end under each policy.
Durations are kept short; assertions target invariants and coarse
magnitudes rather than exact numbers.
"""

import pytest

from repro import HackPolicy, LossSpec, ScenarioConfig, run_scenario
from repro.sim.units import MS, SEC
from repro.traffic.arrivals import ArrivalSpec, SizeSpec


def quick(policy=HackPolicy.VANILLA, **kw):
    defaults = dict(phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
                    traffic="tcp_download", policy=policy,
                    duration_ns=1500 * MS, warmup_ns=700 * MS,
                    stagger_ns=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestTcpDownload11n:
    def test_vanilla_reasonable_goodput(self):
        res = run_scenario(quick())
        assert 70 < res.aggregate_goodput_mbps < 123

    def test_hack_beats_vanilla(self):
        vanilla = run_scenario(quick())
        hack = run_scenario(quick(HackPolicy.MORE_DATA))
        assert hack.aggregate_goodput_mbps > \
            1.05 * vanilla.aggregate_goodput_mbps

    def test_hack_stays_below_analytic_bound(self):
        from repro.analysis.capacity import hack_goodput_11n
        hack = run_scenario(quick(HackPolicy.MORE_DATA))
        assert hack.aggregate_goodput_mbps < hack_goodput_11n(150.0)

    def test_no_crc_failures_or_stalls(self):
        res = run_scenario(quick(HackPolicy.MORE_DATA))
        assert res.decomp_counters["crc_failures"] == 0
        assert all(c["timeouts"] == 0
                   for c in res.sender_counters.values())

    def test_hack_reduces_collisions(self):
        vanilla = run_scenario(quick())
        hack = run_scenario(quick(HackPolicy.MORE_DATA))
        assert hack.medium_frames_collided < vanilla.medium_frames_collided

    def test_hack_attaches_payloads(self):
        res = run_scenario(quick(HackPolicy.MORE_DATA))
        assert res.driver_metrics["C1"]["hack_frames_attached"] > 0
        assert res.decomp_counters["acks_reconstructed"] > 100

    def test_augmented_acks_fit_aifs(self):
        # §3.3.2 footnote: ~98.5% of augmented LL ACKs fit within AIFS.
        res = run_scenario(quick(HackPolicy.MORE_DATA))
        assert res.mac_stats.hack_fit_fraction() > 0.9


class TestTcpDownload11a:
    def test_vanilla_and_hack(self):
        vanilla = run_scenario(quick(phy_mode="11a",
                                     data_rate_mbps=54.0))
        hack = run_scenario(quick(HackPolicy.MORE_DATA, phy_mode="11a",
                                  data_rate_mbps=54.0))
        assert 17 < vanilla.aggregate_goodput_mbps < 27
        assert hack.aggregate_goodput_mbps > \
            vanilla.aggregate_goodput_mbps
        assert hack.aggregate_goodput_mbps < 30.5


class TestUdp:
    def test_udp_saturates_channel(self):
        res = run_scenario(quick(traffic="udp_download",
                                 udp_rate_mbps=200.0))
        assert 120 < res.aggregate_goodput_mbps < 140

    def test_udp_11a(self):
        res = run_scenario(quick(traffic="udp_download", phy_mode="11a",
                                 data_rate_mbps=54.0,
                                 udp_rate_mbps=40.0))
        # Paper: ideal-MAC UDP at 54 Mbps is ~30 Mbps.
        assert 27 < res.aggregate_goodput_mbps < 31


class TestMultiClient:
    def test_aggregate_roughly_flat_with_clients(self):
        one = run_scenario(quick(HackPolicy.MORE_DATA))
        four = run_scenario(quick(HackPolicy.MORE_DATA, n_clients=4,
                                  stagger_ns=50 * MS,
                                  duration_ns=2 * SEC,
                                  warmup_ns=1 * SEC))
        assert four.aggregate_goodput_mbps > \
            0.75 * one.aggregate_goodput_mbps

    def test_fairness_across_clients(self):
        res = run_scenario(quick(HackPolicy.MORE_DATA, n_clients=4,
                                 stagger_ns=50 * MS,
                                 duration_ns=2 * SEC,
                                 warmup_ns=1 * SEC))
        rates = list(res.per_flow_goodput_mbps.values())
        assert min(rates) > 0.4 * max(rates)


class TestUpload:
    def test_hack_symmetric_for_uploads(self):
        # §3.1: "TCP/HACK is a fully symmetric design" — for uploads
        # the AP compresses the server's TCP ACKs.
        vanilla = run_scenario(quick(traffic="tcp_upload"))
        hack = run_scenario(quick(HackPolicy.MORE_DATA,
                                  traffic="tcp_upload"))
        assert vanilla.aggregate_goodput_mbps > 50
        assert hack.aggregate_goodput_mbps > \
            vanilla.aggregate_goodput_mbps
        assert hack.driver_metrics["AP"]["hack_frames_attached"] > 0


class TestLossy:
    def test_uniform_loss_still_works(self):
        res = run_scenario(quick(
            HackPolicy.MORE_DATA,
            loss=LossSpec(kind="uniform", data_loss=0.05)))
        assert res.aggregate_goodput_mbps > 40
        assert res.decomp_counters["crc_failures"] == 0

    def test_snr_sweep_monotone(self):
        goodputs = []
        for snr in (18.0, 26.0, 34.0):
            res = run_scenario(quick(
                HackPolicy.MORE_DATA,
                loss=LossSpec(kind="snr", snr_db=snr)))
            goodputs.append(res.aggregate_goodput_mbps)
        assert goodputs[0] < goodputs[-1]

    def test_sora_quirks(self):
        res = run_scenario(quick(
            phy_mode="11a", data_rate_mbps=54.0, sora=True))
        # Late LL ACKs shave throughput but must not break anything.
        assert 14 < res.aggregate_goodput_mbps < 25


class TestFiniteTransfer:
    def test_file_download_completes(self):
        res = run_scenario(quick(
            HackPolicy.MORE_DATA, file_bytes=2_000_000,
            duration_ns=3 * SEC))
        assert res.completion_times_ns[1] is not None
        assert res.per_flow_goodput_mbps[1] > 30


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_scenario(quick(HackPolicy.MORE_DATA, seed=5))
        b = run_scenario(quick(HackPolicy.MORE_DATA, seed=5))
        assert a.per_flow_goodput_mbps == b.per_flow_goodput_mbps
        assert a.medium_frames_sent == b.medium_frames_sent

    def test_different_seed_differs(self):
        a = run_scenario(quick(HackPolicy.MORE_DATA, seed=5))
        b = run_scenario(quick(HackPolicy.MORE_DATA, seed=6))
        assert a.medium_frames_sent != b.medium_frames_sent


class TestValidation:
    @pytest.mark.parametrize("warmup_ns", [300 * MS, 600 * MS, -1])
    def test_empty_measurement_window_rejected(self, warmup_ns):
        with pytest.raises(ValueError, match="warmup_ns"):
            run_scenario(ScenarioConfig(duration_ns=300 * MS,
                                        warmup_ns=warmup_ns))

    #: One config per ``validate()`` clause: each used to run as
    #: something else (an "11ac" PHY as 802.11n without aggregation) or
    #: raise from a layer after part of the world was built.
    UNRUNNABLE = [
        ("phy_mode", dict(phy_mode="11ac")),
        ("data_rate_mbps", dict(data_rate_mbps=17.0)),
        ("data_rate_mbps", dict(phy_mode="11a")),     # 150 is HT-only
        ("cc", dict(cc="bbr")),
        ("queue_discipline", dict(queue_discipline="red")),
        ("loss.kind", dict(loss=LossSpec(kind="fading"))),
        ("loss probabilities",
         dict(loss=LossSpec(kind="uniform", data_loss=1.5))),
        ("loss probabilities",
         dict(loss=LossSpec(kind="uniform", data_loss=0.01,
                            control_loss=-0.1))),
        ("loss probabilities",
         dict(loss=LossSpec(kind="uniform", data_loss=0.01,
                            per_client={"C1": 1.0}))),
        ("n_clients", dict(n_clients=-1)),
        ("flows_per_client", dict(flows_per_client=0)),   # ran as 1
    ]

    @pytest.mark.parametrize("field, fields", UNRUNNABLE)
    def test_unrunnable_config_rejected_up_front(self, field, fields,
                                                 monkeypatch):
        from repro.workloads import scenarios

        def no_world(*_args, **_kwargs):
            raise AssertionError("a Simulator was built")

        monkeypatch.setattr(scenarios, "Simulator", no_world)
        with pytest.raises(ValueError, match=field):
            run_scenario(ScenarioConfig(**fields))

    #: Flow churn's specs, checked by ``validate()`` too: each used to
    #: raise from inside the event loop or from ``build_simulation``
    #: after the media were built.
    UNRUNNABLE_ARRIVALS = [
        ("size kind", dict(size=SizeSpec(kind="bogus"))),
        ("median_bytes", dict(size=SizeSpec(median_bytes=0))),
        ("rate_per_s", dict(rate_per_s=-1)),
        # Client 2 exists in no cell: each has two stations.
        ("trace client index", dict(kind="trace",
                                    trace=((0.0, 2, 10_000),))),
    ]

    @pytest.mark.parametrize("field, spec", UNRUNNABLE_ARRIVALS)
    def test_unrunnable_arrivals_rejected_up_front(self, field, spec,
                                                   monkeypatch):
        from repro.workloads import scenarios

        def no_world(*_args, **_kwargs):
            raise AssertionError("a Simulator was built")

        monkeypatch.setattr(scenarios, "Simulator", no_world)
        with pytest.raises(ValueError, match=field):
            run_scenario(ScenarioConfig(
                cells=2, n_clients=2, arrivals=ArrivalSpec(**spec)))

    def test_everything_shipped_still_validates(self):
        from repro.experiments.runner import EXPERIMENTS
        from repro.workloads import registry
        from tests.experiments.conftest import QUICK_SCOPES

        for name in registry.names():
            registry.build(name).validate()
        for name, scope in QUICK_SCOPES.items():
            spec = EXPERIMENTS[name].sweep_spec(quick=True, **scope)
            for point in spec.points:
                if point.config is not None:
                    point.config.validate()
