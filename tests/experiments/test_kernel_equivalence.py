"""Whole-scenario equivalence: lazy backoff vs the slotted oracle.

Runs complete WLAN scenarios twice — once with the production
:class:`~repro.mac.dcf.DcfMac` (lazy backoff, busy-aware response
re-poll) and once with the slotted reference MAC from
``tests/mac/slotted_reference.py`` (per-slot countdown, per-slot
response poll, i.e. the seed's kernel behaviour) — and asserts the
full flattened metrics are identical, across contention-heavy,
lossy, device-quirk and upload regimes.

The comparison is of ``record()``, which holds no ``kernel_stats``:
the kernel counts are exactly the thing that must differ (the lazy
kernel executes fewer events for the same simulated behaviour), which
the last test asserts directly.
"""

import pytest

from repro.core.policies import HackPolicy
from repro.sim.units import MS, SEC
from repro.workloads import scenarios
from repro.workloads.scenarios import LossSpec, ScenarioConfig, \
    run_scenario

from tests.mac.slotted_reference import SlottedDcfMac

CONFIGS = {
    "single-client-hack": ScenarioConfig(
        duration_ns=800 * MS, warmup_ns=300 * MS, stagger_ns=0),
    "multi-client-vanilla": ScenarioConfig(
        n_clients=3, policy=HackPolicy.VANILLA,
        duration_ns=800 * MS, warmup_ns=300 * MS, stagger_ns=50 * MS),
    "lossy-snr": ScenarioConfig(
        data_rate_mbps=90.0, loss=LossSpec(kind="snr", snr_db=18.0),
        duration_ns=800 * MS, warmup_ns=300 * MS, stagger_ns=0),
    "sora-11a": ScenarioConfig(
        phy_mode="11a", data_rate_mbps=54.0, n_clients=2,
        loss=LossSpec(kind="uniform", data_loss=0.02,
                      control_loss=0.002),
        sora=True,
        duration_ns=800 * MS, warmup_ns=300 * MS, stagger_ns=50 * MS),
    "upload-finite": ScenarioConfig(
        traffic="tcp_upload", file_bytes=2_000_000,
        duration_ns=5 * SEC, warmup_ns=100 * MS, stagger_ns=0),
}


def run_with_mac(mac_cls, cfg, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "DcfMac", mac_cls)
        result = run_scenario(cfg)
    return result.record(), result.kernel_stats


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lazy_kernel_matches_slotted_oracle(name, monkeypatch):
    cfg = CONFIGS[name]
    lazy, lazy_kernel = run_with_mac(scenarios.DcfMac, cfg, monkeypatch)
    oracle, oracle_kernel = run_with_mac(SlottedDcfMac, cfg, monkeypatch)
    assert lazy == oracle, f"{name}: lazy kernel changed behaviour"
    assert lazy_kernel["events_executed"] < \
        oracle_kernel["events_executed"], (
            f"{name}: lazy kernel should execute fewer events")


def test_event_reduction_is_substantial_under_contention(monkeypatch):
    cfg = CONFIGS["multi-client-vanilla"]
    _, lazy = run_with_mac(scenarios.DcfMac, cfg, monkeypatch)
    _, oracle = run_with_mac(SlottedDcfMac, cfg, monkeypatch)
    # The oracle here already benefits from the single-event wired
    # pipe (shared code); the MAC-side laziness alone must still cut
    # a decent chunk of the kernel's event budget.
    assert lazy["events_executed"] < 0.8 * oracle["events_executed"]
