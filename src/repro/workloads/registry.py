"""Named scenario registry.

Every runnable story as a first-class, programmatically addressable
scenario (``repro simulate --scenario <name>``): look one up by name,
build its :class:`ScenarioConfig` (optionally overriding fields), or
expand it into a multi-seed :class:`~repro.experiments.batch.SweepSpec`
for the parallel sweep engine.

    from repro.workloads import registry
    cfg = registry.build("quickstart", policy=HackPolicy.MORE_DATA)
    spec = registry.sweep_spec("multi-client", seeds=(1, 2, 3))
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from ..adversary import AdversaryConfig
from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..traffic.arrivals import ArrivalSpec, SizeSpec
from .scenarios import LossSpec, ScenarioConfig


class UnknownScenarioError(KeyError):
    """Raised for a lookup of a name the registry does not hold."""

    def __init__(self, name: str, known: Sequence[str]):
        suggestions = difflib.get_close_matches(name, known, n=3)
        hint = f"; did you mean {', '.join(suggestions)}?" \
            if suggestions else ""
        super().__init__(
            f"unknown scenario {name!r} (known: "
            f"{', '.join(sorted(known))}){hint}")
        self.name = name
        self.suggestions = suggestions


@dataclass(frozen=True)
class RegisteredScenario:
    """A named config factory plus its one-line story."""

    name: str
    description: str
    factory: Callable[[], ScenarioConfig]

    def build(self, seed: int = 1, **overrides: Any) -> ScenarioConfig:
        config = self.factory()
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        unknown = set(overrides) - fields
        if unknown:
            raise TypeError(
                f"scenario {self.name!r}: unknown config fields "
                f"{sorted(unknown)}")
        return dataclasses.replace(config, seed=seed, **overrides)


_REGISTRY: Dict[str, RegisteredScenario] = {}


def register(name: str, description: str
             ) -> Callable[[Callable[[], ScenarioConfig]],
                           Callable[[], ScenarioConfig]]:
    """Decorator: register a zero-argument ScenarioConfig factory."""

    def decorator(factory: Callable[[], ScenarioConfig]
                  ) -> Callable[[], ScenarioConfig]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = RegisteredScenario(name, description, factory)
        return factory

    return decorator


def get(name: str) -> RegisteredScenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, list(_REGISTRY)) from None


def names() -> List[str]:
    return sorted(_REGISTRY)


def build(name: str, seed: int = 1, **overrides: Any) -> ScenarioConfig:
    """Build a registered scenario's config (with field overrides)."""
    return get(name).build(seed=seed, **overrides)


def describe_all() -> List[Dict[str, str]]:
    return [{"name": n, "description": _REGISTRY[n].description}
            for n in names()]


def sweep_spec(name: str, seeds: Sequence[int] = (1,),
               **overrides: Any):
    """Expand one named scenario into a per-seed SweepSpec."""
    from ..experiments.batch import SweepSpec

    spec = SweepSpec(f"scenario:{name}")
    for seed in seeds:
        spec.add_scenario((name,), build(name, seed=seed, **overrides))
    return spec


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
@register("quickstart",
          "one 802.11n client at 150 Mbps, bulk TCP download with "
          "the MORE DATA HACK policy")
def _quickstart() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=0)


@register("lossy-link",
          "single client on a noisy channel (SNR loss model), the "
          "Fig 11 regime")
def _lossy_link() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=90.0, n_clients=1,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        loss=LossSpec(kind="snr", snr_db=18.0),
        duration_ns=2 * SEC, warmup_ns=1 * SEC, stagger_ns=0)


@register("multi-client",
          "several laptops downloading through one AP — the paper's "
          "motivating Fig 10 contention workload")
def _multi_client() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=4,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=4 * SEC, warmup_ns=2 * SEC, stagger_ns=50 * MS)


@register("wireless-backup",
          "finite upload to LAN storage (the Time Capsule story, "
          "§3.1): the AP compresses the server's ACKs")
def _wireless_backup() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
        traffic="tcp_upload", policy=HackPolicy.MORE_DATA,
        file_bytes=20_000_000,
        duration_ns=60 * SEC, warmup_ns=100 * MS, stagger_ns=0)


# -- Flow churn (dynamic traffic; see repro.traffic) -------------------
def _churn_base(policy: HackPolicy,
                arrivals: ArrivalSpec) -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
        traffic="dynamic", policy=policy, arrivals=arrivals,
        duration_ns=2 * SEC, warmup_ns=1 * SEC, stagger_ns=0)


def _poisson_arrivals() -> ArrivalSpec:
    return ArrivalSpec(
        kind="poisson", rate_per_s=40.0,
        size=SizeSpec(kind="lognormal", median_bytes=50_000,
                      sigma=1.0))


def _web_arrivals() -> ArrivalSpec:
    return ArrivalSpec(
        kind="web", users_per_client=2, think_time_ms=150.0,
        size=SizeSpec(kind="lognormal", median_bytes=30_000,
                      sigma=1.2))


@register("churn-poisson",
          "flow churn: Poisson arrivals (40 flows/s, log-normal "
          "sizes) across two clients with TCP/HACK — FCT instead of "
          "steady-state goodput; at this load MORE DATA compresses no "
          "ACK, so the run is stock TCP's (--policy vanilla gives the "
          "same record)")
def _churn_poisson() -> ScenarioConfig:
    return _churn_base(HackPolicy.MORE_DATA, _poisson_arrivals())


@register("churn-web",
          "closed-loop web users (think/request/wait, log-normal "
          "objects) with TCP/HACK — the short-flow regime where "
          "ACK-per-data overhead dominates; at this load MORE DATA "
          "compresses no ACK, so the run is stock TCP's (--policy "
          "vanilla gives the same record)")
def _churn_web() -> ScenarioConfig:
    return _churn_base(HackPolicy.MORE_DATA, _web_arrivals())


@register("churn-bursty",
          "per-client on/off bursts (exponential ON/OFF, mice + "
          "elephants) with TCP/HACK — bursty aggregate load")
def _churn_bursty() -> ScenarioConfig:
    return _churn_base(
        HackPolicy.MORE_DATA,
        ArrivalSpec(kind="onoff", rate_per_s=60.0,
                    size=SizeSpec(kind="bimodal")))


@register("churn-cubic-codel",
          "the churn-poisson workload on the modern stack: CUBIC "
          "congestion control with CoDel at every station's MAC "
          "queue (cc / queue_discipline knobs)")
def _churn_cubic_codel() -> ScenarioConfig:
    return dataclasses.replace(
        _churn_base(HackPolicy.MORE_DATA, _poisson_arrivals()),
        cc="cubic", queue_discipline="codel")


@register("churn-paced",
          "the churn-poisson workload with sender pacing on "
          "(~2*cwnd/SRTT release instead of back-to-back window "
          "bursts; pacing knob)")
def _churn_paced() -> ScenarioConfig:
    return dataclasses.replace(
        _churn_base(HackPolicy.MORE_DATA, _poisson_arrivals()),
        pacing=True)


@register("aqm-fqcodel",
          "Poisson mice riding a 50 Mbps CBR UDP floor per client "
          "through FQ-CoDel MAC queues — per-flow DRR isolates the "
          "mice from the standing UDP queue (the aqm_pacing "
          "experiment's regime)")
def _aqm_fqcodel() -> ScenarioConfig:
    return dataclasses.replace(
        _churn_base(HackPolicy.MORE_DATA, _poisson_arrivals()),
        udp_background_mbps=50.0, queue_discipline="fq_codel")


@register("udp-background",
          "two bulk TCP/HACK downloads sharing the cell with 8 Mbps "
          "of constant-bit-rate UDP noise per client "
          "(udp_background_mbps knob)")
def _udp_background() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        udp_background_mbps=8.0,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=50 * MS)


# -- Multi-AP overlapping cells (cells=N on one channel) ---------------
@register("multi-ap",
          "two overlapping BSSes (2 APs x 2 clients) contending for "
          "one channel, bulk TCP/HACK downloads in both — inter-cell "
          "contention")
def _multi_ap() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2, cells=2,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=50 * MS)


@register("multi-ap-vanilla",
          "the multi-ap topology on stock TCP/802.11n (the baseline "
          "for HACK's inter-cell story)")
def _multi_ap_vanilla() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2, cells=2,
        traffic="tcp_download", policy=HackPolicy.VANILLA,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=50 * MS)


@register("multi-ap-churn",
          "two overlapping cells each running Poisson flow churn — "
          "FCT under inter-cell contention, reported per cell and "
          "merged")
def _multi_ap_churn() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=2, cells=2,
        traffic="dynamic", policy=HackPolicy.MORE_DATA,
        arrivals=_poisson_arrivals(),
        duration_ns=2 * SEC, warmup_ns=1 * SEC, stagger_ns=0)


@register("city-20cell",
          "a 20-cell city grid round-robined over the three "
          "2.4 GHz channels, one bulk TCP/HACK download per cell — "
          "the channel-shard pipeline's benchmark topology "
          "(run_scenario(cfg) runs it as one simulator per channel)")
def _city_20cell() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=1, cells=20,
        channels=3, traffic="tcp_download",
        policy=HackPolicy.MORE_DATA,
        duration_ns=2 * SEC, warmup_ns=1 * SEC, stagger_ns=0)


# -- Adversarial scenarios (repro.adversary) ---------------------------
@register("adv-greedy",
          "a CW-cheating greedy station among four honest uploaders "
          "(intensity 1.0: the cheater always draws zero backoff) — "
          "MAC-layer misbehaviour, HACK on")
def _adv_greedy() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=4,
        traffic="tcp_upload", policy=HackPolicy.MORE_DATA,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=50 * MS,
        adversary=AdversaryConfig(kind="greedy", intensity=1.0))


@register("adv-jammer",
          "a duty-cycled energy jammer at 50% intensity over bulk "
          "TCP/HACK downloads — honest stations defer through the "
          "bursts and goodput scales with the quiet fraction")
def _adv_jammer() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=3,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=50 * MS,
        adversary=AdversaryConfig(kind="jammer", intensity=0.5))


@register("adv-mutator",
          "an on-air compressed-ACK mutator in storm mode driving "
          "ROHC context desyncs — exercises the decompressor's "
          "containment and measured context recovery (stall guard "
          "keeps HACK's buffered chain moving)")
def _adv_mutator() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=3,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=50 * MS,
        adversary=AdversaryConfig(kind="mutator", intensity=0.6,
                                  mutate_mode="storm"))


@register("sora-testbed",
          "the §4 SoRa 802.11a testbed: 54 Mbps, per-client loss, "
          "late LL ACKs")
def _sora_testbed() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11a", data_rate_mbps=54.0, n_clients=2,
        traffic="tcp_download", policy=HackPolicy.MORE_DATA,
        duration_ns=6 * SEC, warmup_ns=2 * SEC, stagger_ns=100 * MS,
        loss=LossSpec(kind="uniform", data_loss=0.01,
                      control_loss=0.002,
                      per_client={"C1": 0.02, "C2": 0.01}),
        sora=True)
