"""Pinned kernel event counts: deterministic, so gated exactly.

The quick Fig 10 ten-client cell (``multi-client`` at the quick
steady-state durations, seed 1) under stock TCP and MORE_DATA HACK.
The counts are a pure function of the code, so an event-count
regression — a timer that goes back to cancel-and-push, a new
per-packet event — fails here instead of waiting for a wall-clock
benchmark to notice.  A deliberate change re-pins them and says what
moved; it bumps no ``ENGINE_VERSION``, as a sweep record
(``ScenarioResult.record()``) holds no kernel counts.
``events_executed`` counts heap dispatches, ``events_inlined`` the
deliveries a train made without one, and their sum — the callbacks
run — is held to what it was before trains existed.
"""

import pytest

from repro.core.policies import HackPolicy
from repro.mac.dcf import DcfMac
from repro.obs.metrics import digest
from repro.phy.errors import LossModel
from repro.experiments.common import steady_state_durations
from repro.workloads import registry
from repro.traffic.arrivals import ArrivalSpec, SizeSpec
from repro.workloads.scenarios import LossSpec, build_simulation, \
    collect, run_scenario

PINNED = {
    HackPolicy.VANILLA: {
        "events_scheduled": 17_833, "events_executed": 12_749,
        "events_inlined": 30_341, "events_cancelled": 5_063,
        "heap_compactions": 0, "timer_rearms": 13_037},
    HackPolicy.MORE_DATA: {
        "events_scheduled": 16_051, "events_executed": 12_458,
        "events_inlined": 32_522, "events_cancelled": 3_570,
        "heap_compactions": 0, "timer_rearms": 14_185},
}

#: ``events_executed`` while every packet on a wire and every MPDU up
#: a client's stack was its own heap event (scheduled: 48 236 /
#: 48 631).  A train delivers most of them inline, but it delivers the
#: same ones: dispatched + inlined must still come to exactly this.
CALLBACKS_RUN = {HackPolicy.VANILLA: 43_090, HackPolicy.MORE_DATA: 44_980}

#: What is still cancelled, on the vanilla cell: 2 281 backoff
#: countdowns frozen by a busy edge (each station's own, it has slots
#: to be credited), 1 307 response timeouts met by their response,
#: 1 290 of the medium's IFS wakes (one per idle period cut short by a
#: SIFS response, however many stations waited in it) and 185 stale
#: TCP timer entries.  The ratio was 0.105 / 0.073 of the heap pushes
#: while packets were pushes too; the same cancellations are now 0.28 /
#: 0.22 of a third as many.
MAX_CANCELLED_RATIO = 0.30


def quick_cell(policy):
    return registry.build("multi-client", seed=1, n_clients=10,
                          policy=policy, **steady_state_durations(True))


@pytest.mark.parametrize("policy", sorted(PINNED, key=lambda p: p.name))
def test_quick_ten_client_cell_kernel_counts(policy):
    kernel = run_scenario(quick_cell(policy)).kernel_stats
    assert kernel == PINNED[policy]
    assert kernel["events_executed"] + kernel["events_inlined"] \
        == CALLBACKS_RUN[policy]
    assert kernel["events_cancelled"] / kernel["events_scheduled"] \
        < MAX_CANCELLED_RATIO


@pytest.mark.parametrize("cfg", [
    quick_cell(HackPolicy.MORE_DATA),
    registry.build("city-20cell", seed=1, duration_ns=400_000_000,
                   warmup_ns=100_000_000),
], ids=["ten-client", "city-20cell"])
def test_kernel_books_balance_after_a_real_run(cfg):
    """Every heap push is accounted for — dispatched, cancelled, or
    still of use — and what is pending is what is live in the heap
    plus what waits in a train behind its head."""
    world = build_simulation(cfg)
    world.run()
    sim, stats = world.sim, world.sim.stats
    assert stats.scheduled == (stats.executed + stats.cancelled
                               + sim._live + sim._parked)
    trains = [pipe._train for net in world.cells
              for pipe in net.server.link.pipes()]
    trains += [client._stack for client in world.clients.values()]
    behind_a_head = sum(max(len(train) - 1, 0) for train in trains)
    assert behind_a_head > 0            # the run stopped mid-traffic
    assert sim.pending_events == sim._live + behind_a_head


#: ``digest(result.record())`` of each cell: what it simulated, outside
#: the blocks that say how it executed (the benchmark's ``sim_digest``
#: is the same hash).  The per-MPDU, per-ACK and per-packet fast paths
#: of the MAC, the medium, TCP, the HACK driver and ROHC must not move
#: a single number: the ten-client cells take the drop-tail / Reno /
#: lossless side of each choice, the churn city the FQ-CoDel / CUBIC /
#: SNR-loss side.
PINNED_DIGESTS = {
    "VANILLA":
        "5206185806cde888278245c6a04c881dc56938e3121f4e646287ca915e62d72a",
    "MORE_DATA":
        "d166e44643be85287853219cab00512b61fc4c4f7d1794289c901fb5a3787953",
    "churn-city":
        "a3f25532910945b7ad318a4e1526406daa61863e5e81edaa44bb049ec7dfb348",
}


def short_churn_city():
    """The benchmark's churn city (three channels, Poisson arrivals,
    CUBIC over FQ-CoDel, SNR loss) cut to 0.4 s."""
    return registry.build(
        "city-20cell", seed=1, traffic="dynamic", n_clients=2,
        arrivals=ArrivalSpec(
            kind="poisson", rate_per_s=14.0,
            size=SizeSpec(kind="lognormal", median_bytes=30_000,
                          sigma=1.2)),
        cc="cubic", queue_discipline="fq_codel",
        loss=LossSpec(kind="snr", snr_db=22.0), data_rate_mbps=90.0,
        duration_ns=400_000_000, warmup_ns=100_000_000)


def simulated_digest(cfg) -> str:
    return digest(run_scenario(cfg, shard_jobs=1).record())


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_whole_result_is_pinned(name):
    cfg = short_churn_city() if name == "churn-city" \
        else quick_cell(HackPolicy[name])
    assert simulated_digest(cfg) == PINNED_DIGESTS[name]


class AskedNoLoss(LossModel):
    """Lossless, with methods of its own: the medium has to ask it
    about every listener of every frame and the MAC about every MPDU —
    the general paths a model keeping ``LossModel``'s methods skips."""

    def is_lost(self, sender, receiver, frame):
        return False

    def mpdu_lost(self, sender, receiver, mpdu, rate_mbps):
        return False


@pytest.mark.parametrize("policy", [HackPolicy.VANILLA,
                                    HackPolicy.MORE_DATA])
def test_lossless_fast_paths_match_the_general_paths(policy):
    """The medium's delivery loop and the MAC's A-MPDU receive path
    under ``NoLoss`` simulate what the general loops do when asked —
    kernel counts included."""
    results = []
    for asked in (False, True):
        world = build_simulation(quick_cell(policy))
        if asked:
            for medium in world.media.values():
                medium.loss_model = AskedNoLoss()
                for station in medium.listeners:
                    if isinstance(station, DcfMac):
                        station.loss_model = medium.loss_model
        world.run()
        results.append(collect(world).metrics_dict())
    assert results[0] == results[1]
