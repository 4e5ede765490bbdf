"""Every MAC fact has one book, and each book balances in real runs.

A station's queue facts are its MAC's ``QdiscStats``; the fates of the
MPDUs the MACs dequeue are the world's shared ``MacStats``; a
decompressor's desyncs are its damage marks.  The identities:

* per MAC, ``enqueued == dequeued + drops + withdrawn + queued`` (a
  tail drop never entered the queue);
* per world, ``dequeued == delivered + mpdus_dropped + held``, where an
  MPDU is *held* while its MAC still owns it: awaiting a Block ACK, in
  a retry queue, or the one MPDU of an unresolved single-MPDU
  exchange;
* per run, ``desync_events == recoveries + open_desyncs +
  released_desyncs``.

The cells are picked so each term is non-zero somewhere: a withdrawn
ACK (opportunistic HACK), an AQM head drop (FQ-CoDel under Poisson
churn), a tail drop, and an MPDU dropped on each of the MAC's three
paths (single-MPDU retry limit, Block ACK resolution, BAR give-up).
"""

import pytest

from repro.core.policies import HackPolicy
from repro.experiments import adversarial
from repro.workloads import registry
from repro.workloads.scenarios import LossSpec, build_simulation, \
    collect

SHORT = dict(seed=1, duration_ns=400_000_000, warmup_ns=100_000_000)


def held(mac) -> int:
    """MPDUs ``mac`` has dequeued and not yet resolved."""
    count = sum(len(orig.retry_queue) + len(orig.in_flight)
                for orig in mac._originators.values())
    job = mac._current_job
    if job is not None and job.materialized and not job.is_batch:
        count += len(job.mpdus)     # a batch's are in its in_flight
    return count


def queued(mac) -> int:
    return sum(len(queue) for queue in mac._queues.values())


def run_world(cfg):
    world = build_simulation(cfg)
    world.run()
    return world, [driver.mac for driver in world.drivers.values()]


def assert_mac_books_balance(world, macs):
    for mac in macs:
        book = mac.qdisc_stats
        assert book.enqueued == (book.dequeued + book.drops
                                 + book.withdrawn + queued(mac)), \
            mac.address
    fates = world.mac_stats
    assert sum(mac.qdisc_stats.dequeued for mac in macs) == (
        fates.delivered() + sum(fates.mpdus_dropped.values())
        + sum(held(mac) for mac in macs))


def total(macs, counter):
    return sum(getattr(mac.qdisc_stats, counter) for mac in macs)


#: id -> (registry name, overrides, the term the cell exercises).
CELLS = {
    "more-data": (
        "multi-client", dict(n_clients=4, policy=HackPolicy.MORE_DATA),
        lambda world, macs: total(macs, "dequeued")),
    "opportunistic": (
        "quickstart", dict(policy=HackPolicy.OPPORTUNISTIC),
        lambda world, macs: total(macs, "withdrawn")),
    "fq-codel-churn": (
        "aqm-fqcodel", dict(ap_queue_per_client=500),
        lambda world, macs: total(macs, "drops")),
    "tail-drops": (
        "aqm-fqcodel", {},
        lambda world, macs: total(macs, "tail_drops")),
    # Block ACK resolution and BAR give-up both drop MPDUs here.
    "lossy-11n": (
        "quickstart", dict(loss=LossSpec(kind="uniform", data_loss=0.5,
                                         control_loss=0.8)),
        lambda world, macs: sum(world.mac_stats.mpdus_dropped.values())),
    # Single-MPDU exchanges: drops at the retry limit.
    "lossy-11a": (
        "sora-testbed", dict(loss=LossSpec(kind="uniform", data_loss=0.5,
                                           control_loss=0.5)),
        lambda world, macs: sum(world.mac_stats.mpdus_dropped.values())),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_queue_and_mpdu_books_balance(cell):
    name, overrides, term = CELLS[cell]
    world, macs = run_world(registry.build(name, **SHORT, **overrides))
    assert term(world, macs) > 0, "the cell no longer exercises its term"
    assert_mac_books_balance(world, macs)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("intensity", [0.5, 1.0])
def test_desync_book_balances_on_the_quick_mutator_cells(seed, intensity):
    """The adversarial grid's mutated HACK cells, as ``--quick`` runs
    them (seed 2 at 1.0 ends with one desync still open)."""
    world, macs = run_world(adversarial._config(
        HackPolicy.MORE_DATA, "mutator", intensity, seed, quick=True))
    rohc = collect(world).rohc_counters
    assert rohc["desync_events"] > 0
    assert rohc["desync_events"] == (rohc["recoveries"]
                                     + rohc["open_desyncs"]
                                     + rohc["released_desyncs"])
    assert_mac_books_balance(world, macs)
