"""Wiring adversaries into a built scenario, and their metrics block.

:func:`install_adversary` is called by the scenario builder
(:mod:`repro.workloads.scenarios`) after the cooperative world is
wired.  An inactive plan (``intensity == 0``) installs *nothing* — no
listener, no tamper hook, no scheduled event, no RNG stream — which is
what makes zero-intensity runs bit-identical to ``adversary=None``
runs.

All randomness flows through dedicated, name-derived RNG streams
(``adversary:jam:ch<k>``, ``adversary:mutate:ch<k>``), one per
channel, so attacked multi-channel runs shard exactly like
cooperative ones and never perturb cooperative draws.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..obs.metrics import merge_counts
from .config import AdversaryConfig
from .jammer import Jammer
from .mutator import AirframeMutator

#: The fixed shape of ``metrics_dict()["adversary"]``; stable across
#: kinds and intensities so sweep rows never see a shifting schema.
_ZERO_COUNTERS = {
    "greedy_stations": 0,
    "cheated_draws": 0,
    "jam_bursts": 0,
    "jam_airtime_ns": 0,
    "hack_frames_seen": 0,
    "frames_mutated": 0,
    "storm_bursts": 0,
    "tamper_errors": 0,
}


class AdversaryRuntime:
    """The live attack actors of one simulator (one shard's worth)."""

    def __init__(self, config: AdversaryConfig):
        self.config = config
        self.jammers: List[Jammer] = []
        self.mutators: List[AirframeMutator] = []
        self.greedy_macs: List[Any] = []

    def counters(self) -> Dict[str, int]:
        """This simulator's integer counters (what crosses the shard
        boundary; summed key-wise by the merge)."""
        out = {"greedy_stations": len(self.greedy_macs),
               "cheated_draws": sum(mac.cheated_draws
                                    for mac in self.greedy_macs)}
        for actor in self.jammers + self.mutators:
            merge_counts(out, actor.counters())
        return out


def adversary_block(config: AdversaryConfig,
                    counters: Mapping[str, int]) -> Dict[str, Any]:
    """The ``metrics_dict()["adversary"]`` payload: the run's summed
    counters (none at all for an inert plan) under the config's kind
    and intensity."""
    return {"kind": config.kind, "intensity": config.intensity,
            **_ZERO_COUNTERS, **counters}


def install_adversary(config: Optional[AdversaryConfig], sim, rngs,
                      media: Mapping[int, Any], until_ns: int
                      ) -> Optional[AdversaryRuntime]:
    """Attach jammers / mutators to each medium of the world's
    ``{channel: Medium}`` map, in its order.

    Greedy stations are not installed here — they replace honest
    client MACs at build time (see ``CellBuilder.make_mac``); the
    builder hands its ``greedy_macs`` to the returned runtime.

    Returns None (and touches nothing) for inactive plans.
    """
    if config is None:
        return None
    config.validate()
    if not config.active:
        return None
    runtime = AdversaryRuntime(config)
    if config.kind == "jammer":
        for channel, medium in media.items():
            jammer = Jammer(
                sim, medium,
                rngs.stream(f"adversary:jam:ch{channel}"),
                config, until_ns)
            jammer.start()
            runtime.jammers.append(jammer)
    elif config.kind == "mutator":
        for channel, medium in media.items():
            mutator = AirframeMutator(
                rngs.stream(f"adversary:mutate:ch{channel}"), config)
            medium.tamper = mutator
            runtime.mutators.append(mutator)
    return runtime
