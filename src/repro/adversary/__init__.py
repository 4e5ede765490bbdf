"""Adversarial scenario family: misbehaving stations and ROHC attacks.

Every scenario the repo shipped before this package was cooperative, so
the suite answered *how well* HACK performs but not *how gracefully it
degrades* — the deployment question the paper leaves open, since the
decompressor carries stateful per-CID context that a single corrupted
compressed ACK can desynchronize.  This package makes attacks
first-class, deterministic, seed-replayable scenario ingredients:

* :class:`~repro.adversary.config.AdversaryConfig` — a frozen, fully
  declarative fault-injection plan embedded in ``ScenarioConfig`` (so
  sweep caching, sharding and replay treat attacked runs exactly like
  cooperative ones): the attack's kind, its intensity and the
  mutator's mode; each actor owns the rest of its attack as module
  constants;
* :class:`~repro.adversary.greedy.GreedyDcfMac` — a CW-cheating
  station that shrinks its contention window (MAC-layer selfishness;
  :data:`~repro.adversary.greedy.GREEDY_STATIONS` of them);
* :class:`~repro.adversary.jammer.Jammer` — duty-cycled energy-only
  interference on a :class:`~repro.sim.medium.Medium`;
* :class:`~repro.adversary.mutator.AirframeMutator` — an on-air
  mutator for compressed-ACK payloads (one-frame bit flips or
  multi-frame desync storms) installed via ``Medium.tamper``.

A zero-intensity adversary installs *nothing* — runs are bit-identical
to cooperative ones (the oracle test pins this).  Under attack, every
injected fault must land in a typed counter; no exception may escape
into the event loop (the hardened ``Decompressor`` and ``HackDriver``
guarantee it, and the ``adversarial`` experiment's resilience criteria
check it per row).
"""

from .config import AdversaryConfig
from .greedy import GreedyDcfMac
from .jammer import Jammer
from .mutator import AirframeMutator
from .runtime import AdversaryRuntime, install_adversary

__all__ = [
    "AdversaryConfig",
    "AdversaryRuntime",
    "AirframeMutator",
    "GreedyDcfMac",
    "Jammer",
    "install_adversary",
]
