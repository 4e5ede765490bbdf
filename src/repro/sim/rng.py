"""Seeded random number streams.

Each subsystem draws from its own named stream so that, for example,
adding an extra random draw in the PHY error model does not perturb the
MAC backoff sequence.  This is the standard trick for run-to-run
comparability in network simulators (ns-3 does the same).
"""

from __future__ import annotations

import random
from typing import Dict


class RngRegistry:
    """A registry of independent ``random.Random`` streams.

    Streams are derived deterministically from a master seed plus the
    stream name, so two simulations with the same seed see identical
    randomness regardless of stream creation order.
    """

    def __init__(self, seed: int = 1):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the named stream."""
        if name not in self._streams:
            # Stable derivation: hash the name into the seed space.
            derived = (self.seed * 1_000_003 + _stable_hash(name)) % (2 ** 63)
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def namespace(self, prefix: str) -> "RngNamespace":
        """A view whose stream names are prefixed with ``prefix:``.

        Lets a subsystem hand out per-entity streams (per client, per
        user, per arrival process) without risking a name collision
        with another subsystem's streams — the traffic layer uses
        ``registry.namespace("traffic")`` for exactly this.
        """
        return RngNamespace(self, prefix)


class RngNamespace:
    """A prefixed view onto an :class:`RngRegistry`.

    Same ``stream(name)`` contract; the underlying stream is derived
    from ``"<prefix>:<name>"`` so determinism and creation-order
    independence carry over unchanged.
    """

    def __init__(self, registry: RngRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix

    def stream(self, name: str) -> random.Random:
        return self._registry.stream(f"{self._prefix}:{name}")

    def namespace(self, prefix: str) -> "RngNamespace":
        return RngNamespace(self._registry,
                            f"{self._prefix}:{prefix}")


def _stable_hash(name: str) -> int:
    """A deterministic (non-salted) string hash.

    ``hash()`` is randomised per interpreter run for strings, which would
    break reproducibility, so we roll a simple FNV-1a.
    """
    value = 0xcbf29ce484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001b3) % (2 ** 64)
    return value
