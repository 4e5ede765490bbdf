"""Declarative fault-injection plan (`ScenarioConfig.adversary`).

Kept dependency-free so ``repro.workloads.scenarios`` can embed it in
``ScenarioConfig`` without import cycles; the actors that interpret it
live in the sibling modules.  The config is a plain frozen dataclass:
``dataclasses.asdict`` (the sweep-cache signature path) and canonical
JSON both serialize it with no special casing, so an attacked sweep
point caches, shards and replays exactly like a cooperative one.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("greedy", "jammer", "mutator")
JAM_MODES = ("periodic", "reactive")
MUTATE_MODES = ("flip", "storm")


@dataclass(frozen=True)
class AdversaryConfig:
    """One attack, one intensity — deterministic and seed-replayable.

    ``intensity`` is the single cross-attack severity dial in [0, 1]:

    * ``greedy``  — contention-window shrink factor: the cheater draws
      backoff from ``cw * (1 - intensity)`` (1.0 = always zero slots);
    * ``jammer``  — target jamming duty cycle (periodic) or the
      probability of reacting to a busy transition (reactive);
    * ``mutator`` — per-frame probability that a compressed-ACK
      payload is corrupted in flight.

    ``intensity == 0`` is the inert plan: no actor is installed and the
    run is bit-identical to ``adversary=None`` except for the zeroed
    ``metrics_dict()["adversary"]`` block.  Everything else about an
    attack (how many stations cheat, the jammer's cycle and pulse, the
    storm length) is a constant of the actor that runs it.
    """

    kind: str                     # greedy | jammer | mutator
    intensity: float = 0.0
    #: jammer: burst scheduling discipline.
    jam_mode: str = "periodic"    # periodic | reactive
    #: mutator: corruption flavour (one-frame bit flip, or a
    #: multi-frame desync storm).
    mutate_mode: str = "flip"     # flip | storm

    @property
    def active(self) -> bool:
        """Whether any actor gets installed at all."""
        return self.intensity > 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("adversary intensity must be in [0, 1], "
                             f"got {self.intensity!r}")
        if self.jam_mode not in JAM_MODES:
            raise ValueError(f"unknown jam_mode {self.jam_mode!r}")
        if self.mutate_mode not in MUTATE_MODES:
            raise ValueError(
                f"unknown mutate_mode {self.mutate_mode!r}")
