"""On-air corruption of compressed-ACK payloads.

Installed as the :attr:`~repro.sim.medium.Medium.tamper` hook, the
mutator sees every *cleanly delivered* frame on its channel and —
with per-frame probability ``intensity`` — rewrites the HACK payload
just before dispatch.  Collisions and PHY losses already destroy whole
frames; the mutator models the nastier adversary the paper's §3.3 CRC
argument is about: frames that pass the link-layer FCS but carry
*wrong* compressed-ACK bytes, so only ROHC's own 3-bit CRC and the
decompressor's containment logic stand between the attacker and a
desynchronized TCP connection.

Two flavours (``mutate_mode``), each flipping one random bit of the
payload per corrupted frame:

* ``flip``  — one frame per trigger (transient damage the §3.4
  retention loop should absorb);
* ``storm`` — each trigger corrupts :data:`STORM_FRAMES`
  *consecutive* HACK frames, defeating retention's
  retry-the-same-bytes recovery and driving the context into declared
  desync.

Mutation happens at delivery time through the managed
``hack_payload`` setter with an equal-length payload, so airtime,
event timing and the compressor's own state are untouched — the
attack is purely on the receiver's parse/apply path.  The whole hook
body is exception-guarded: a mutator bug becomes a counted
``tamper_errors``, never an event-loop crash.
"""

from __future__ import annotations

from .config import AdversaryConfig

#: storm: consecutive HACK frames corrupted per trigger.
STORM_FRAMES = 8


class AirframeMutator:
    """Callable for ``Medium.tamper``; one instance per channel."""

    def __init__(self, rng, config: AdversaryConfig):
        self.rng = rng
        self.config = config
        self.frames_seen = 0
        self.frames_mutated = 0
        self.storm_bursts = 0
        self.tamper_errors = 0
        self._storm_left = 0

    # -- Medium.tamper entry point ------------------------------------
    def __call__(self, frame) -> None:
        try:
            self._tamper(frame)
        except Exception:
            self.tamper_errors += 1

    def _tamper(self, frame) -> None:
        payload = getattr(frame, "hack_payload", None)
        if not payload:
            return
        self.frames_seen += 1
        if self._storm_left > 0:
            self._storm_left -= 1
        elif self.rng.random() < self.config.intensity:
            if self.config.mutate_mode == "storm":
                self._storm_left = STORM_FRAMES - 1
                self.storm_bursts += 1
        else:
            return
        data = bytearray(payload)
        index = self.rng.randint(0, len(data) - 1)
        data[index] ^= 1 << self.rng.randint(0, 7)
        frame.hack_payload = bytes(data)
        self.frames_mutated += 1

    def counters(self) -> dict:
        return {
            "hack_frames_seen": self.frames_seen,
            "frames_mutated": self.frames_mutated,
            "storm_bursts": self.storm_bursts,
            "tamper_errors": self.tamper_errors,
        }
