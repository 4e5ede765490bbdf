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

Three flavours (``mutate_mode``):

* ``flip``  — flip one random bit of the payload (transient damage
  the §3.4 retention loop should absorb);
* ``cid``   — forge the explicit CID byte of an entry to a *different
  CID seen earlier on this channel*, steering the entry into the
  wrong flow's context (a context-collision attack; falls back to a
  bit flip when no entry carries an explicit CID);
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

from ..rohc.packets import ParseError, parse_frame
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
        self.bit_flips = 0
        self.cid_forges = 0
        self.storm_bursts = 0
        self.tamper_errors = 0
        self._storm_left = 0
        self._seen_cids: set = set()

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
        self._note_cids(payload)
        if self._storm_left > 0:
            self._storm_left -= 1
        elif self.rng.random() < self.config.intensity:
            if self.config.mutate_mode == "storm":
                self._storm_left = STORM_FRAMES - 1
                self.storm_bursts += 1
        else:
            return
        mutated = self._mutate(payload)
        if mutated is not None and len(mutated) == len(payload):
            frame.hack_payload = mutated
            self.frames_mutated += 1

    # -- corruption flavours ------------------------------------------
    def _mutate(self, payload: bytes):
        if self.config.mutate_mode == "cid":
            forged = self._forge_cid(payload)
            if forged is not None:
                return forged
        return self._flip_bit(payload)

    def _flip_bit(self, payload: bytes) -> bytes:
        data = bytearray(payload)
        index = self.rng.randint(0, len(data) - 1)
        data[index] ^= 1 << self.rng.randint(0, 7)
        self.bit_flips += 1
        return bytes(data)

    def _cid_offsets(self, payload: bytes):
        """Byte offsets of every explicit CID in a valid frame."""
        _, entries = parse_frame(payload)
        offsets = []
        pos = 2
        for entry in entries:
            if not entry.same_cid:
                offsets.append(pos + 2)
            pos += entry.size
        return offsets

    def _forge_cid(self, payload: bytes):
        try:
            offsets = self._cid_offsets(payload)
        except ParseError:
            return None
        if not offsets:
            return None
        data = bytearray(payload)
        offset = offsets[self.rng.randint(0, len(offsets) - 1)]
        current = data[offset]
        # Steer the entry into another flow's context when we have
        # seen one; otherwise invent a colliding CID deterministically.
        candidates = sorted(self._seen_cids - {current})
        if candidates:
            forged = candidates[self.rng.randint(
                0, len(candidates) - 1)]
        else:
            forged = current ^ 0xA5
        data[offset] = forged
        self.cid_forges += 1
        return bytes(data)

    def _note_cids(self, payload: bytes) -> None:
        try:
            for offset in self._cid_offsets(payload):
                self._seen_cids.add(payload[offset])
        except ParseError:
            pass  # previously corrupted frame; nothing to learn

    def counters(self) -> dict:
        return {
            "hack_frames_seen": self.frames_seen,
            "frames_mutated": self.frames_mutated,
            "bit_flips": self.bit_flips,
            "cid_forges": self.cid_forges,
            "storm_bursts": self.storm_bursts,
            "tamper_errors": self.tamper_errors,
        }
