"""Receive-side ROHC decompressor for TCP ACKs.

Applies HACK-frame entries strictly in master-sequence order and
discards duplicates — the §3.4 mechanism that lets the client blindly
re-send the same compressed ACKs on every LL ACK until confirmed.

Failure containment (hardened for the adversarial scenario family):
every way a frame can be wrong — truncated, trailing garbage, broken
MSN chain, unknown CID, CRC-3 mismatch, or an outright crash in the
entry machinery — is absorbed here as a *typed, counted drop*; nothing
ever propagates into the event loop.  The CRC path is two-staged:

* a **first** mismatch on a context aborts the rest of the frame
  *without consuming the entry's MSN* (``mid_frame_aborts``).  §3.4
  retention means the peer re-offers the same bytes on the next LL
  ACK, so a transient on-air flip gets a free retry before any state
  is condemned;
* a **second consecutive** mismatch on the same context declares a
  desynchronization (``desync_events``): the context gets a damage
  mark, delta entries are skipped (``damaged_skips``) until an
  absolute entry or a snooped vanilla ACK repairs it, and the repair
  latency is measured (``recovery_ns_total`` over ``recoveries``,
  plus ``recovery_frames_total`` HACK frames spent damaged).

A context is desynced exactly while it holds a mark, and a mark ends
one of three ways, so the desync book balances by construction::

    desync_events == recoveries + open_desyncs + released_desyncs

``released_desyncs`` counts flows that ended while desynced
(:meth:`Decompressor.release_flow`); ``open_desync_ns_total`` is the
summed age of the marks still open when the counters are read — a
bound on the oldest of them, and a sum, so it merges like every other
counter.

The paper's cooperative claim (Fig. 11: zero decompression CRC
failures in practice) means none of this machinery runs outside an
attack — cooperative runs stay bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..tcp.segment import TcpSegment
from .context import DecompressorContext, cid_for_flow
from .crc import crc3_u64x5
from .packets import ACK_ABSOLUTE, ParseError, apply_entry, parse_frame
from .wlsb import lsb_decode


class Decompressor:
    """Per-link-direction TCP ACK decompressor."""

    #: Interpretation window offset for the 8-bit first-entry MSN:
    #: retained (retransmitted) entries may reach this far behind.
    MSN_P = 128

    #: Consecutive CRC mismatches on one context before it is declared
    #: desynchronized (the first one is treated as transient damage and
    #: left for §3.4 retention to retry).
    DESYNC_AFTER = 2

    #: Sentinel ``_apply`` returns for a first (retryable) CRC miss.
    _RETRY = object()

    #: Keys of ``metrics_dict()["decompressor"]``: the int attributes
    #: of that name (:meth:`counters`).
    COUNTER_KEYS = ("acks_reconstructed", "crc_failures", "unknown_cid",
                    "duplicates_skipped", "damaged_skips", "parse_errors")
    #: This class's keys of ``metrics_dict()["rohc"]``, all zero in
    #: cooperative runs (:meth:`robustness_counters`).
    ROBUSTNESS_KEYS = ("mid_frame_aborts", "desync_events", "recoveries",
                       "open_desyncs", "released_desyncs",
                       "open_desync_ns_total", "recovery_ns_total",
                       "recovery_frames_total", "internal_errors")

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self.contexts: Dict[int, DecompressorContext] = {}
        self.last_msn = -1
        #: CID of the last entry in MSN order (the ``same_cid`` chain is
        #: global across frames, mirroring the compressor's state).
        self._last_cid: Optional[int] = None
        #: Time source for recovery-latency measurement (the driver
        #: passes the simulator clock); None reads as 0.
        self.clock = clock
        # Counters.
        self.acks_reconstructed = 0
        self.duplicates_skipped = 0
        self.crc_failures = 0
        self.unknown_cid = 0
        self.damaged_skips = 0
        self.parse_errors = 0
        self.frames_processed = 0
        # Robustness counters (all zero in cooperative runs).
        self.mid_frame_aborts = 0
        self.desync_events = 0
        self.recoveries = 0
        self.released_desyncs = 0
        self.recovery_ns_total = 0
        self.recovery_frames_total = 0
        self.internal_errors = 0
        #: cid -> consecutive CRC-mismatch count (reset by any success).
        self._crc_streaks: Dict[int, int] = {}
        #: cid -> (declared-at ns, frames_processed then) while desynced:
        #: the one record of a context's desync.
        self._damage_marks: Dict[int, Tuple[int, int]] = {}

    def _now(self) -> int:
        return self.clock() if self.clock is not None else 0

    # ------------------------------------------------------------------
    def note_vanilla_ack(self, segment: TcpSegment) -> None:
        """Snoop an uncompressed ACK to create/refresh its context."""
        if not segment.is_pure_ack:
            return
        cid = cid_for_flow(segment.five_tuple)
        context = self.contexts.get(cid)
        if context is None:
            context = DecompressorContext(
                cid=cid, five_tuple=segment.five_tuple,
                flow_id=segment.flow_id, src=segment.src,
                dst=segment.dst)
            self.contexts[cid] = context
        if context.note_vanilla(segment) and cid in self._damage_marks:
            # A vanilla ACK re-established the context out-of-band —
            # the second of the two §3.3.2 repair paths.
            self._mark_recovered(cid)

    def release_flow(self, five_tuple) -> bool:
        """Drop the context of a finished flow (mirror of the
        compressor-side release): the CID becomes reusable and the
        next flow hashing to it re-initialises via vanilla ACKs
        instead of mis-decoding against stale state."""
        cid = cid_for_flow(five_tuple)
        context = self.contexts.get(cid)
        if context is None or \
                context.five_tuple.key() != five_tuple.key():
            return False
        del self.contexts[cid]
        self._crc_streaks.pop(cid, None)
        if self._damage_marks.pop(cid, None) is not None:
            # Died desynced: the mark closes without a recovery.
            self.released_desyncs += 1
        if self._last_cid == cid:
            self._last_cid = None
        return True

    # ------------------------------------------------------------------
    def decompress_frame(self, data: bytes) -> List[TcpSegment]:
        """Reconstruct the new (non-duplicate) TCP ACKs in a frame.

        Never raises: corruption of any shape lands in a counter."""
        self.frames_processed += 1
        try:
            first_msn8, entries = parse_frame(data)
        except ParseError:
            self.parse_errors += 1
            return []
        except Exception:
            self.internal_errors += 1
            return []
        first_msn = lsb_decode(first_msn8, 8, self.last_msn + 1,
                               p=self.MSN_P)
        output: List[TcpSegment] = []
        for index, entry in enumerate(entries):
            msn = first_msn + index
            if entry.msn_nibble != (msn & 0xF):
                # MSN chain broken: do not trust the rest of the frame.
                self.parse_errors += 1
                break
            if msn > self.last_msn + 1 and entry.same_cid:
                # An MSN gap (the peer discarded unconfirmed entries)
                # invalidates the CID chain; the compressor emits an
                # explicit CID after such discards, so a same_cid entry
                # here is undecodable.
                self.parse_errors += 1
                self._last_cid = None
                self.last_msn = max(self.last_msn, msn)
                continue
            if not entry.same_cid:
                self._last_cid = entry.cid
            cid = self._last_cid
            if msn <= self.last_msn:
                self.duplicates_skipped += 1
                continue
            prev_msn = self.last_msn
            self.last_msn = msn
            if cid is None:
                self.parse_errors += 1
                continue
            try:
                segment = self._apply(cid, entry)
            except Exception:
                # Nothing the wire can carry may crash the receive
                # path; a blow-up in the entry machinery becomes a
                # counted drop of the rest of the frame.
                self.internal_errors += 1
                break
            if segment is self._RETRY:
                # First CRC miss on this context: leave the entry
                # unconsumed and stop trusting the rest of the frame.
                # §3.4 retention re-offers the same bytes, so transient
                # corruption gets a free retry before the context is
                # condemned (DESYNC_AFTER).
                self.last_msn = prev_msn
                self.mid_frame_aborts += 1
                break
            if segment is not None:
                output.append(segment)
        return output

    def _apply(self, cid: int, entry) -> Optional[TcpSegment]:
        context = self.contexts.get(cid)
        if context is None:
            self.unknown_cid += 1
            return None
        marks = self._damage_marks
        desynced = cid in marks if marks else False
        if desynced and entry.ack_mode != ACK_ABSOLUTE:
            self.damaged_skips += 1
            return None
        new_state = apply_entry(entry, context.state)
        # The CRC-3 of new_state.crc_input(), fields in that order.
        if crc3_u64x5(new_state.ack, new_state.ts_val, new_state.ts_ecr,
                      new_state.rwnd, new_state.seq) != entry.crc:
            self.crc_failures += 1
            streak = self._crc_streaks.get(cid, 0) + 1
            self._crc_streaks[cid] = streak
            if streak < self.DESYNC_AFTER:
                return self._RETRY
            # Repeated mismatch: the context itself no longer agrees
            # with the compressor.  Declare desync; delta entries are
            # dead weight until an absolute entry or a vanilla ACK
            # re-anchors the state.
            self._crc_streaks.pop(cid, None)
            if not desynced:
                self.desync_events += 1
                marks[cid] = (self._now(), self.frames_processed)
            return None
        context.state = new_state
        if self._crc_streaks:
            self._crc_streaks.pop(cid, None)
        if desynced:
            # An absolute (rebase) entry repaired the context in-band.
            self._mark_recovered(cid)
        self.acks_reconstructed += 1
        return TcpSegment(
            context.flow_id, context.src, context.dst, new_state.seq,
            0, new_state.ack, new_state.rwnd, new_state.ts_val,
            new_state.ts_ecr, entry.sack_blocks, context.five_tuple)

    # ------------------------------------------------------------------
    def _mark_recovered(self, cid: int) -> None:
        declared_ns, declared_frames = self._damage_marks.pop(cid)
        self.recoveries += 1
        self.recovery_ns_total += self._now() - declared_ns
        self.recovery_frames_total += (self.frames_processed
                                       - declared_frames)

    @property
    def open_desyncs(self) -> int:
        """Contexts currently declared desynchronized."""
        return len(self._damage_marks)

    @property
    def open_desync_ns_total(self) -> int:
        """Summed age of the open desyncs, now."""
        now = self._now()
        return sum(now - declared_ns
                   for declared_ns, _ in self._damage_marks.values())

    def counters(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in self.COUNTER_KEYS}

    def robustness_counters(self) -> Dict[str, int]:
        """The attack-facing counters (all zero cooperatively)."""
        return {key: getattr(self, key) for key in self.ROBUSTNESS_KEYS}
