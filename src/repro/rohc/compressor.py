"""Transmit-side ROHC compressor for TCP ACKs.

One compressor serves one link direction (e.g. client -> AP) and holds
one context per flow CID.  It assigns the link-wide master sequence
number (MSN) that the retention/duplicate-discard machinery of §3.4 is
built on.

Contexts are established by *vanilla* ACKs (no IR packets): the caller
must report every uncompressed ACK it transmits via
:meth:`note_vanilla_ack`, which both creates contexts and keeps the
delta references in sync with what the decompressor (which snoops the
same vanilla ACKs) believes.  Whenever synchronisation cannot be
assumed — a flow's first compressed ACK after vanilla ones, or after
the driver discarded unconfirmed compressed ACKs — the next entry is
encoded in absolute (rebase) form.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..tcp.segment import TcpSegment
from .context import CompressorContext, cid_for_flow, cid_for_key
from .packets import CompressedAck, encode_update


class Compressor:
    """Per-link-direction TCP ACK compressor."""

    def __init__(self, init_threshold: int = 1):
        #: Vanilla ACKs that must precede compression of a new flow
        #: (gives the decompressor its context; paper §3.3.2 item 1:
        #: the default, 1, is the paper's).
        self.init_threshold = init_threshold
        self.contexts: Dict[int, CompressorContext] = {}
        self._flow_of_cid: Dict[int, Tuple] = {}
        #: Flow key -> its context, for every flow owning its CID:
        #: ``contexts`` and ``_flow_of_cid`` read from the flow's side.
        self._context_of_flow: Dict[Tuple, CompressorContext] = {}
        self._blocked_flows = set()
        self._last_cid: Optional[int] = None
        self.next_msn = 0
        # Counters.
        self.compressed_count = 0
        self.compressed_bytes = 0
        self.collisions = 0

    # ------------------------------------------------------------------
    def _context_for(self, segment: TcpSegment,
                     create: bool) -> Optional[CompressorContext]:
        key = segment.five_tuple.key()
        if key in self._blocked_flows:
            return None
        cid = cid_for_flow(segment.five_tuple)
        owner = self._flow_of_cid.get(cid)
        if owner is None:
            if not create:
                return None
            context = CompressorContext(
                cid=cid, five_tuple=segment.five_tuple,
                flow_id=segment.flow_id, src=segment.src,
                dst=segment.dst)
            self.contexts[cid] = context
            self._flow_of_cid[cid] = key
            self._context_of_flow[key] = context
            return context
        if owner != key:
            # CID collision: the newer flow falls back to vanilla ACKs.
            self.collisions += 1
            self._blocked_flows.add(key)
            return None
        return self.contexts[cid]

    # ------------------------------------------------------------------
    def note_vanilla_ack(self, segment: TcpSegment
                         ) -> Optional[CompressorContext]:
        """Record an ACK that is being sent uncompressed; returns its
        flow's context (None: not an ACK, or the flow lost its CID)."""
        if not segment.is_pure_ack:
            return None
        context = self._context_for(segment, create=True)
        if context is not None:
            context.note_vanilla(segment)
        return context

    def established_context(self, segment: TcpSegment
                            ) -> Optional[CompressorContext]:
        """The context ``segment`` can be compressed against now, or
        None when it must go out vanilla: a data segment, a flow that
        lost its CID to another, or one the peer has not yet seen
        ``init_threshold`` vanilla ACKs of."""
        if not segment.is_pure_ack:
            return None
        # ``_context_for(segment, create=False)`` without the hash: it
        # returns the context exactly when the flow owns its CID (a
        # flow is blocked only while another owns it, so an owner is
        # never blocked), which is when ``_context_of_flow`` has it.
        context = self._context_of_flow.get(segment.five_tuple.key())
        if context is None or context.vanilla_seen < self.init_threshold:
            return None
        return context

    def can_compress(self, segment: TcpSegment) -> bool:
        """True if this ACK's flow has an established context."""
        return self.established_context(segment) is not None

    def compress(self, segment: TcpSegment,
                 context: Optional[CompressorContext] = None
                 ) -> CompressedAck:
        """Compress one ACK, advancing the context and the MSN.
        ``context`` is what :meth:`established_context` just returned
        for it, when the caller already asked."""
        if context is None:
            context = self.established_context(segment)
            if context is None:
                raise ValueError("flow context not established; send "
                                 "the ACK vanilla first (use "
                                 "can_compress)")
        same_cid = self._last_cid == context.cid
        msn = self.next_msn
        data = encode_update(context.state, segment, context.cid,
                             same_cid, msn, context.rebase_needed)
        context.rebase_needed = False
        self._last_cid = context.cid
        self.next_msn += 1
        self.compressed_count += 1
        self.compressed_bytes += len(data)
        return CompressedAck(msn, context.cid, data, segment)

    def release_flow(self, five_tuple) -> bool:
        """Free the context (and CID) of a finished flow.

        CIDs are one hash byte, so a long-lived link with flow churn
        would otherwise exhaust them: stale contexts would turn every
        later hash collision into a permanently uncompressible flow.
        Releasing makes the CID reusable — the next flow that maps to
        it re-establishes context via its initial vanilla ACKs.  Flows
        that were *blocked* by a collision with this CID become
        compressible again too.
        """
        key = five_tuple.key()
        cid = cid_for_flow(five_tuple)
        released = False
        if self._flow_of_cid.get(cid) == key:
            del self._flow_of_cid[cid]
            del self._context_of_flow[key]
            self.contexts.pop(cid, None)
            if self._last_cid == cid:
                # The next entry must carry an explicit CID: "same as
                # previous" must never point at a released context.
                self._last_cid = None
            # Flows that lost the CID race against this one were
            # marked permanently uncompressible; with the CID free
            # they may claim it (their next vanilla ACKs rebuild
            # context at both ends).
            self._blocked_flows = {
                k for k in self._blocked_flows
                if cid_for_key(k) != cid}
            released = True
        self._blocked_flows.discard(key)
        return released

    def rebase_all(self) -> None:
        """Force the next compressed ACK of every flow to be absolute
        and to carry an explicit CID.

        Called after compressed ACKs were discarded unconfirmed: the
        decompressor may have missed both the delta state and the CID
        chain, so the next entry must be self-contained."""
        for context in self.contexts.values():
            context.rebase_needed = True
        self._last_cid = None
