"""DCF / EDCA medium-access state machine.

One :class:`DcfMac` instance per station.  Responsibilities:

* carrier sense + DIFS/AIFS deference + slotted binary-exponential
  backoff (CW doubling on failed exchanges, post-transmission backoff);
* per-destination transmit queues, round-robin service, drop-tail
  bounds;
* 802.11a operation: single MPDUs, ACK after SIFS, per-frame retries;
* 802.11n operation: A-MPDU batches, Block ACK / BAR exchanges with the
  originator window, per-MPDU retries, SYNC flag after BAR give-up;
* the MORE DATA bit, set exactly when more packets for the same
  destination remain queued after a batch is formed (paper §3.2);
* response generation (ACK / Block ACK) after SIFS plus an optional
  device-specific extra delay (the SoRa late-ACK quirk), with HACK
  payloads obtained from the upper layer at response-build time.

The upper layer (a HACK driver or a plain node) implements
:class:`MacUpper`; all TCP-awareness lives up there, never here — the
MAC treats HACK payloads as opaque bytes, matching the paper's design
goal of NIC simplicity.

Carrier sense belongs to the medium, not to the station.  The idle
clock is ``Medium.idle_since``; a station asks ``Medium.defer`` to be
woken once the channel has been idle for its IFS (DIFS, or EIFS after a
bad frame), and the medium answers every station whose wait ends at the
same instant with one heap entry.  The station is visited on a busy or
idle edge only while the edge concerns it: ``_contending`` says it holds
a job or an undrawn-down backoff and is outside its own exchange (the
idle edge then makes it wait), a running ``_backoff_event`` says it has
a countdown to freeze (the busy edge then calls ``on_channel_busy``).
A station with nothing to send, or one transmitting or awaiting its
response, costs the medium an attribute test per edge; ``_has_work`` is
consulted when a packet arrives at a jobless station and when an
exchange ends, never on an edge.

Event-ordering subtlety: a station whose IFS wait or backoff ends in
the same slot as another station's transmission start must still
transmit (both committed before carrier could be sensed), so a busy
edge only cancels wakes and countdown events due strictly later than
"now".

The backoff countdown is *lazy*: instead of one simulator event per
slot, a single expiry event is scheduled ``slots * slot_ns`` ahead when
the medium has stayed idle through the IFS.  A busy transition freezes
the countdown by cancelling that event and crediting the integral
number of fully elapsed slots (a boundary landing exactly on "now"
counts, exactly as the per-slot timer would have decremented before
noticing the busy medium); the remainder resumes after the next
idle + IFS.  This produces bit-identical behaviour to the historical
slotted countdown, and the medium's wake to the historical one defer
event per station; both are kept verbatim in
``tests/mac/slotted_reference.py`` as oracles.

The backoff and response-timeout timers are plain cancellable events,
not :class:`~repro.sim.engine.Timer` objects: see that module's
docstring for why laziness would not pay at these time scales.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..phy.errors import loses_mpdus
from ..phy.params import PhyParams
from ..sim.engine import Simulator
from ..sim.medium import DEFAULT_CELL, Medium, MediumListener
from ..stats.collectors import MacStats
from .aggregation import build_batch, drain_batch
from .blockack import BlockAckOriginator, BlockAckRecipient
from .frames import AckFrame, AmpduFrame, BarFrame, BlockAckFrame, \
    DataFrame, Mpdu
from .params import MacParams
from .qdisc import DropTailQueue, QdiscStats, make_queue


class MacUpper:
    """Upper-layer interface; all methods optional (default no-ops)."""

    def on_mpdus_delivered(self, mpdus: List[Mpdu], sender: str) -> None:
        """The new (non-duplicate) data MPDUs one PPDU from ``sender``
        released to this station, in delivery order — the MAC's one
        hand-off per PPDU."""

    def on_data_ppdu(self, frame: Any, sender: str,
                     readable_mpdus: Sequence[Mpdu]) -> None:
        """A data PPDU from ``sender`` arrived; ``readable_mpdus`` are
        the FCS-passing MPDUs (duplicates included).  HACK drivers use
        this for MORE DATA latching and implicit-confirmation logic."""

    def hack_payload_for(self, peer: str) -> Optional[bytes]:
        """Compressed TCP ACK bytes to append to an outgoing LL ACK/
        Block ACK towards ``peer`` (None = stock response)."""

    def on_ll_response_tx(self, peer: str, response: Any,
                          hack_payload: Optional[bytes]) -> None:
        """This station just sent ``response`` (possibly augmented)."""

    def on_ll_ack_rx(self, frame: Any, sender: str) -> None:
        """An LL ACK / Block ACK arrived (AP extracts HACK payloads)."""

    def on_bar_rx(self, bar: BarFrame, sender: str) -> None:
        """A Block ACK Request arrived from ``sender``."""


class _Job:
    """The MAC's single head-of-line transmission exchange.

    Data jobs are *materialised lazily*: the destination is chosen when
    the job becomes head-of-line, but the batch contents (and therefore
    the MORE DATA bit) are drawn from the queue only when the station
    actually wins the medium — exactly when the paper's AP "forms the
    batch"."""

    __slots__ = ("kind", "dst", "mpdus", "is_batch", "bar_retries",
                 "ready_at", "stat_kind", "materialized", "ampdu_bytes")

    def __init__(self, kind: str, dst: str, is_batch: bool,
                 ready_at: int):
        self.kind = kind          # "data"; "bar" once a Block ACK is missed
        self.dst = dst
        self.mpdus: List[Mpdu] = []
        self.is_batch = is_batch
        self.bar_retries = 0
        self.ready_at = ready_at
        self.stat_kind = "control"
        self.materialized = False
        #: The A-MPDU's length when ``drain_batch`` summed it (0: not).
        self.ampdu_bytes = 0


def _payload_kind(mpdu: Mpdu) -> str:
    return getattr(mpdu.payload, "kind", "data")


class DcfMac(MediumListener):
    """802.11 DCF/EDCA MAC for one station."""

    def __init__(self, sim: Simulator, medium: Medium, phy: PhyParams,
                 address: str, params: MacParams, rng,
                 upper: Optional[MacUpper] = None,
                 stats: Optional[MacStats] = None,
                 loss_model=None, cell: Any = DEFAULT_CELL):
        self.sim = sim
        self.medium = medium
        self.phy = phy
        self.address = address
        self.params = params
        self.rng = rng
        self.upper = upper if upper is not None else MacUpper()
        #: The book of MPDU fates (shared by a world's MACs; a MAC
        #: built without one keeps its own).
        self.stats = stats if stats is not None else MacStats()
        self.loss_model = loss_model
        #: Co-channel dispatch group (BSS) this station decodes frames
        #: in; stations of other cells only share carrier sense and
        #: collisions with it (see repro.sim.medium).
        self.cell = cell
        self._attach()

        # Transmit-side state.  Per-destination queues are built by the
        # configured queue discipline (drop-tail / CoDel / FQ-CoDel);
        # all of one station's queues share a single queue book.
        self._queues: Dict[str, Any] = {}
        self.qdisc_stats = QdiscStats()
        self._dest_order: List[str] = []
        self._rr_index = 0
        self._originators: Dict[str, BlockAckOriginator] = {}
        self._recipients: Dict[str, BlockAckRecipient] = {}
        self._sync_pending: Dict[str, bool] = {}

        # Contention state
        self._cw = phy.cw_min
        self._backoff_slots: Optional[int] = None
        #: Whether a busy/idle edge concerns this station: the medium
        #: reads it, ``_use_eifs`` and ``_backoff_event`` on an edge.
        self._contending = False
        self._ifs_wake = None        # the medium's wake we wait in
        self._backoff_event = None   # the single lazy expiry event
        self._backoff_anchor = 0     # when the running countdown started
        self._use_eifs = False

        # Exchange state
        self._current_job: Optional[_Job] = None
        self._transmitting = False
        self._awaiting_response = False
        self._response_timeout_event = None

    def _attach(self) -> None:
        # Overridden by the eager oracle in tests/mac/slotted_reference.py,
        # which does its own carrier sense as a plain listener.
        self.medium.attach(self, cell=self.cell, contender=True)

    # ==================================================================
    # Upper-layer API
    # ==================================================================
    def enqueue(self, payload: Any, dst: str) -> bool:
        """Queue a higher-layer packet for ``dst``.  False on tail drop."""
        queue = self._queues.get(dst)
        if queue is None:
            queue = self._queue_for(dst)
        limit = self.params.queue_limit
        if limit is not None and len(queue) >= limit:
            self.qdisc_stats.tail_drops += 1
            return False
        queue.append(payload)
        self.qdisc_stats.enqueued += 1
        # _maybe_start_contention returns at once while an exchange is
        # ours; its own first test, made here without the call.
        if not (self._transmitting or self._awaiting_response):
            self._maybe_start_contention()
        return True

    def queue_depth(self, dst: str) -> int:
        """Fresh packets queued for ``dst`` (excluding MAC retries)."""
        return len(self._queues.get(dst, ()))

    def backlog(self, dst: str) -> int:
        """Fresh + retry packets pending for ``dst``."""
        extra = 0
        if dst in self._originators:
            orig = self._originators[dst]
            extra = len(orig.retry_queue) + len(orig.in_flight)
        return self.queue_depth(dst) + extra

    def total_backlog(self) -> int:
        """Backlog summed over every destination (telemetry probe:
        the station's whole MAC-level queue occupancy)."""
        destinations = set(self._queues)
        destinations.update(self._originators)
        return sum(self.backlog(dst) for dst in destinations)

    def remove_from_queue(self, dst: str, predicate) -> List[Any]:
        """Withdraw queued (not yet MPDU-wrapped) payloads matching
        ``predicate``.  Used by the opportunistic HACK policy to yank
        vanilla TCP ACKs that can ride a Block ACK instead."""
        queue = self._queues.get(dst)
        if not queue:
            return []
        # Filtering in place (rather than rebuilding the container)
        # preserves the discipline's AQM state and arrival timestamps.
        withdrawn = queue.filter_out(predicate)
        self.qdisc_stats.withdrawn += len(withdrawn)
        return withdrawn

    def _queue_for(self, dst: str):
        if dst not in self._queues:
            self._queues[dst] = make_queue(
                self.sim, self.params, self.qdisc_stats)
            self._dest_order.append(dst)
        return self._queues[dst]

    def _originator_for(self, dst: str) -> BlockAckOriginator:
        if dst not in self._originators:
            self._originators[dst] = BlockAckOriginator(
                retry_limit=self.params.retry_limit)
        return self._originators[dst]

    def _recipient_for(self, src: str) -> BlockAckRecipient:
        if src not in self._recipients:
            self._recipients[src] = BlockAckRecipient()
        return self._recipients[src]

    # ==================================================================
    # Contention
    # ==================================================================
    def _has_work(self) -> bool:
        for dst in self._dest_order:
            if self._queues[dst]:
                return True
            orig = self._originators.get(dst)
            if orig is not None and orig.retry_queue:
                return True
        return False

    def _maybe_start_contention(self) -> None:
        if self._transmitting or self._awaiting_response:
            return
        if self._current_job is None and self._has_work():
            self._build_job()
        if self._current_job is None and self._backoff_slots is None:
            self._contending = False
            return
        self._contending = True
        if self.medium.busy:
            return
        if self._deferring() or self._backoff_event is not None:
            return
        self.medium.defer(self)

    def _deferring(self) -> bool:
        wake = self._ifs_wake
        return wake is not None and wake.members is not None

    def _defer_done(self) -> None:
        if self._backoff_slots is None or self._backoff_slots == 0:
            # Committing to transmit at this instant is legitimate even
            # if another station commits at the same timestamp (neither
            # could have carrier-sensed the other yet) — that is the
            # same-slot collision case.
            self._backoff_slots = None
            if self._current_job is not None:
                self._transmit_job()
            else:
                self._contending = False
            return
        if self.medium.busy:
            # The medium became busy at this very instant; freeze the
            # countdown (it resumes after the next idle + IFS).
            return
        self._backoff_anchor = self.sim.now
        self._backoff_event = self.sim.schedule(
            self._backoff_slots * self.phy.slot_ns, self._backoff_expired)

    def _backoff_expired(self) -> None:
        # The medium stayed idle for the whole countdown (any busy
        # transition would have frozen it), or went busy at this very
        # instant — in which case transmitting anyway is the same-slot
        # collision case, exactly as the slotted countdown behaved.
        self._backoff_event = None
        self._backoff_slots = None
        if self._current_job is not None:
            self._transmit_job()
        else:
            self._contending = False

    def _current_cw(self) -> int:
        """The window backoff is drawn from.  A hook: adversarial
        subclasses (repro.adversary.greedy) cheat by shrinking the
        returned bound while the nominal ``_cw`` ladder — doubling on
        loss, resetting on success — runs unchanged."""
        return self._cw

    def _draw_backoff(self) -> None:
        self._backoff_slots = self.rng.randint(0, self._current_cw())

    def _double_cw(self) -> None:
        self._cw = min(2 * (self._cw + 1) - 1, self.phy.cw_max)

    def _reset_cw(self) -> None:
        self._cw = self.phy.cw_min

    def on_channel_busy(self, now: int) -> None:
        # Reached only while the countdown runs.  An expiry firing
        # exactly "now" is a same-slot commitment: let it run (this is
        # what produces realistic same-slot collisions between
        # desynchronised-but-unlucky stations).
        event = self._backoff_event
        if event.time > now:
            event.cancel()
            self._backoff_event = None
            # Credit the fully elapsed slots.  A slot boundary landing
            # exactly on "now" counts: the per-slot timer would have
            # decremented at that boundary before seeing the busy
            # medium and freezing.  The expiry event firing at "now"
            # itself is the (kept) same-slot commitment above.
            elapsed = (now - self._backoff_anchor) // self.phy.slot_ns
            if elapsed:
                self._backoff_slots -= elapsed

    # ==================================================================
    # Job construction
    # ==================================================================
    def _build_job(self) -> None:
        now = self.sim.now
        n = len(self._dest_order)
        for offset in range(n):
            dst = self._dest_order[(self._rr_index + offset) % n]
            queue = self._queues[dst]
            orig = self._originators.get(dst)
            has_retry = orig is not None and bool(orig.retry_queue)
            if not queue and not has_retry:
                continue
            self._rr_index = (self._rr_index + offset + 1) % n
            self._current_job = _Job(
                "data", dst, is_batch=self.params.aggregation,
                ready_at=now)
            return

    def _materialize_job(self, job: _Job) -> bool:
        """Draw the batch from the queue at transmission-grant time.

        Returns False if the queue was drained in the meantime (e.g.
        the opportunistic HACK policy withdrew the packets)."""
        now = self.sim.now
        dst = job.dst
        orig = self._originator_for(dst)
        queue = self._queue_for(dst)
        if job.is_batch:
            if type(queue) is DropTailQueue:
                batch, job.ampdu_bytes = drain_batch(
                    orig, queue, self.address, dst, self.sim,
                    self.params, self.phy, self.params.data_rate_mbps)
            else:
                address, new_frame_id = self.address, self.sim.new_frame_id

                def make_mpdu(payload: Any, seq: int) -> Mpdu:
                    return Mpdu(address, dst, seq, payload, False, False,
                                0, now, new_frame_id())

                batch = build_batch(orig, queue, make_mpdu, self.params,
                                    self.phy, self.params.data_rate_mbps)
            if not batch:
                return False
            more = bool(queue) or bool(orig.retry_queue)
            sync = self._sync_pending.pop(dst, False)
            for mpdu in batch:
                mpdu.more_data = more
                mpdu.sync = sync
            orig.mark_in_flight(batch)
            job.mpdus = tuple(batch)
        else:
            if orig.retry_queue:
                mpdu = orig.retry_queue.pop(0)
            elif queue:
                payload = queue.popleft()
                mpdu = Mpdu(src=self.address, dst=dst,
                            seq=orig.allocate_seq(), payload=payload,
                            enqueued_at=now,
                            frame_id=self.sim.new_frame_id())
            else:
                return False
            mpdu.more_data = bool(queue) or bool(orig.retry_queue)
            mpdu.sync = self._sync_pending.pop(dst, False)
            job.mpdus = [mpdu]
        job.stat_kind = _payload_kind(job.mpdus[0])
        job.materialized = True
        return True

    # ==================================================================
    # Transmission
    # ==================================================================
    def _transmit_job(self) -> None:
        job = self._current_job
        assert job is not None
        if not job.materialized and not self._materialize_job(job):
            # The queued work vanished (withdrawn by the driver); drop
            # the job without consuming the backoff-completed state.
            self._current_job = None
            self._maybe_start_contention()
            return
        rate = self.params.data_rate_mbps
        if job.kind == "bar":
            orig = self._originator_for(job.dst)
            frame: Any = BarFrame(
                src=self.address, dst=job.dst,
                win_start=orig.window_start,
                rate_mbps=self.phy.control_rate_for(rate))
            duration = self.phy.control_duration_ns(frame.byte_length,
                                                    frame.rate_mbps)
        elif job.ampdu_bytes:
            frame = AmpduFrame.of_batch(job.mpdus, job.ampdu_bytes, rate)
            duration = self.phy.frame_airtime_ns(frame, rate)
        elif job.is_batch:
            frame = AmpduFrame(mpdus=job.mpdus, rate_mbps=rate)
            duration = self.phy.frame_airtime_ns(frame, rate)
        else:
            frame = DataFrame(mpdu=job.mpdus[0], rate_mbps=rate)
            duration = self.phy.frame_airtime_ns(frame, rate)
        self.stats.on_tx_start(job, duration, self.sim.now - job.ready_at)
        self._transmitting = True
        self._contending = False
        self.medium.transmit(self, frame, duration)
        self.sim.schedule(duration, self._tx_done, job)

    def _tx_done(self, job: _Job) -> None:
        self._transmitting = False
        self._awaiting_response = True
        timeout = (self.phy.ack_timeout_ns()
                   + self.params.ack_timeout_extra_ns)
        self._response_timeout_event = self.sim.schedule(
            timeout, self._response_timeout, priority=1)

    def _response_timeout(self) -> None:
        self._response_timeout_event = None
        busy_until = self.medium.busy_until
        if busy_until is not None:
            # A frame is in flight.  Usually its end event resolves the
            # exchange, but if it is a frame we ourselves are sending
            # (possible with device-delayed responses) no event will
            # reach us, so poll again rather than relying on delivery.
            # The historical poll re-checked every slot; the medium is
            # guaranteed busy until ``busy_until``, so jump straight to
            # the first slot-grid instant that can possibly be idle —
            # the same instant the per-slot poll would have declared
            # failure at, minus the guaranteed-busy wakeups.
            slot = self.phy.slot_ns
            ahead = max(1, -((busy_until - self.sim.now) // -slot))
            self._response_timeout_event = self.sim.schedule(
                ahead * slot, self._response_timeout, priority=1)
            return
        self._attempt_failed()

    # ------------------------------------------------------------------
    def _cancel_response_timeout(self) -> None:
        if self._response_timeout_event is not None:
            self._response_timeout_event.cancel()
            self._response_timeout_event = None

    def _attempt_failed(self) -> None:
        job = self._current_job
        assert job is not None
        self._awaiting_response = False
        self._cancel_response_timeout()
        if job.kind == "bar":
            job.bar_retries += 1
            if job.bar_retries > self.params.bar_retry_limit:
                self._give_up_bar(job)
                return
            self._double_cw()
            self._draw_backoff()
            job.ready_at = self.sim.now
            self._maybe_start_contention()
            return
        if job.is_batch:
            # Block ACK missing: solicit it with a BAR (same dest).
            job.kind = "bar"
            job.bar_retries = 0
            self._double_cw()
            self._draw_backoff()
            job.ready_at = self.sim.now
            self._maybe_start_contention()
            return
        # Single MPDU: classic retry with CW doubling.
        mpdu = job.mpdus[0]
        mpdu.retry_count += 1
        if mpdu.retry_count > self.params.retry_limit:
            self.stats.on_mpdus_dropped((mpdu,))
            self._finish_job(success=False)
            return
        self._double_cw()
        self._draw_backoff()
        job.ready_at = self.sim.now
        self._maybe_start_contention()

    def _give_up_bar(self, job: _Job) -> None:
        """BAR retries exhausted: paper Fig 8 — move on, set SYNC."""
        orig = self._originator_for(job.dst)
        requeued, dropped = orig.on_give_up()
        self.stats.on_mpdus_dropped(dropped)
        self._sync_pending[job.dst] = True
        self._finish_job(success=False)

    def _finish_job(self, success: bool) -> None:
        self._current_job = None
        self._awaiting_response = False
        self._cancel_response_timeout()
        self._reset_cw()
        self._draw_backoff()  # post-transmission backoff
        self._maybe_start_contention()

    # ==================================================================
    # Reception
    # ==================================================================
    def _set_eifs(self, use_eifs: bool) -> None:
        self._use_eifs = use_eifs
        # A defer already running under the other IFS is re-based.
        if self._deferring():
            self.medium.cancel_defer(self)
            self.medium.defer(self)

    def on_frame_error(self, frame: Any, sender: Any) -> None:
        if self._transmitting:
            return
        # A defer already scheduled with DIFS must be stretched to EIFS.
        self._set_eifs(True)
        if self._awaiting_response:
            self._resolve_awaited(None, None)

    def on_frame_overheard(self, frame: Any, sender: Any) -> None:
        # A frame addressed to another station: all that matters here
        # is carrier-level state (EIFS shrink-back) and the fact that
        # an awaited response did not arrive in this frame.
        if self._transmitting:
            return  # half-duplex: cannot decode while transmitting
        if self._use_eifs:
            # The previous frame was bad but this one is fine: a defer
            # scheduled with EIFS shrinks back to DIFS.
            self._set_eifs(False)
        if self._awaiting_response:
            self._resolve_awaited(None, getattr(sender, "address", sender))

    def on_frame_received(self, frame: Any, sender: Any) -> None:
        # The medium dispatches here only for frames addressed to this
        # station (anything else arrives via on_frame_overheard).
        if self._transmitting:
            return  # half-duplex: cannot decode while transmitting
        if self._use_eifs:
            # The previous frame was bad but this one is fine: a defer
            # scheduled with EIFS shrinks back to DIFS.
            self._set_eifs(False)
        sender_addr = getattr(sender, "address", sender)

        if self._awaiting_response:
            expected = (isinstance(frame, (AckFrame, BlockAckFrame))
                        and frame.src == self._current_job.dst)
            self._resolve_awaited(frame if expected else None, sender_addr)
            if expected:
                return
            # Fall through: an unexpected frame may still need handling
            # (e.g. the peer sent data because our frame was lost).

        if isinstance(frame, (DataFrame, AmpduFrame)):
            self._receive_data(frame, sender, sender_addr)
        elif isinstance(frame, BarFrame):
            self._receive_bar(frame, sender_addr)
        # Stray ACK/Block ACK frames (response to a withdrawn exchange)
        # are ignored.

    # ------------------------------------------------------------------
    def _resolve_awaited(self, response: Optional[Any],
                         sender_addr: Optional[str]) -> None:
        """Called once per frame event while awaiting a response."""
        if response is None:
            self._attempt_failed()
            return
        job = self._current_job
        self._awaiting_response = False
        self._cancel_response_timeout()
        self.upper.on_ll_ack_rx(response, sender_addr)
        if isinstance(response, BlockAckFrame):
            orig = self._originator_for(job.dst)
            delivered, _, dropped = orig.on_block_ack(response.acked_seqs)
        else:
            delivered, dropped = job.mpdus[:1], ()
        self.stats.on_mpdus_delivered(delivered)
        self.stats.on_mpdus_dropped(dropped)
        self._finish_job(success=True)

    # ------------------------------------------------------------------
    def _receive_data(self, frame: Any, sender: Any,
                      sender_addr: str) -> None:
        recipient = self._recipients.get(sender_addr)
        if recipient is None:
            recipient = self._recipient_for(sender_addr)
        is_batch = isinstance(frame, AmpduFrame)
        readable = frame.mpdus
        # A model that keeps the base class's lossless ``mpdu_lost``
        # (NoLoss) need not be asked once per MPDU: every MPDU of the
        # frame is readable.  The loss draws take no recipient state,
        # so drawing them all before recording any changes nothing.
        loss_model = self.loss_model
        if loses_mpdus(loss_model):
            rate = frame.rate_mbps
            mpdu_lost = loss_model.mpdu_lost
            readable = []
            for mpdu in frame.mpdus:
                if not mpdu_lost(sender, self, mpdu, rate):
                    readable.append(mpdu)
            if not readable:
                # Nothing decodable: behave as if the PPDU were lost
                # (no response; the sender's timeout handles it).
                return
        deliverable: List[Mpdu] = []
        if is_batch:
            # A-MPDU path: in-order delivery via the reorder buffer
            # (holes wait for link-layer retries).
            start = recipient.accept(readable, deliverable)
        else:
            mpdu = readable[0]
            if recipient.record(mpdu):
                deliverable.append(mpdu)
        # HACK drivers learn MORE DATA / SYNC / seq state here, before
        # responses are built.
        self.upper.on_data_ppdu(frame, sender_addr, readable)
        if deliverable:
            self.upper.on_mpdus_delivered(deliverable, sender_addr)
        if is_batch:
            self._schedule_response(
                sender_addr, kind="block_ack",
                acked=recipient.acked_set(start),
                win_start=start, elicited_by=frame)
        else:
            self._schedule_response(
                sender_addr, kind="ack",
                acked_seq=readable[0].seq, elicited_by=frame)

    def _receive_bar(self, bar: BarFrame, sender_addr: str) -> None:
        recipient = self._recipient_for(sender_addr)
        self.upper.on_bar_rx(bar, sender_addr)
        self._schedule_response(
            sender_addr, kind="block_ack",
            acked=recipient.acked_set(bar.win_start),
            win_start=bar.win_start, elicited_by=bar)

    # ------------------------------------------------------------------
    # Responses (sent after SIFS, no contention)
    # ------------------------------------------------------------------
    def _schedule_response(self, peer: str, kind: str,
                           elicited_by: Any, acked=None,
                           win_start: int = 0,
                           acked_seq: int = 0) -> None:
        delay = self.phy.sifs_ns + self.params.extra_response_delay_ns
        self.sim.schedule(delay, self._send_response, peer, kind,
                          elicited_by, acked, win_start, acked_seq,
                          priority=-2)

    def _send_response(self, peer: str, kind: str, elicited_by: Any,
                       acked, win_start: int, acked_seq: int) -> None:
        rate = self.phy.control_rate_for(
            getattr(elicited_by, "rate_mbps",
                    self.params.data_rate_mbps))
        payload = self.upper.hack_payload_for(peer)
        if kind == "block_ack":
            response: Any = BlockAckFrame(
                src=self.address, dst=peer, win_start=win_start,
                acked_seqs=acked, hack_payload=payload, rate_mbps=rate)
        else:
            response = AckFrame(
                src=self.address, dst=peer, acked_seq=acked_seq,
                hack_payload=payload, rate_mbps=rate)
        duration = self.phy.control_duration_ns(response.byte_length,
                                                rate)
        stock_bytes = response.byte_length - (
            len(payload) if payload else 0)
        self.stats.on_ll_response(
            duration, self.phy.control_duration_ns(stock_bytes, rate),
            elicited_by, self.phy, self.params.extra_response_delay_ns)
        self.medium.transmit(self, response, duration)
        self.upper.on_ll_response_tx(peer, response, payload)
