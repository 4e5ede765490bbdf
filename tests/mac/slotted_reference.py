"""The eager DCF station, kept verbatim as a test oracle — twice over.

:class:`EagerDcfMac` is the station's *carrier sense* as it was before
the medium took it over.  `repro.mac.dcf.DcfMac` now leaves its idle
clock and its IFS wait to the medium (one wake per idle period, a visit
on an edge only while it can act on it); this class attaches as a plain
listener instead, hears every busy/idle edge, keeps its own
``_idle_since`` and pushes — and cancels — its own defer event, exactly
as every station did at the parent commit (``_maybe_start_contention``,
``_defer_done``, ``_cancel_countdown``, ``on_channel_busy`` and
``on_channel_idle`` are that commit's lines; ``_set_eifs`` holds the
four it repeated in each frame callback).  Its backoff is the lazy one,
so a world mixing it with `DcfMac` must transmit exactly what an
all-eager world does: same senders, same instants, same frame ids.

:class:`SlottedDcfMac` additionally restores the seed's per-slot
countdown.  `DcfMac` schedules one backoff-expiry event and recomputes
the remaining slot count on busy transitions (lazy backoff); this class
restores the original implementation — a self-rescheduling per-slot
timer — so equivalence tests can assert, frame for frame and row for
row, that the optimisation changed the event count but not the
simulated behaviour.

Do not "fix" or modernise this file: its value is being a faithful copy
of the behaviour the current implementation must match, including the
same-slot-collision rule (countdown events firing exactly at "now"
survive a busy transition and still transmit).
"""

from __future__ import annotations

from repro.mac.dcf import DcfMac


class EagerDcfMac(DcfMac):
    """802.11 DCF MAC doing its own carrier sense, one defer event per
    station per idle period."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._defer_event = None
        self._idle_since = 0

    def _attach(self) -> None:
        self.medium.attach(self, cell=self.cell)

    def _maybe_start_contention(self) -> None:
        if self._transmitting or self._awaiting_response:
            return
        if self._current_job is None and self._has_work():
            self._build_job()
        if self._current_job is None and self._backoff_slots is None:
            return
        if self.medium.busy:
            return
        if self._defer_event is not None or self._backoff_event is not None:
            return
        ifs = self.phy.eifs_ns if self._use_eifs else self.phy.difs_ns
        elapsed = self.sim.now - self._idle_since
        remaining = max(0, ifs - elapsed)
        self._defer_event = self.sim.schedule(remaining, self._defer_done)

    def _defer_done(self) -> None:
        self._defer_event = None
        if self._backoff_slots is None or self._backoff_slots == 0:
            # Committing to transmit at this instant is legitimate even
            # if another station commits at the same timestamp (neither
            # could have carrier-sensed the other yet) — that is the
            # same-slot collision case.
            self._backoff_slots = None
            if self._current_job is not None:
                self._transmit_job()
            return
        if self.medium.busy:
            # The medium became busy at this very instant; freeze the
            # countdown (it resumes after the next idle + IFS).
            return
        self._backoff_anchor = self.sim.now
        self._backoff_event = self.sim.schedule(
            self._backoff_slots * self.phy.slot_ns, self._backoff_expired)

    def _cancel_countdown(self, now: int) -> None:
        # Events firing exactly "now" are same-slot commitments: let
        # them run (this is what produces realistic same-slot
        # collisions between desynchronised-but-unlucky stations).
        if self._defer_event is not None:
            if self._defer_event.time > now:
                self._defer_event.cancel()
                self._defer_event = None
        event = self._backoff_event
        if event is not None and event.time > now:
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

    def on_channel_busy(self, now: int) -> None:
        self._cancel_countdown(now)

    def on_channel_idle(self, now: int) -> None:
        self._idle_since = now
        self._maybe_start_contention()

    def _set_eifs(self, use_eifs: bool) -> None:
        self._use_eifs = use_eifs
        if self._defer_event is not None:
            self._defer_event.cancel()
            self._defer_event = None
            self._maybe_start_contention()


class SlottedDcfMac(EagerDcfMac):
    """802.11 DCF MAC with the original one-event-per-slot backoff."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._slot_event = None

    def _maybe_start_contention(self) -> None:
        if self._transmitting or self._awaiting_response:
            return
        if self._current_job is None and self._has_work():
            self._build_job()
        if self._current_job is None and self._backoff_slots is None:
            return
        if self.medium.busy:
            return
        if self._defer_event is not None or self._slot_event is not None:
            return
        ifs = self.phy.eifs_ns if self._use_eifs else self.phy.difs_ns
        elapsed = self.sim.now - self._idle_since
        remaining = max(0, ifs - elapsed)
        self._defer_event = self.sim.schedule(remaining, self._defer_done)

    def _defer_done(self) -> None:
        self._defer_event = None
        if self._backoff_slots is None or self._backoff_slots == 0:
            # Committing to transmit at this instant is legitimate even
            # if another station commits at the same timestamp (neither
            # could have carrier-sensed the other yet) — that is the
            # same-slot collision case.
            self._backoff_slots = None
            if self._current_job is not None:
                self._transmit_job()
            return
        if self.medium.busy:
            # The medium became busy at this very instant; freeze the
            # countdown (it resumes after the next idle + IFS).
            return
        self._slot_event = self.sim.schedule(self.phy.slot_ns,
                                             self._slot_tick)

    def _slot_tick(self) -> None:
        self._slot_event = None
        assert self._backoff_slots is not None and self._backoff_slots > 0
        self._backoff_slots -= 1
        if self._backoff_slots == 0:
            self._backoff_slots = None
            if self._current_job is not None:
                self._transmit_job()
            return
        if self.medium.busy:
            # Busy began exactly at this slot boundary: freeze here.
            return
        self._slot_event = self.sim.schedule(self.phy.slot_ns,
                                             self._slot_tick)

    def _response_timeout(self) -> None:
        self._response_timeout_event = None
        if self.medium.busy:
            # A frame is in flight.  Usually its end event resolves the
            # exchange, but if it is a frame we ourselves are sending
            # (possible with device-delayed responses) no event will
            # reach us, so poll again rather than relying on delivery.
            self._response_timeout_event = self.sim.schedule(
                self.phy.slot_ns, self._response_timeout, priority=1)
            return
        self._attempt_failed()

    def _cancel_countdown(self, now: int) -> None:
        # Events firing exactly "now" are same-slot commitments: let
        # them run (this is what produces realistic same-slot
        # collisions between desynchronised-but-unlucky stations).
        if self._defer_event is not None:
            if self._defer_event.time > now:
                self._defer_event.cancel()
                self._defer_event = None
        if self._slot_event is not None:
            if self._slot_event.time > now:
                self._slot_event.cancel()
                self._slot_event = None
