"""The shared wireless medium.

Models one *channel* as a single collision domain: every station hears
every other station's energy (the paper simulates clients within a
10 m circle around the AP and states there are no hidden terminals).
Consequences:

* Carrier sense is global — the channel is busy for everyone whenever
  at least one transmission is in flight, regardless of which cell the
  transmitter belongs to.
* Two transmissions that overlap in time corrupt each other (a
  collision); every receiver sees garbage for both frames.
* Independent per-receiver losses (low SNR) are applied by a pluggable
  :class:`~repro.phy.errors.LossModel` on top of collision corruption.

Frames are opaque to the medium except for their ``duration_ns``, which
the sender computes from the PHY rate tables, and their ``dst``: intact
frames are dispatched through a per-station address map, so only the
addressed station pays the full receive path
(:meth:`MediumListener.on_frame_received`) while every other listener
gets the cheap carrier-level :meth:`MediumListener.on_frame_overheard`.
Listener call *order* is unchanged from the broadcast scan (attach
order), which keeps event sequencing — and therefore whole-simulation
determinism — identical to the pre-map behaviour.

**Overlapping cells.**  Several BSSes (an AP plus its clients) can
share the one channel: ``attach(listener, cell=k)`` puts a station in
dispatch group ``k``.  Each cell keeps its own listener list and
address map, so intact-frame dispatch — the per-frame hot path — stays
O(stations in the transmitter's cell) no matter how many co-channel
cells exist.  Inter-cell coupling happens exactly where 802.11's
physical carrier sense lives:

* busy/idle transitions concern *every* station on the channel, so a
  cell-B AP defers (DIFS + frozen backoff) while a cell-A transmission
  is in flight (how they reach it: "Carrier sense" below);
* overlapping transmissions collide regardless of cell, and the
  resulting :meth:`MediumListener.on_frame_error` is delivered to all
  cells (every station heard garbage, so everyone pays EIFS);
* intact frames are decoded only within the transmitter's own cell —
  other cells sense the energy but never pay the decode path.  This is
  the energy-detect OBSS model: a station keeps EIFS until a *good*
  frame of its own cell (or its own exchange) clears it, and a station
  awaiting a response during a cross-cell transmission resolves the
  failure through its busy-aware response timeout rather than through
  frame delivery.

A single-cell simulation (everything attached to the default cell)
takes exactly the historical code paths in the same order, which is
what keeps the paper's scenarios bit-identical.

**Carrier sense.**  The medium is the one place that knows when the
channel fell idle, so it keeps that clock (:attr:`Medium.idle_since`)
and runs the IFS wait for the stations, instead of telling each of N
stations about every edge and letting each push — and, 16 us later when
the SIFS response starts, cancel — a defer event of its own:

* *Plain listeners* (``attach(listener)``: the jammer,
  tracers, test doubles, the eager reference station of
  ``tests/mac/slotted_reference.py``) get ``on_channel_busy`` /
  ``on_channel_idle`` on every edge, in attach order.
* *Contenders* (``attach(station, contender=True)``: every
  :class:`~repro.mac.dcf.DcfMac`) are visited only while an edge
  concerns them.  On an idle edge the medium makes each station whose
  ``_contending`` flag is up wait for its IFS (:meth:`Medium.defer`);
  on a busy edge it calls ``on_channel_busy`` on the stations whose
  backoff countdown is running, which must be credited the elapsed
  slots.  Everybody else — nothing to send, transmitting, awaiting a
  response — costs one attribute test.
* *One wake per idle period and deadline.*  All stations whose wait
  ends at the same instant (``idle_since`` + DIFS, or + EIFS for those
  that heard garbage) share one heap entry; when it fires they run
  ``_defer_done`` in the order they joined.  A busy edge cancels the
  entry without visiting its members — the handle a member holds goes
  stale — unless it is due at that very instant: stations committing
  in the same slot could not have sensed each other, so that wake
  still fires (the same-slot collision rule).

Execution order is that of one defer event per station, by
construction.  On an idle edge the stations are walked in attach
order and nothing but their own defers used to be scheduled in between,
so the per-station events of one deadline held *consecutive* sequence
numbers among the entries of that instant: one entry in their place
dispatches them exactly where they ran.  A station that starts waiting
later (a packet arriving mid-idle, an exchange that just ended, a
switch between EIFS and DIFS on a frame callback) would have taken the
next sequence number; it may ride an open wake of its deadline only if
the kernel's sequence counter has not moved since the medium's latest
push — so nothing can sort between the wake's members and it — and
otherwise gets an entry of its own, behind whatever was scheduled in
between.  The counter, not ``stats.scheduled``, is what to watch: a
``Timer.arm`` takes a sequence number without pushing.  The
differential oracle in ``tests/mac/test_carrier_sense.py`` holds mixed
worlds of contenders and eager stations to the air of an all-eager one.

Per-cell airtime is accounted on transmission end: a *non-collided*
transmission credits its duration to its sender's cell.  Clean
transmissions never overlap (any overlap is a collision by
definition), so summing those credits across cells can never
double-count an instant — per-cell airtime shares always sum to at
most the elapsed window.

**Channels.**  A :class:`Medium` is one channel.  A world spanning
several channels holds a plain ``{channel: Medium}`` map over one
simulator (``CellBuilder.media``).  Channels never interact — a frame
on channel c contributes no energy, no carrier sense, no EIFS and no
collisions on any other channel, which is modelled *by construction*
(separate ``Medium`` objects, so there is no cross-channel code path
to get wrong).  Every per-cell invariant above is therefore scoped to
a channel: cell airtime shares sum to at most 1 *per channel*, while
the sum over all cells of a multi-channel scenario can legitimately
approach the channel count.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..phy.errors import loses_ppdus
from .engine import Simulator

#: The dispatch group stations land in when ``attach`` is not given an
#: explicit cell (and transmissions from never-attached senders are
#: attributed to).  Single-cell simulations only ever touch this one.
DEFAULT_CELL = 0

#: The channel single-channel scenarios have always run on (it keeps
#: the historical loss stream name).
DEFAULT_CHANNEL = 0


class Transmission:
    """One frame in flight on the medium."""

    __slots__ = ("sender", "frame", "start", "end", "collided", "cell")

    def __init__(self, sender: Any, frame: Any, start: int, end: int,
                 cell: Any = DEFAULT_CELL):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end
        self.collided = False
        self.cell = cell

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tx {self.frame!r} {self.start}..{self.end}"
                f"{' COLLIDED' if self.collided else ''}>")


class MediumListener:
    """Interface stations implement to hear the medium.

    Subclasses override what they need; defaults are no-ops so simple
    test doubles stay short.
    """

    def on_channel_busy(self, now: int) -> None:
        """The medium transitioned idle -> busy."""

    def on_channel_idle(self, now: int) -> None:
        """The medium transitioned busy -> idle."""

    def on_frame_received(self, frame: Any, sender: Any) -> None:
        """A frame addressed to this station arrived intact."""

    def on_frame_overheard(self, frame: Any, sender: Any) -> None:
        """A frame addressed to *another* station arrived intact.

        The default forwards to :meth:`on_frame_received` so listeners
        that don't distinguish (test doubles, promiscuous observers)
        keep seeing every frame.
        """
        self.on_frame_received(frame, sender)

    def on_frame_error(self, frame: Any, sender: Any) -> None:
        """A frame arrived but was corrupted (collision or channel loss)."""


class _Cell:
    """One co-channel BSS's dispatch group and airtime accounting."""

    __slots__ = ("listeners", "by_address", "airtime_ns",
                 "frames_sent", "frames_collided")

    def __init__(self) -> None:
        self.listeners: List[MediumListener] = []
        #: Station address -> listener, for O(1) delivery dispatch
        #: scoped to this cell.
        self.by_address: Dict[Any, MediumListener] = {}
        #: Cumulative ns of *clean* (non-collided) transmissions by
        #: this cell's stations.  Clean transmissions are globally
        #: disjoint in time, so these credits never double-count.
        self.airtime_ns: int = 0
        self.frames_sent: int = 0
        self.frames_collided: int = 0


class _IfsWake:
    """One heap entry ending the IFS wait of every contender that must
    have seen the channel idle until ``deadline``."""

    __slots__ = ("deadline", "event", "members", "open")

    def __init__(self, deadline: int, first: Any):
        self.deadline = deadline
        self.event: Any = None
        #: Waiting contenders in join order; None once the wake has
        #: fired or a busy edge cancelled it (a contender's handle on
        #: it is then stale, which is how it learns without a visit).
        self.members: Optional[List[Any]] = [first]
        #: Whether a further contender may still ride this entry.
        self.open = True


class Medium:
    """Single-channel broadcast medium with collisions and carrier sense.

    Supports several overlapping cells (dispatch groups) on the one
    channel; see the module docstring for the inter-cell semantics.
    """

    def __init__(self, sim: Simulator, loss_model: Optional[Any] = None):
        self.sim = sim
        self.loss_model = loss_model
        self.listeners: List[MediumListener] = []
        #: What a busy/idle edge walks: every listener in attach
        #: order, flagged with whether it is a contender.
        self._edge_order: List[Tuple[Any, bool]] = []
        #: When the channel last fell idle: the one clock every IFS
        #: wait is measured from.
        self.idle_since: int = 0
        #: IFS wakes of the current idle period that have not fired.
        self._ifs_wakes: List[_IfsWake] = []
        #: The kernel's sequence counter just after the latest wake
        #: was pushed (see :meth:`defer`).
        self._wake_seq = -1
        #: cell key -> dispatch group; the default cell always exists.
        self._cells: Dict[Any, _Cell] = {DEFAULT_CELL: _Cell()}
        #: listener -> cell key (senders not in here transmit as the
        #: default cell — test doubles mostly).
        self._cell_of: Dict[Any, Any] = {}
        self._active: List[Transmission] = []
        #: Cumulative ns the channel has spent busy (for utilisation stats).
        self.busy_time: int = 0
        self._busy_since: Optional[int] = None
        #: Total frames offered / collided (for stats).
        self.frames_sent = 0
        self.frames_collided = 0
        #: Optional observers called with each completed Transmission.
        self.observers: List[Callable[[Transmission], None]] = []
        #: Optional adversarial hook: called with each *cleanly
        #: delivered* frame just before dispatch, and may rewrite its
        #: payload in place (frames that passed the link-layer FCS but
        #: carry corrupted contents — see repro.adversary.mutator).
        #: None (the default) costs one attribute check per frame.
        self.tamper: Optional[Callable[[Any], None]] = None

    # ------------------------------------------------------------------
    def attach(self, listener: MediumListener,
               cell: Any = DEFAULT_CELL, contender: bool = False) -> None:
        """Register a station; it will hear busy/idle and frame events.

        ``cell`` selects the dispatch group the station decodes frames
        in; stations of other cells only share carrier sense (busy/
        idle) and collision corruption with it.

        A ``contender`` leaves its carrier sense to the medium (module
        docstring, "Carrier sense"): it is woken through :meth:`defer`
        and visited on an edge only while the edge concerns it.  It
        must provide ``phy``, ``_contending``, ``_use_eifs``,
        ``_backoff_event``, ``_ifs_wake``, ``_defer_done()`` and
        ``on_channel_busy()`` as :class:`~repro.mac.dcf.DcfMac` does.
        """
        if listener in self._cell_of:
            raise ValueError(f"{listener!r} is already attached")
        self.listeners.append(listener)
        self._edge_order.append((listener, contender))
        group = self._cells.get(cell)
        if group is None:
            group = self._cells[cell] = _Cell()
        group.listeners.append(listener)
        self._cell_of[listener] = cell
        address = getattr(listener, "address", None)
        if address is not None:
            group.by_address[address] = listener

    def cell_stats(self, cell: Any = DEFAULT_CELL) -> Dict[str, int]:
        """Per-cell counters: clean airtime and frames offered/collided.

        Scope is this one channel: the airtime credited here is time
        the cell held *this* medium, and the disjointness guarantee
        (clean transmissions never overlap) holds among this channel's
        cells only.  Cells on other channels keep their own, entirely
        independent, books.
        """
        group = self._cells.get(cell)
        if group is None:
            return {"airtime_ns": 0, "frames_sent": 0,
                    "frames_collided": 0}
        return {"airtime_ns": group.airtime_ns,
                "frames_sent": group.frames_sent,
                "frames_collided": group.frames_collided}

    def cell_airtime_share(self, cell: Any = DEFAULT_CELL,
                           elapsed: Optional[int] = None) -> float:
        """Fraction of a window this cell's clean transmissions held the
        channel.  Shares across *this channel's* cells sum to at most 1
        (clean transmissions on one channel are disjoint by definition
        of a collision); summed over every cell of a multi-channel
        scenario the total can legitimately exceed 1 — each channel
        carries clean airtime concurrently."""
        if elapsed is not None and elapsed < 0:
            raise ValueError(f"negative elapsed window {elapsed}")
        total = elapsed if elapsed is not None else self.sim.now
        if total <= 0:
            return 0.0
        return min(1.0, self.cell_stats(cell)["airtime_ns"] / total)

    @property
    def busy(self) -> bool:
        """True while any transmission is in flight."""
        return bool(self._active)

    @property
    def busy_until(self) -> Optional[int]:
        """When the current busy period is guaranteed to last until:
        the latest end among in-flight transmissions, or None if idle.

        The medium stays continuously busy up to that instant (every
        moment before it is covered by the longest-lived transmission);
        new transmissions can only extend it.  Timers that poll for
        idle use this to skip guaranteed-busy re-checks.
        """
        if not self._active:
            return None
        return max(tx.end for tx in self._active)

    # ------------------------------------------------------------------
    def transmit(self, sender: Any, frame: Any, duration: int) -> Transmission:
        """Begin transmitting ``frame`` for ``duration`` ns.

        The sender must have already honoured carrier sense; the medium
        does not police that (it is the DCF's job), but overlapping
        transmissions are faithfully collided.
        """
        if duration <= 0:
            raise ValueError("transmission duration must be positive")
        now = self.sim.now
        cell = self._cell_of.get(sender, DEFAULT_CELL)
        tx = Transmission(sender, frame, now, now + duration, cell=cell)
        was_idle = not self._active
        if self._active:
            # Collision: every concurrently in-flight frame is
            # corrupted, whichever cell it belongs to.
            tx.collided = True
            for other in self._active:
                if not other.collided:
                    other.collided = True
                    self.frames_collided += 1
                    self._cells[other.cell].frames_collided += 1
            self.frames_collided += 1
            self._cells[cell].frames_collided += 1
        self._active.append(tx)
        self.frames_sent += 1
        self._cells[cell].frames_sent += 1
        if was_idle:
            self._busy_since = now
            self._busy_edge(now)
        self.sim.schedule(duration, self._transmission_ends, tx, priority=-1)
        return tx

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------
    def _busy_edge(self, now: int) -> None:
        wakes = self._ifs_wakes
        if wakes:
            # A wake due at this very instant is a same-slot commitment
            # (its members could not have sensed this carrier yet) and
            # still fires; later ones die without a visit to a member.
            kept = []
            for wake in wakes:
                if wake.deadline > now:
                    wake.event.cancel()
                    wake.members = None
                else:
                    kept.append(wake)
            self._ifs_wakes = kept
        for listener, contender in self._edge_order:
            # A contender has something to freeze only while its
            # backoff countdown runs.
            if not contender or listener._backoff_event is not None:
                listener.on_channel_busy(now)

    def _idle_edge(self, now: int) -> None:
        self.idle_since = now
        # Attach order, plain listeners included: one of them may
        # schedule an event of its own, which then has to sort between
        # the contenders on either side of it.
        for listener, contender in self._edge_order:
            if not contender:
                listener.on_channel_idle(now)
            elif listener._contending:
                self.defer(listener)

    def defer(self, station: Any) -> None:
        """Call ``station._defer_done()`` as soon as the channel has
        been idle for the station's IFS — in an event at this instant
        if it already has.  The channel must be idle."""
        phy = station.phy
        deadline = self.idle_since + (
            phy.eifs_ns if station._use_eifs else phy.difs_ns)
        sim = self.sim
        if deadline < sim.now:
            deadline = sim.now
        if sim.sequence == self._wake_seq:
            # Nothing was scheduled since our latest push, so an event
            # of the station's own pushed now would sort right behind
            # the last member of any open wake: riding one is the same.
            for wake in self._ifs_wakes:
                if wake.deadline == deadline and wake.open:
                    wake.members.append(station)
                    station._ifs_wake = wake
                    return
        else:
            # A foreign event may sit between the waiting members and
            # this station; it has to fire between them.
            for wake in self._ifs_wakes:
                wake.open = False
        wake = station._ifs_wake = _IfsWake(deadline, station)
        wake.event = sim.schedule(deadline - sim.now, self._ifs_wake, wake)
        self._wake_seq = wake.event.seq
        self._ifs_wakes.append(wake)

    def cancel_defer(self, station: Any) -> None:
        """Withdraw ``station`` from the wake it is waiting in."""
        wake = station._ifs_wake
        station._ifs_wake = None
        wake.members.remove(station)
        if not wake.members:
            wake.event.cancel()
            wake.members = None
            self._ifs_wakes.remove(wake)

    def _ifs_wake(self, wake: _IfsWake) -> None:
        self._ifs_wakes.remove(wake)
        members, wake.members = wake.members, None
        for station in members:
            station._defer_done()

    # ------------------------------------------------------------------
    def _transmission_ends(self, tx: Transmission) -> None:
        self._active.remove(tx)
        now = self.sim.now
        # Idle notification precedes frame delivery so that stations'
        # idle-time bookkeeping is fresh when delivery callbacks decide
        # to resume contention at this same instant.
        listeners = self.listeners
        if not self._active:
            assert self._busy_since is not None
            self.busy_time += now - self._busy_since
            self._busy_since = None
            self._idle_edge(now)
        # Deliver to every station of the sender's cell except the
        # sender itself: the addressed station (resolved once, via the
        # cell's address map) takes the full receive path, everyone
        # else in the cell the cheap overheard path.  A *collided*
        # frame is garbage for every cell, so errors go to all
        # listeners.  Intact frames are never decoded outside the
        # sender's cell (energy-detect OBSS; see module docstring).
        sender = tx.sender
        frame = tx.frame
        if tx.collided:
            for listener in listeners:
                if listener is not sender:
                    listener.on_frame_error(frame, sender)
        else:
            group = self._cells[tx.cell]
            group.airtime_ns += tx.end - tx.start
            if self.tamper is not None:
                self.tamper(frame)
            target = group.by_address.get(getattr(frame, "dst", None))
            loss_model = self.loss_model
            if loses_ppdus(loss_model):
                for listener in group.listeners:
                    if listener is sender:
                        continue
                    if loss_model.is_lost(sender, listener, frame):
                        listener.on_frame_error(frame, sender)
                    elif listener is target:
                        listener.on_frame_received(frame, sender)
                    else:
                        listener.on_frame_overheard(frame, sender)
            else:
                # A model keeping the base class's ``is_lost`` /
                # ``ppdu_lost`` (NoLoss) answers False for every
                # listener: the loop above with that answer.
                for listener in group.listeners:
                    if listener is sender:
                        continue
                    if listener is target:
                        listener.on_frame_received(frame, sender)
                    else:
                        listener.on_frame_overheard(frame, sender)
        for observer in self.observers:
            observer(tx)

    def utilisation(self, elapsed: Optional[int] = None) -> float:
        """Fraction of time the channel was busy, clamped to [0, 1].

        ``elapsed`` measures against a caller-chosen window (e.g. the
        configured duration); a window shorter than the accumulated
        busy time yields 1.0 rather than a nonsensical >1 fraction.
        Negative windows are a caller bug and raise.
        """
        if elapsed is not None and elapsed < 0:
            raise ValueError(f"negative elapsed window {elapsed}")
        total = elapsed if elapsed is not None else self.sim.now
        if total <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / total)
