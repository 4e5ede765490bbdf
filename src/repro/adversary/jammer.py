"""Energy-only jammer for one channel's `Medium`.

The jammer transmits undecodable energy bursts.  It attaches to the
medium in its own dispatch cell (``Jammer.CELL``), which gives exactly
the physics we want for free from the existing co-channel machinery:

* busy/idle transitions are broadcast to every listener, so honest
  stations carrier-sense the jam and defer (DIFS + frozen backoff);
* a jam pulse that overlaps a real frame collides with it, and the
  collision's :meth:`on_frame_error` reaches every cell (EIFS);
* a jam pulse that overlaps nothing is dispatched only within the
  jammer's own (otherwise empty) cell — pure wasted airtime, decoded
  by nobody.

The jam is duty-cycled energy: each :data:`JAM_CYCLE_NS` window starts
with one long burst of ``intensity * JAM_CYCLE_NS`` airtime (1.0 =
continuous energy).  The cycle is much longer than a frame airtime, so
the dominant honest-station response is carrier-sense *deferral*
through the burst — capacity scales roughly with ``1 - intensity``
instead of collapsing at the first pulse train.  It starts at time 0
and stops at the end of the run.

:func:`~repro.adversary.runtime.install_adversary` starts one jammer
per medium of a world's ``{channel: Medium}`` map.  All randomness
comes from that channel's own RNG stream, so jammed runs are
seed-replayable and channel-shardable.
"""

from __future__ import annotations

from ..sim.units import MS
from .config import AdversaryConfig

#: The duty-cycle period.  Much longer than a frame airtime, so honest
#: stations mostly *defer* through a burst (carrier sense) instead of
#: losing every frame, which keeps degradation graded in intensity
#: rather than cliffed.
JAM_CYCLE_NS = 20 * MS


class JamFrame:
    """An undecodable energy burst (opaque to every receiver)."""

    __slots__ = ("src", "dst", "byte_length", "mpdu_count",
                 "more_data", "sync", "hack_payload")

    def __init__(self, duration_ns: int):
        self.src = "JAMMER"
        self.dst = None           # addressed to nobody
        # Nominal size for tracer/telemetry consumers; the medium only
        # uses duration_ns, which the jammer passes explicitly.
        self.byte_length = max(1, duration_ns // 8_000)
        self.mpdu_count = 0
        self.more_data = False
        self.sync = False
        self.hack_payload = None


class Jammer:
    """Schedules jam pulses onto one :class:`~repro.sim.medium.Medium`.

    Implements the :class:`~repro.sim.medium.MediumListener` protocol
    (attachment puts it in the listener list) with no-ops: the jammer
    transmits on a schedule and listens to nothing.
    """

    #: Dedicated dispatch cell: clean jam pulses decode nowhere.
    CELL = "adversary:jam"

    def __init__(self, sim, medium, rng, config: AdversaryConfig,
                 until_ns: int):
        self.sim = sim
        self.medium = medium
        self.rng = rng
        self.config = config
        self.until_ns = until_ns
        self.bursts = 0
        self.jam_airtime_ns = 0
        medium.attach(self, cell=self.CELL)

    def start(self) -> None:
        self.sim.schedule(0, self._periodic_fire)

    def _periodic_fire(self) -> None:
        if self.sim.now >= self.until_ns:
            return
        cycle = JAM_CYCLE_NS
        burst = int(cycle * self.config.intensity)
        if burst > 0:
            self.medium.transmit(self, JamFrame(burst), burst)
            self.bursts += 1
            self.jam_airtime_ns += burst
        idle = cycle - burst
        if idle > 4:
            # +/-25% jitter on the quiet phase so the cycle does not
            # phase-lock with periodic protocol timers.
            idle = max(0, idle + self.rng.randint(-idle // 4,
                                                  idle // 4))
        self.sim.schedule(max(burst, 1) + idle, self._periodic_fire)

    # -- MediumListener protocol --------------------------------------
    def on_channel_busy(self, now: int) -> None:
        pass

    def on_channel_idle(self, now: int) -> None:
        pass

    def on_frame_received(self, frame, sender) -> None:
        pass

    def on_frame_overheard(self, frame, sender) -> None:
        pass

    def on_frame_error(self, frame, sender) -> None:
        pass

    def counters(self) -> dict:
        return {"jam_bursts": self.bursts,
                "jam_airtime_ns": self.jam_airtime_ns}
