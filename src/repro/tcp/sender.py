"""NewReno TCP sender.

Implements the congestion-control dynamics the paper's results depend
on: slow start, congestion avoidance, fast retransmit / fast recovery
with NewReno partial-ACK handling, and an RFC 6298 retransmission timer
with exponential backoff.  RTT is sampled from the timestamp option
(valid for retransmitted segments too, per RFC 7323).

The pathology the paper's §3.2 revolves around — a whole congestion
window delivered in one A-MPDU, all resulting TCP ACKs withheld at the
client, and the connection stalling until this RTO fires — emerges
naturally from this implementation; the ``timeouts`` counter is how
experiments detect it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.engine import Simulator, Timer
from ..sim.units import MS, SEC
from .cubic import CubicState
from .segment import MSS, FiveTuple, TcpSegment


#: The ``cc=`` values a sender implements.
CONGESTION_CONTROLS = ("reno", "cubic")


class TcpSender:
    """One direction of a TCP connection (the data source)."""

    #: Keys of a ``metrics_dict()["sender_counters"]`` entry: the int
    #: attributes of that name (:meth:`counters`).
    COUNTER_KEYS = ("timeouts", "fast_retransmits", "retransmits",
                    "segments_sent")

    def __init__(self, sim: Simulator, flow_id: int, src: str, dst: str,
                 output: Callable[[TcpSegment], None],
                 total_bytes: Optional[int] = None,
                 mss: int = MSS,
                 initial_cwnd_segments: int = 2,
                 initial_ssthresh_bytes: int = 65_535,
                 min_rto_ns: int = 200 * MS,
                 max_rto_ns: int = 60 * SEC,
                 cc: str = "reno",
                 pacing: bool = False,
                 five_tuple: Optional[FiveTuple] = None,
                 on_complete: Optional[Callable[[], None]] = None):
        if cc not in CONGESTION_CONTROLS:
            raise ValueError(f"unknown congestion control {cc!r}")
        self.sim = sim
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.output = output
        self.total_bytes = total_bytes
        self.mss = mss
        self.min_rto_ns = min_rto_ns
        self.max_rto_ns = max_rto_ns
        self.on_complete = on_complete
        self.five_tuple = five_tuple or FiveTuple(src, dst, 5001, 80)

        # Connection state (sequence space in bytes, starting at 0).
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = initial_cwnd_segments * mss
        # A conservative initial ssthresh (the classic 64 KiB default,
        # as in ns-3-era stacks) keeps slow start from overshooting the
        # AP queue with a burst NewReno-without-SACK cannot repair.
        self.ssthresh = initial_ssthresh_bytes
        self.peer_rwnd = 1 << 30
        self._ca_acked_bytes = 0  # congestion-avoidance accumulator

        # Fast-retransmit / NewReno recovery state.
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0

        # RFC 7323 timestamp echo: the most recent ts_val received from
        # the peer, reflected in every outgoing segment's ts_ecr.  The
        # paper's §5 timestamp-echo mechanism relies on this.
        self._peer_ts_val = 0

        # RTO state (RFC 6298).
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: Optional[int] = None
        # RFC 6298's initial 1 s, held to the ceiling like every
        # later value.
        self.rto_ns = min(1 * SEC, max_rto_ns)
        self._rto_timer = Timer(sim, self._on_rto)
        self._backoff = 1

        # Congestion-control flavour.  "reno" keeps the classic loop
        # bit-identical; "cubic" swaps the CA growth law and the
        # multiplicative-decrease factor (recovery machinery shared).
        self.cc = cc
        self._cubic: Optional[CubicState] = \
            CubicState() if cc == "cubic" else None

        # Pacing: release new segments at ~2*cwnd per SRTT instead of
        # back-to-back bursts.  Unpaced until the first RTT sample
        # (nothing to pace against) and for retransmissions (loss
        # repair should not wait behind the gate).
        self.pacing = pacing
        self._pacing_timer = Timer(sim, self._on_pacing_timer)
        self._next_pace_ns = 0

        # Zero-window persist state: when the peer advertises rwnd=0
        # we probe with one byte on an exponential-backoff timer until
        # a nonzero window reopens the flow (RFC 9293 §3.8.6.1 style).
        self._persist_timer = Timer(sim, self._on_persist)
        self._persist_backoff = 1

        # Counters.
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.persist_probes = 0
        self.completed = False
        self.started = False

    def counters(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in self.COUNTER_KEYS}

    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def effective_window(self) -> int:
        return min(self.cwnd, self.peer_rwnd)

    def _has_data_at(self, seq: int) -> bool:
        if self.total_bytes is None:
            return True
        return seq < self.total_bytes

    def _segment_length(self, seq: int) -> int:
        if self.total_bytes is None:
            return self.mss
        return min(self.mss, self.total_bytes - seq)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (connection assumed established)."""
        self.started = True
        self._try_send()

    def _try_send(self) -> None:
        if self.pacing:
            self._try_send_paced()
        else:
            # The common case: nothing gates a segment but the window.
            # ``output`` never re-enters the sender (it queues the
            # segment on a pipe or a MAC), so the window, the timestamps
            # and the identity fields cannot change under the loop and
            # are read once.
            mss = self.mss
            total = self.total_bytes
            room = min(self.cwnd, self.peer_rwnd) + self.snd_una - mss
            seq = self.snd_nxt
            flow_id, src, dst = self.flow_id, self.src, self.dst
            ts_val, ts_ecr = self.sim.now // MS, self._peer_ts_val
            five_tuple, output = self.five_tuple, self.output
            while seq <= room and (total is None or seq < total):
                length = mss if total is None else min(mss, total - seq)
                self.segments_sent += 1
                output(TcpSegment(flow_id, src, dst, seq, length, 0, 0,
                                  ts_val, ts_ecr, (), five_tuple))
                seq += length
                self.snd_nxt = seq
        if self.snd_nxt > self.snd_una and self._rto_timer.deadline is None:
            self._arm_rto()

    def _try_send_paced(self) -> None:
        """The window loop with the pacing gate, which may close
        between any two segments."""
        while self._has_data_at(self.snd_nxt):
            if self.flight_size + self.mss > self.effective_window:
                break
            if not self._pacing_gate():
                break
            length = self._segment_length(self.snd_nxt)
            self._emit(self.snd_nxt, length)
            self.snd_nxt += length
            self._note_paced_send()

    def _emit(self, seq: int, length: int) -> None:
        self.segments_sent += 1
        self.output(TcpSegment(
            self.flow_id, self.src, self.dst, seq, length, 0, 0,
            self.sim.now // MS, self._peer_ts_val, (), self.five_tuple))

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, ack_segment: TcpSegment) -> None:
        if self.completed:
            return
        if (ack_segment.ack > self.snd_una and ack_segment.rwnd
                and not self.in_recovery and not self.pacing
                and self._cubic is None):
            self._on_plain_new_ack(ack_segment)
        else:
            self._on_ack(ack_segment)

    def _on_plain_new_ack(self, ack_segment: TcpSegment) -> None:
        """:meth:`_on_ack` for the common ACK: a new cumulative ACK
        with an open window, outside recovery, on a Reno sender without
        pacing (what ``on_ack`` tests).

        Equivalence: under those conditions ``_on_ack`` cancels the
        persist timer, takes ``_on_new_ack``'s no-recovery branch
        (Reno's ``_grow_cwnd`` has no CUBIC branch to take) and,
        ``_backoff`` being 1 by then, arms the RTO for
        ``min(rto_ns, max_rto_ns)``; ``_try_send`` then runs its
        unpaced loop.  This is those steps in that order, with the RTT
        sample, the window growth and the timer tests written out.
        ``tests/tcp/test_sender.py`` holds it to ``_on_ack`` on random
        ACK streams.
        """
        if ack_segment.ts_val > self._peer_ts_val:
            self._peer_ts_val = ack_segment.ts_val
        self.peer_rwnd = ack_segment.rwnd
        self._persist_backoff = 1
        if self._persist_timer.deadline is not None:
            self._persist_timer.cancel()
        ack = ack_segment.ack
        newly_acked = ack - self.snd_una
        self.snd_una = ack
        if self.snd_nxt < ack:
            self.snd_nxt = ack
        ts_ecr = ack_segment.ts_ecr
        if ts_ecr > 0:
            rtt = self.sim.now - ts_ecr * MS
            if rtt >= 0:
                srtt = self.srtt_ns
                if srtt is None:
                    srtt, rttvar = rtt, rtt // 2
                else:
                    rttvar = (3 * self.rttvar_ns + abs(srtt - rtt)) // 4
                    srtt = (7 * srtt + rtt) // 8
                self.srtt_ns, self.rttvar_ns = srtt, rttvar
                rto = srtt + (4 * rttvar if 4 * rttvar > MS else MS)
                if rto < self.min_rto_ns:
                    rto = self.min_rto_ns
                self.rto_ns = rto if rto < self.max_rto_ns \
                    else self.max_rto_ns
        self._backoff = 1
        self.dup_acks = 0
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            self.cwnd = cwnd + (newly_acked if newly_acked < self.mss
                                else self.mss)
        else:
            self._ca_acked_bytes += newly_acked
            if self._ca_acked_bytes >= cwnd:
                self._ca_acked_bytes -= cwnd
                self.cwnd = cwnd + self.mss
        if self.snd_nxt > ack:
            rto = self.rto_ns
            self._rto_timer.arm(rto if rto < self.max_rto_ns
                                else self.max_rto_ns)
        else:
            self._rto_timer.cancel()
        self._try_send()
        total = self.total_bytes
        if total is not None and self.snd_una >= total:
            self._check_complete()

    def _on_ack(self, ack_segment: TcpSegment) -> None:
        """Every ACK's path (the oracle of :meth:`_on_plain_new_ack`)."""
        if ack_segment.ts_val > self._peer_ts_val:
            self._peer_ts_val = ack_segment.ts_val
        # Honor a genuine zero-window advertisement: stall new data and
        # fall back to persist probes instead of keeping the old value.
        self.peer_rwnd = ack_segment.rwnd
        if self.peer_rwnd == 0:
            if self._has_data_at(self.snd_una):
                self._arm_persist()
        else:
            self._persist_backoff = 1
            self._persist_timer.cancel()
        ack = ack_segment.ack
        if ack > self.snd_una:
            self._on_new_ack(ack, ack_segment)
        elif ack == self.snd_una and self.flight_size > 0:
            self._on_dup_ack()
        # Older ACKs (reordered) are ignored.
        self._try_send()
        self._check_complete()

    def _on_new_ack(self, ack: int, segment: TcpSegment) -> None:
        newly_acked = ack - self.snd_una
        self.snd_una = ack
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        self._sample_rtt(segment)
        self._backoff = 1
        self.dup_acks = 0

        if self.in_recovery:
            if ack >= self.recover:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.in_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ACK (NewReno): retransmit the next hole,
                # deflate by the amount acked, inflate by one MSS
                # (RFC 6582).
                self._retransmit_head()
                self.cwnd = max(self.cwnd - newly_acked + self.mss,
                                self.mss)
        else:
            self._grow_cwnd(newly_acked)

        if self.flight_size > 0:
            self._arm_rto()
        else:
            self._rto_timer.cancel()

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            # Slow start: one MSS per ACKed MSS (byte counting).
            self.cwnd += min(newly_acked, self.mss)
        elif self._cubic is not None and self.srtt_ns is not None:
            self.cwnd += self._cubic.cwnd_increment(
                self.sim.now, self.cwnd, newly_acked,
                self.srtt_ns, self.mss)
        else:
            # Congestion avoidance: one MSS per cwnd of ACKed bytes.
            self._ca_acked_bytes += newly_acked
            if self._ca_acked_bytes >= self.cwnd:
                self._ca_acked_bytes -= self.cwnd
                self.cwnd += self.mss

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.in_recovery:
            # NewReno inflation: each dup ACK signals one segment has
            # left the network.
            self.cwnd += self.mss
            return
        if self.dup_acks == 3:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        if self._cubic is not None:
            self.ssthresh = self._cubic.on_congestion_event(
                self.cwnd, self.mss)
        else:
            self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.recover = self.snd_nxt
        self.in_recovery = True
        self.fast_retransmits += 1
        self.cwnd = self.ssthresh + 3 * self.mss
        self._retransmit_head()
        self._arm_rto()

    def _retransmit_head(self) -> None:
        length = self._segment_length(self.snd_una)
        if length <= 0:
            return
        self.retransmits += 1
        self._emit(self.snd_una, length)

    # ------------------------------------------------------------------
    # Pacing
    # ------------------------------------------------------------------
    def _pace_gap_ns(self) -> int:
        """Inter-segment release gap: ~2*cwnd per SRTT."""
        return max(1, self.srtt_ns * self.mss // (2 * self.cwnd))

    def _pacing_gate(self) -> bool:
        """True when a new segment may be released now; otherwise arm
        the pacing timer to resume ``_try_send`` at the release time."""
        if self.srtt_ns is None:
            return True
        if self.sim.now >= self._next_pace_ns:
            return True
        if not self._pacing_timer.armed:
            self._pacing_timer.arm(self._next_pace_ns - self.sim.now)
        return False

    def _note_paced_send(self) -> None:
        if self.srtt_ns is None:
            return
        base = max(self.sim.now, self._next_pace_ns)
        self._next_pace_ns = base + self._pace_gap_ns()

    def _on_pacing_timer(self) -> None:
        if self.completed:
            return
        self._try_send()

    # ------------------------------------------------------------------
    # Zero-window persist probes
    # ------------------------------------------------------------------
    def _arm_persist(self) -> None:
        if not self._persist_timer.armed and not self.completed:
            self._persist_timer.arm(min(
                self.rto_ns * self._persist_backoff, self.max_rto_ns))

    def _on_persist(self) -> None:
        if self.completed or self.peer_rwnd > 0:
            return
        if self._has_data_at(self.snd_una):
            # One-byte window probe at the left edge; the ACK it
            # solicits carries a fresh window advertisement.
            self.persist_probes += 1
            self._emit(self.snd_una, 1)
        self._persist_backoff = min(self._persist_backoff * 2, 64)
        self._arm_persist()

    # ------------------------------------------------------------------
    # RTT / RTO
    # ------------------------------------------------------------------
    def _sample_rtt(self, segment: TcpSegment) -> None:
        if segment.ts_ecr <= 0:
            return
        rtt = self.sim.now - segment.ts_ecr * MS
        if rtt < 0:
            return
        if self.srtt_ns is None:
            self.srtt_ns = rtt
            self.rttvar_ns = rtt // 2
        else:
            err = abs(self.srtt_ns - rtt)
            self.rttvar_ns = (3 * self.rttvar_ns + err) // 4
            self.srtt_ns = (7 * self.srtt_ns + rtt) // 8
        rto = self.srtt_ns + max(4 * self.rttvar_ns, MS)
        self.rto_ns = min(max(rto, self.min_rto_ns), self.max_rto_ns)

    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer from now."""
        # The backed-off product must respect the RTO ceiling too
        # (RFC 6298 §5.5) — rto_ns alone is clamped, but
        # rto_ns * backoff can reach 60 s * 64 otherwise.
        self._rto_timer.arm(
            min(self.rto_ns * self._backoff, self.max_rto_ns))

    def _on_rto(self) -> None:
        if self.flight_size == 0 or self.completed:
            return
        self.timeouts += 1
        if self._cubic is not None:
            self.ssthresh = self._cubic.on_congestion_event(
                self.cwnd, self.mss)
        else:
            self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.dup_acks = 0
        self._backoff = min(self._backoff * 2, 64)
        # Go-back-N: rewind and retransmit from the last ACKed byte.
        self.snd_nxt = self.snd_una
        self._retransmit_head()
        self.snd_nxt = self.snd_una + self._segment_length(self.snd_una)
        self._arm_rto()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down: close all timers (flow lifecycle reclaim), so no
        heap entry left behind keeps this sender alive."""
        self._rto_timer.close()
        self._pacing_timer.close()
        self._persist_timer.close()

    def _check_complete(self) -> None:
        if (not self.completed and self.total_bytes is not None
                and self.snd_una >= self.total_bytes):
            self.completed = True
            self.close()
            if self.on_complete is not None:
                self.on_complete()
