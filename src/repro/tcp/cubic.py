"""CUBIC congestion avoidance (RFC 8312), as a pluggable window law.

``TcpSender`` keeps its NewReno loss-recovery machinery (fast
retransmit, NewReno recovery, RTO) regardless of the ``cc``
option; CUBIC only replaces the *congestion-avoidance growth* and the
*multiplicative-decrease* factor.  That mirrors how Linux layers CUBIC
over the common recovery core, and it keeps the reno-default event
sequence untouched.

All arithmetic is plain float over deterministic inputs (simulated
time, byte counters), so runs remain bit-reproducible.
"""

from __future__ import annotations

from typing import Optional


class CubicState:
    """Per-connection CUBIC state.

    Window bookkeeping is done in *segments* (floats) as in the RFC;
    the sender's cwnd stays in bytes, so each hook converts at the
    boundary.
    """

    C = 0.4          # cubic scaling constant (RFC 8312 §5.1)
    BETA = 0.7       # multiplicative decrease factor

    def __init__(self) -> None:
        self.w_max = 0.0                  # window before last reduction
        self.epoch_start_ns: Optional[int] = None
        self.k = 0.0                      # time to regain w_max (s)
        self.origin_seg = 0.0             # plateau of the cubic curve
        self.w_est_seg = 0.0              # TCP-friendly estimate

    # ------------------------------------------------------------------
    def on_congestion_event(self, cwnd_bytes: int, mss: int) -> int:
        """Multiplicative decrease on loss (fast retransmit or RTO).

        Updates W_max with fast convergence and resets the epoch.
        Returns the new ssthresh in bytes.
        """
        cwnd_seg = cwnd_bytes / mss
        if cwnd_seg < self.w_max:
            # Fast convergence: give up bandwidth early so newer flows
            # converge faster (RFC 8312 §4.6).
            self.w_max = cwnd_seg * (2.0 - self.BETA) / 2.0
        else:
            self.w_max = cwnd_seg
        self.epoch_start_ns = None
        return max(int(cwnd_bytes * self.BETA), 2 * mss)

    # ------------------------------------------------------------------
    def cwnd_increment(self, now_ns: int, cwnd_bytes: int,
                       newly_acked: int, srtt_ns: int, mss: int) -> int:
        """Bytes to add to cwnd for this ACK during congestion
        avoidance.

        Implements W_cubic(t + RTT) as the per-ACK target, with the
        TCP-friendly region (W_est) as a floor.  The per-ACK increment
        is (target - cwnd)/cwnd scaled by the acked bytes, capped at
        one MSS so growth stays ACK-clocked.
        """
        cwnd_seg = cwnd_bytes / mss
        if self.epoch_start_ns is None:
            self.epoch_start_ns = now_ns
            if self.w_max > cwnd_seg:
                self.origin_seg = self.w_max
                self.k = ((self.w_max - cwnd_seg) / self.C) ** (1.0 / 3.0)
            else:
                self.origin_seg = cwnd_seg
                self.k = 0.0
            self.w_est_seg = cwnd_seg

        t = (now_ns - self.epoch_start_ns + srtt_ns) / 1e9
        w_cubic = self.origin_seg + self.C * (t - self.k) ** 3

        # TCP-friendly region: emulate Reno's per-ACK growth rate
        # 3(1-β)/(1+β) segments per cwnd of acked data (RFC 8312 §4.2).
        self.w_est_seg += (3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)
                           * newly_acked / cwnd_bytes)
        target = max(w_cubic, self.w_est_seg)
        if target <= cwnd_seg:
            return 0
        inc_seg = (target - cwnd_seg) / cwnd_seg * (newly_acked / mss)
        return max(0, min(int(inc_seg * mss), mss))
