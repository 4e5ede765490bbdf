"""Measurement collectors.

:class:`MacStats` receives fine-grained callbacks from every
:class:`~repro.mac.dcf.DcfMac` that shares it, and accumulates exactly
the quantities the paper's tables report:

* **Table 1** — per-destination counts of data MPDUs delivered on the
  first attempt vs. after one or more link-layer retries.
* **Table 3** — a time breakdown attributable to TCP ACKs: airtime of
  vanilla TCP ACK frames, extra LL-ACK airtime due to appended ROHC
  payloads, channel-acquisition waiting time, and the LL ACK + SIFS
  overhead elicited by TCP ACK frames.
* **§3.3.2 footnote** — the fraction of HACK-augmented LL ACKs whose
  appended payload airtime fits within AIFS.

and, beside Table 1's deliveries, the MPDUs the MACs dropped, so the
book of MPDU fates balances.  The HACK payload bytes a record reports
are the drivers' ``hack_frame_bytes``, not a MAC count.

Packet kinds are taken from payload ``kind`` attributes
(``tcp_data`` / ``tcp_ack`` / ``udp``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable

from ..obs.metrics import merge_counts


class MacStats:
    """Shared accumulator for MAC-level events (one per simulation).

    It is the book of MPDU fates: every MPDU a MAC dequeues ends
    delivered (first attempt or after retries, by destination) or
    dropped (``mpdus_dropped``, by destination), or is still held by
    its MAC — the queue side is each MAC's
    :class:`~repro.mac.qdisc.QdiscStats`."""

    def __init__(self) -> None:
        # Airtime + acquisition accounting, keyed by payload kind.
        self.airtime_ns: Dict[str, int] = defaultdict(int)
        self.acquisition_wait_ns: Dict[str, int] = defaultdict(int)

        # Per-destination MPDU fates (Table 1).
        self.delivered_first_attempt: Dict[str, int] = defaultdict(int)
        self.delivered_after_retry: Dict[str, int] = defaultdict(int)
        self.mpdus_dropped: Dict[str, int] = defaultdict(int)

        # LL ACK / response accounting (Table 3).
        self.ll_response_overhead_ns: Dict[str, int] = defaultdict(int)
        self.hack_extra_airtime_ns = 0
        self.hack_responses = 0
        self.hack_fits_aifs = 0

    # ------------------------------------------------------------------
    # Hooks called by DcfMac
    # ------------------------------------------------------------------
    def on_tx_start(self, job: Any, duration: int, wait_ns: int) -> None:
        kind = "bar" if job.kind == "bar" else job.stat_kind
        self.airtime_ns[kind] += duration
        self.acquisition_wait_ns[kind] += wait_ns

    def on_mpdus_delivered(self, mpdus: Iterable[Any]) -> None:
        """The MPDUs one acknowledged exchange delivered."""
        for mpdu in mpdus:
            if mpdu.retry_count == 0:
                self.delivered_first_attempt[mpdu.dst] += 1
            else:
                self.delivered_after_retry[mpdu.dst] += 1

    def on_mpdus_dropped(self, mpdus: Iterable[Any]) -> None:
        """MPDUs a MAC gave up on (retry limit reached)."""
        for mpdu in mpdus:
            self.mpdus_dropped[mpdu.dst] += 1

    def on_ll_response(self, duration: int, stock_duration: int,
                       elicited_by: Any, phy: Any,
                       extra_delay: int) -> None:
        # Total response overhead the eliciting sender experiences:
        # SIFS + (device lateness) + ACK airtime.
        self.ll_response_overhead_ns[self._elicited_kind(elicited_by)] \
            += phy.sifs_ns + extra_delay + duration
        extra = duration - stock_duration
        if extra > 0:
            self.hack_extra_airtime_ns += extra
            self.hack_responses += 1
            if extra <= phy.difs_ns:
                self.hack_fits_aifs += 1

    @staticmethod
    def _elicited_kind(frame: Any) -> str:
        mpdus = getattr(frame, "mpdus", None)
        if not mpdus:
            return "bar"
        return getattr(mpdus[0].payload, "kind", "data")

    #: Every defaultdict counter (summed key-wise on merge).
    _DICT_COUNTERS = (
        "airtime_ns", "acquisition_wait_ns",
        "delivered_first_attempt", "delivered_after_retry",
        "mpdus_dropped", "ll_response_overhead_ns")
    #: Every scalar counter (summed on merge).
    _SCALAR_COUNTERS = (
        "hack_extra_airtime_ns", "hack_responses", "hack_fits_aifs")

    def merge(self, other: "MacStats") -> None:
        """Fold another simulation's accumulator into this one.

        Every field is an integer count or sum, so merging is exact
        and order-independent — the derived reports (retry table, fit
        fraction, time breakdown) computed from a merge equal those of
        a single simulation that saw all the events.  Used by the
        channel-shard pipeline to combine per-shard stats.
        """
        for attr in self._DICT_COUNTERS:
            merge_counts(getattr(self, attr), getattr(other, attr))
        for attr in self._SCALAR_COUNTERS:
            setattr(self, attr, getattr(self, attr)
                    + getattr(other, attr))

    # ------------------------------------------------------------------
    # Report helpers
    # ------------------------------------------------------------------
    def delivered(self) -> int:
        """MPDUs delivered, over every destination and attempt."""
        return sum(self.delivered_first_attempt.values()) \
            + sum(self.delivered_after_retry.values())

    def retry_table(self) -> Dict[str, Dict[str, float]]:
        """Table 1: per destination, fraction delivered with no retries
        vs. one-or-more retries."""
        table: Dict[str, Dict[str, float]] = {}
        dsts = set(self.delivered_first_attempt) | \
            set(self.delivered_after_retry)
        for dst in sorted(dsts, key=str):
            first = self.delivered_first_attempt[dst]
            retried = self.delivered_after_retry[dst]
            total = first + retried
            if total == 0:
                continue
            table[dst] = {
                "no_retries": first / total,
                "one_or_more": retried / total,
                "total": total,
            }
        return table

    def hack_fit_fraction(self) -> float:
        """§3.3.2: fraction of augmented LL ACKs fitting within AIFS."""
        if self.hack_responses == 0:
            return 1.0
        return self.hack_fits_aifs / self.hack_responses

    def time_breakdown_ms(self) -> Dict[str, float]:
        """Table 3 rows, in milliseconds."""
        return {
            "tcp_ack_airtime": self.airtime_ns["tcp_ack"] / 1e6,
            "rohc_airtime": self.hack_extra_airtime_ns / 1e6,
            "channel_acquisition": self.acquisition_wait_ns["tcp_ack"] / 1e6,
            "ll_ack_overhead": self.ll_response_overhead_ns["tcp_ack"] / 1e6,
        }
