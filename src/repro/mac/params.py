"""MAC-layer constants and per-station configuration.

Sizes follow 802.11-2012:

* Data MPDU overhead: 24-byte MAC header + 2-byte QoS control + 4-byte
  FCS = 30 bytes, plus the 8-byte LLC/SNAP encapsulation for IP
  payloads (38 bytes total over the IP datagram).
* ACK control frame: 14 bytes.  Compressed-bitmap Block ACK: 32 bytes.
  Block ACK Request (BAR): 24 bytes.
* A-MPDU subframes: 4-byte delimiter, MPDU padded to a 4-byte boundary;
  aggregate bounded by 65 535 bytes, 64 MPDUs (the Block ACK window)
  and the EDCA TXOP airtime limit (4 ms in the paper's experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..sim.units import msec, usec

#: MAC header + QoS + FCS over an IP datagram, plus LLC/SNAP.
MAC_DATA_OVERHEAD = 38
#: Control frame sizes (bytes).
ACK_BYTES = 14
BLOCK_ACK_BYTES = 32
BAR_BYTES = 24
#: A-MPDU framing.
AMPDU_DELIMITER_BYTES = 4
AMPDU_MAX_BYTES = 65_535
AMPDU_MAX_MPDUS = 64
#: SoRa's device quirk (§4.2): its LL ACK leaves 37 us after SIFS, and
#: the paper widened the ACK timeout by 60 us to wait for it
#: (``ScenarioConfig.sora`` sets both on every station).
SORA_RESPONSE_DELAY_NS = usec(37)
SORA_ACK_TIMEOUT_EXTRA_NS = usec(60)


@dataclass
class MacParams:
    """Per-station MAC configuration."""

    #: PHY data rate for this station's transmissions (Mbit/s).
    data_rate_mbps: float = 54.0
    #: Enable A-MPDU aggregation + Block ACKs (802.11n mode).
    aggregation: bool = False
    #: Retry limit per MPDU (802.11 dot11LongRetryLimit-style).
    retry_limit: int = 7
    #: Retry limit for BARs before giving up and setting SYNC.
    bar_retry_limit: int = 7
    #: EDCA TXOP limit bounding one A-MPDU's airtime; None = unlimited.
    txop_limit_ns: Optional[int] = msec(4)
    #: Cap on A-MPDU aggregate size in bytes.
    ampdu_max_bytes: int = AMPDU_MAX_BYTES
    #: Cap on MPDUs per A-MPDU (Block ACK window).
    ampdu_max_mpdus: int = AMPDU_MAX_MPDUS
    #: Per-destination transmit queue bound (packets); None = unbounded.
    queue_limit: Optional[int] = None
    #: Queue discipline for the per-destination transmit queues:
    #: "droptail" (classic FIFO), "codel", or "fq_codel" (at the
    #: RFC defaults, ``qdisc.CODEL_*`` and ``qdisc.FQ_QUANTUM_BYTES``).
    queue_discipline: str = "droptail"
    #: Extra delay a (buggy/slow) device adds before its LL ACK response,
    #: beyond SIFS.  SoRa showed ~37 us; commercial NICs 10.4-13.4 us.
    extra_response_delay_ns: int = 0
    #: Extra allowance added to the ACK timeout so that a peer's late LL
    #: ACKs are not treated as losses (the paper "increased the 802.11
    #: ACK timeout" for SoRa).
    ack_timeout_extra_ns: int = 0


@lru_cache(maxsize=None)
def mpdu_subframe_bytes(mpdu_bytes: int) -> int:
    """Bytes one MPDU occupies inside an A-MPDU (delimiter + padding).

    Memoised: it is asked once per MPDU by batch construction and once
    more by the A-MPDU frame, and a run sees a handful of lengths."""
    padded = (mpdu_bytes + 3) // 4 * 4
    return AMPDU_DELIMITER_BYTES + padded
