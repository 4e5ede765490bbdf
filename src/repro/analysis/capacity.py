"""Analytical capacity model (paper §2.1, Figures 1a, 1b and 12).

Closed-form per-exchange accounting of 802.11a / 802.11n MAC time for a
single saturated TCP download with delayed ACKs (one TCP ACK per two
data segments), with and without TCP/HACK.  Assumptions match the
paper's: lossless channel, largest-possible A-MPDUs (bounded by the
64 KiB A-MPDU limit and the 4 ms TXOP), mean contention backoff
(CWmin/2 slots), LL ACKs at the basic control rate, and — for HACK —
every TCP ACK encapsulated at the measured compressed size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..mac.aggregation import max_mpdus_for_txop
from ..mac.params import ACK_BYTES, BLOCK_ACK_BYTES, MAC_DATA_OVERHEAD, \
    MacParams, mpdu_subframe_bytes
from ..phy.params import PHY_11A, PhyParams
from ..tcp.segment import IP_HEADER_BYTES, MSS, TCP_HEADER_BYTES, \
    TIMESTAMP_OPTION_BYTES

#: TCP/IP header bytes on every segment (with the timestamp option).
TCP_HEADERS = IP_HEADER_BYTES + TCP_HEADER_BYTES + TIMESTAMP_OPTION_BYTES
#: Measured steady-state compressed size of one TCP ACK (bytes); the
#: paper quotes "about 4 bytes, or even 3" (§3.3.2).
COMPRESSED_ACK_BYTES = 4
#: One full data MPDU, and one TCP ACK's: segment and MAC headers.
DATA_MPDU_BYTES = MSS + TCP_HEADERS + MAC_DATA_OVERHEAD
ACK_MPDU_BYTES = TCP_HEADERS + MAC_DATA_OVERHEAD
#: Fig 1b sweeps the HT rates of up to four spatial streams.
FIG1B_MAX_STREAMS = 4


@dataclass
class CapacityPoint:
    """Analytic goodput at one PHY rate."""

    rate_mbps: float
    tcp_goodput_mbps: float
    hack_goodput_mbps: float


def _acquisition_ns(phy: PhyParams) -> int:
    """Mean medium-acquisition idle time: AIFS/DIFS + CWmin/2 slots.

    For 802.11n BE parameters this is 43 + 67.5 = 110.5 us — the
    number quoted in the paper's introduction."""
    return phy.difs_ns + phy.mean_backoff_ns()


def _ack_rate(phy: PhyParams, data_rate: float) -> float:
    return phy.control_rate_for(data_rate)


# ----------------------------------------------------------------------
# 802.11a (no aggregation)
# ----------------------------------------------------------------------
def tcp_goodput_11a(rate_mbps: float) -> float:
    """Stock TCP/802.11a: per 2 data MPDUs, 3 medium acquisitions."""
    phy = PHY_11A
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    data_exchange = (acq + phy.frame_duration_ns(DATA_MPDU_BYTES,
                                                 rate_mbps)
                     + phy.sifs_ns
                     + phy.control_duration_ns(ACK_BYTES, ack_rate))
    ack_exchange = (acq + phy.frame_duration_ns(ACK_MPDU_BYTES, rate_mbps)
                    + phy.sifs_ns
                    + phy.control_duration_ns(ACK_BYTES, ack_rate))
    cycle_ns = 2 * data_exchange + ack_exchange
    return (2 * MSS * 8 * 1000.0) / cycle_ns


def hack_goodput_11a(rate_mbps: float) -> float:
    """TCP/HACK on 802.11a: zero acquisitions for TCP ACKs; one LL ACK
    per cycle carries one compressed TCP ACK."""
    phy = PHY_11A
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    stock_ack = phy.control_duration_ns(ACK_BYTES, ack_rate)
    augmented_ack = phy.control_duration_ns(
        ACK_BYTES + COMPRESSED_ACK_BYTES, ack_rate)
    cycle_ns = (2 * (acq + phy.frame_duration_ns(DATA_MPDU_BYTES,
                                                 rate_mbps)
                     + phy.sifs_ns)
                + stock_ack + augmented_ack)
    return (2 * MSS * 8 * 1000.0) / cycle_ns


# ----------------------------------------------------------------------
# 802.11n (A-MPDU aggregation + Block ACKs)
# ----------------------------------------------------------------------
def _setup_11n(rate_mbps: float,
               phy: Optional[PhyParams]) -> Tuple[PhyParams, int]:
    """The 11n PHY (one whose ladder holds ``rate_mbps`` unless given)
    and the A-MPDU size the TXOP allows at that rate."""
    from ..phy.params import PHY_11N, phy_11n_with_rates
    if phy is None:
        phy = PHY_11N if rate_mbps in PHY_11N.data_rates else \
            phy_11n_with_rates((rate_mbps,))
    params = MacParams(data_rate_mbps=rate_mbps, aggregation=True)
    return phy, max_mpdus_for_txop(DATA_MPDU_BYTES, params, phy,
                                   rate_mbps)


def tcp_goodput_11n(rate_mbps: float,
                    phy: Optional[PhyParams] = None) -> float:
    """Stock TCP/802.11n: data A-MPDU exchange + TCP-ACK A-MPDU
    exchange per cycle."""
    phy, n = _setup_11n(rate_mbps, phy)
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    data_bytes = n * mpdu_subframe_bytes(DATA_MPDU_BYTES)
    n_acks = max(1, n // 2)
    ack_bytes = n_acks * mpdu_subframe_bytes(ACK_MPDU_BYTES)
    block_ack = phy.control_duration_ns(BLOCK_ACK_BYTES, ack_rate)
    data_exchange = (acq + phy.frame_duration_ns(data_bytes, rate_mbps)
                     + phy.sifs_ns + block_ack)
    ack_exchange = (acq + phy.frame_duration_ns(ack_bytes, rate_mbps)
                    + phy.sifs_ns + block_ack)
    cycle_ns = data_exchange + ack_exchange
    return (n * MSS * 8 * 1000.0) / cycle_ns


def hack_goodput_11n(rate_mbps: float,
                     phy: Optional[PhyParams] = None) -> float:
    """TCP/HACK on 802.11n: the TCP-ACK exchange disappears; the Block
    ACK grows by the compressed ACKs for the previous batch."""
    phy, n = _setup_11n(rate_mbps, phy)
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    data_bytes = n * mpdu_subframe_bytes(DATA_MPDU_BYTES)
    n_acks = max(1, n // 2)
    augmented_block_ack = phy.control_duration_ns(
        BLOCK_ACK_BYTES + 2 + n_acks * COMPRESSED_ACK_BYTES, ack_rate)
    cycle_ns = (acq + phy.frame_duration_ns(data_bytes, rate_mbps)
                + phy.sifs_ns + augmented_block_ack)
    return (n * MSS * 8 * 1000.0) / cycle_ns


# ----------------------------------------------------------------------
# Figure-level sweeps
# ----------------------------------------------------------------------
def figure_1a_point(rate: float) -> CapacityPoint:
    """Theoretical goodput at one 802.11a rate (a Fig 1a cell)."""
    return CapacityPoint(rate, tcp_goodput_11a(rate),
                         hack_goodput_11a(rate))


def figure_1b_rates() -> List[float]:
    """The HT rate set Fig 1b sweeps (1..FIG1B_MAX_STREAMS spatial
    streams)."""
    from ..phy.params import ht_rates_for_streams
    return sorted({r for s in range(1, FIG1B_MAX_STREAMS + 1)
                   for r in ht_rates_for_streams(s)})


def figure_1b_point(rate: float) -> CapacityPoint:
    """Theoretical goodput at one 802.11n rate (a Fig 1b cell).

    The PHY's rate ladder spans the whole figure, so the control-rate
    selection matches the multi-stream sweep it belongs to."""
    from ..phy.params import phy_11n_with_rates
    phy = phy_11n_with_rates(tuple(figure_1b_rates()))
    return CapacityPoint(rate, tcp_goodput_11n(rate, phy=phy),
                         hack_goodput_11n(rate, phy=phy))
