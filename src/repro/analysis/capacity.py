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
from typing import List

from ..mac.aggregation import max_mpdus_for_txop
from ..mac.params import ACK_BYTES, BLOCK_ACK_BYTES, MAC_DATA_OVERHEAD, \
    MacParams, mpdu_subframe_bytes
from ..phy.params import PHY_11A, PhyParams
from ..tcp.segment import IP_HEADER_BYTES, TCP_HEADER_BYTES, \
    TIMESTAMP_OPTION_BYTES

#: TCP/IP header bytes on every segment (with the timestamp option).
TCP_HEADERS = IP_HEADER_BYTES + TCP_HEADER_BYTES + TIMESTAMP_OPTION_BYTES
#: Measured steady-state compressed size of one TCP ACK (bytes); the
#: paper quotes "about 4 bytes, or even 3" (§3.3.2).
COMPRESSED_ACK_BYTES = 4


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
def tcp_goodput_11a(rate_mbps: float, mss: int = 1460,
                    phy: PhyParams = PHY_11A) -> float:
    """Stock TCP/802.11a: per 2 data MPDUs, 3 medium acquisitions."""
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    data_bytes = mss + TCP_HEADERS + MAC_DATA_OVERHEAD
    tcp_ack_bytes = TCP_HEADERS + MAC_DATA_OVERHEAD
    data_exchange = (acq + phy.frame_duration_ns(data_bytes, rate_mbps)
                     + phy.sifs_ns
                     + phy.control_duration_ns(ACK_BYTES, ack_rate))
    ack_exchange = (acq + phy.frame_duration_ns(tcp_ack_bytes, rate_mbps)
                    + phy.sifs_ns
                    + phy.control_duration_ns(ACK_BYTES, ack_rate))
    cycle_ns = 2 * data_exchange + ack_exchange
    return (2 * mss * 8 * 1000.0) / cycle_ns


def hack_goodput_11a(rate_mbps: float, mss: int = 1460,
                     phy: PhyParams = PHY_11A,
                     compressed_ack_bytes: int = COMPRESSED_ACK_BYTES
                     ) -> float:
    """TCP/HACK on 802.11a: zero acquisitions for TCP ACKs; one LL ACK
    per cycle carries one compressed TCP ACK."""
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    data_bytes = mss + TCP_HEADERS + MAC_DATA_OVERHEAD
    stock_ack = phy.control_duration_ns(ACK_BYTES, ack_rate)
    augmented_ack = phy.control_duration_ns(
        ACK_BYTES + compressed_ack_bytes, ack_rate)
    cycle_ns = (2 * (acq + phy.frame_duration_ns(data_bytes, rate_mbps)
                     + phy.sifs_ns)
                + stock_ack + augmented_ack)
    return (2 * mss * 8 * 1000.0) / cycle_ns


# ----------------------------------------------------------------------
# 802.11n (A-MPDU aggregation + Block ACKs)
# ----------------------------------------------------------------------
def _batch_size(rate_mbps: float, mss: int, phy: PhyParams,
                params: MacParams) -> int:
    data_mpdu = mss + TCP_HEADERS + MAC_DATA_OVERHEAD
    return max_mpdus_for_txop(data_mpdu, params, phy, rate_mbps)


def tcp_goodput_11n(rate_mbps: float, mss: int = 1460,
                    phy: PhyParams = None,
                    params: MacParams = None) -> float:
    """Stock TCP/802.11n: data A-MPDU exchange + TCP-ACK A-MPDU
    exchange per cycle."""
    from ..phy.params import PHY_11N, phy_11n_with_rates
    if phy is None:
        phy = PHY_11N if rate_mbps in PHY_11N.data_rates else \
            phy_11n_with_rates((rate_mbps,))
    if params is None:
        params = MacParams(data_rate_mbps=rate_mbps, aggregation=True)
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    n = _batch_size(rate_mbps, mss, phy, params)
    data_mpdu = mss + TCP_HEADERS + MAC_DATA_OVERHEAD
    ack_mpdu = TCP_HEADERS + MAC_DATA_OVERHEAD
    data_bytes = n * mpdu_subframe_bytes(data_mpdu)
    n_acks = max(1, n // 2)
    ack_bytes = n_acks * mpdu_subframe_bytes(ack_mpdu)
    block_ack = phy.control_duration_ns(BLOCK_ACK_BYTES, ack_rate)
    data_exchange = (acq + phy.frame_duration_ns(data_bytes, rate_mbps)
                     + phy.sifs_ns + block_ack)
    ack_exchange = (acq + phy.frame_duration_ns(ack_bytes, rate_mbps)
                    + phy.sifs_ns + block_ack)
    cycle_ns = data_exchange + ack_exchange
    return (n * mss * 8 * 1000.0) / cycle_ns


def hack_goodput_11n(rate_mbps: float, mss: int = 1460,
                     phy: PhyParams = None,
                     params: MacParams = None,
                     compressed_ack_bytes: int = COMPRESSED_ACK_BYTES
                     ) -> float:
    """TCP/HACK on 802.11n: the TCP-ACK exchange disappears; the Block
    ACK grows by the compressed ACKs for the previous batch."""
    from ..phy.params import PHY_11N, phy_11n_with_rates
    if phy is None:
        phy = PHY_11N if rate_mbps in PHY_11N.data_rates else \
            phy_11n_with_rates((rate_mbps,))
    if params is None:
        params = MacParams(data_rate_mbps=rate_mbps, aggregation=True)
    ack_rate = _ack_rate(phy, rate_mbps)
    acq = _acquisition_ns(phy)
    n = _batch_size(rate_mbps, mss, phy, params)
    data_mpdu = mss + TCP_HEADERS + MAC_DATA_OVERHEAD
    data_bytes = n * mpdu_subframe_bytes(data_mpdu)
    n_acks = max(1, n // 2)
    augmented_block_ack = phy.control_duration_ns(
        BLOCK_ACK_BYTES + 2 + n_acks * compressed_ack_bytes, ack_rate)
    cycle_ns = (acq + phy.frame_duration_ns(data_bytes, rate_mbps)
                + phy.sifs_ns + augmented_block_ack)
    return (n * mss * 8 * 1000.0) / cycle_ns


# ----------------------------------------------------------------------
# Figure-level sweeps
# ----------------------------------------------------------------------
def figure_1a_point(rate: float) -> CapacityPoint:
    """Theoretical goodput at one 802.11a rate (a Fig 1a cell)."""
    return CapacityPoint(rate, tcp_goodput_11a(rate),
                         hack_goodput_11a(rate))


def figure_1b_rates(max_streams: int = 4) -> List[float]:
    """The HT rate set Fig 1b sweeps (1..max_streams spatial streams)."""
    from ..phy.params import ht_rates_for_streams
    return sorted({r for s in range(1, max_streams + 1)
                   for r in ht_rates_for_streams(s)})


def figure_1b_point(rate: float,
                    max_streams: int = 4) -> CapacityPoint:
    """Theoretical goodput at one 802.11n rate (a Fig 1b cell).

    The PHY's rate ladder spans the whole figure, so the control-rate
    selection matches the multi-stream sweep it belongs to."""
    from ..phy.params import phy_11n_with_rates
    phy = phy_11n_with_rates(tuple(figure_1b_rates(max_streams)))
    params = MacParams(data_rate_mbps=rate, aggregation=True)
    return CapacityPoint(
        rate,
        tcp_goodput_11n(rate, phy=phy, params=params),
        hack_goodput_11n(rate, phy=phy, params=params))
