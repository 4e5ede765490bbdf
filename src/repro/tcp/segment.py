"""TCP segment model.

Segments are packet-level: payload is represented by its length only
(the simulator never materialises file contents).  Header sizes follow
the paper's setup: 20-byte IP header, 20-byte TCP header, and a 12-byte
timestamp option (RFC 7323 layout including padding), giving the 52
header bytes per ACK that Table 2's byte counts imply (9060 ACKs =
471 120 bytes).

Timestamps are in **milliseconds** of simulation time, matching common
OS tick granularity; this is what makes consecutive ACKs' timestamp
deltas tiny and ROHC-compressible.

These classes are created once per simulated packet — the hottest
allocation site in the whole simulator — so they are ``__slots__``
classes with geometry (``header_bytes`` / ``byte_length`` /
``end_seq``) and the data-or-ACK test (``is_pure_ack``, asked of every
packet at every hop) computed once at construction, and the three
sites that build one per packet (sender, receiver, decompressor) pass
the fields positionally.  Segments are immutable by convention: no
layer rewrites a field after a segment is built (senders and receivers
always construct fresh segments), so the cached values cannot go
stale.
"""

from __future__ import annotations

from typing import Optional, Tuple

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
TIMESTAMP_OPTION_BYTES = 12
#: SACK option: 2 bytes kind/len + 8 per block, padded to 4.
SACK_BLOCK_BYTES = 8
SACK_BASE_BYTES = 4

_PLAIN_HEADER = IP_HEADER_BYTES + TCP_HEADER_BYTES + \
    TIMESTAMP_OPTION_BYTES


class FiveTuple:
    """Connection identity (protocol implied TCP)."""

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "_key")

    def __init__(self, src_ip: str, dst_ip: str, src_port: int,
                 dst_port: int):
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        #: Identity tuple, built once (``key()`` is called per-ACK on
        #: the ROHC path).
        self._key = (src_ip, dst_ip, src_port, dst_port)

    def key(self) -> Tuple[str, str, int, int]:
        return self._key

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.dst_ip, self.src_ip,
                         self.dst_port, self.src_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FiveTuple({self.src_ip!r}, {self.dst_ip!r}, "
                f"{self.src_port}, {self.dst_port})")


_DEFAULT_TUPLE = FiveTuple("0.0.0.0", "0.0.0.0", 0, 0)


class TcpSegment:
    """One TCP/IP packet (data or ACK)."""

    __slots__ = ("flow_id", "src", "dst", "seq", "payload_bytes",
                 "ack", "rwnd", "ts_val", "ts_ecr", "sack_blocks",
                 "five_tuple", "header_bytes", "byte_length",
                 "is_pure_ack", "end_seq", "_hack_init_ordinal")

    def __init__(self, flow_id: int, src: str, dst: str, seq: int,
                 payload_bytes: int, ack: int, rwnd: int,
                 ts_val: int = 0, ts_ecr: int = 0,
                 sack_blocks: Tuple[Tuple[int, int], ...] = (),
                 five_tuple: Optional[FiveTuple] = None):
        self.flow_id = flow_id
        self.src = src                  # node name (wifi/wired routing)
        self.dst = dst
        self.seq = seq                  # first payload byte's offset
        self.payload_bytes = payload_bytes
        self.ack = ack                  # cumulative ACK number
        self.rwnd = rwnd                # advertised window (bytes)
        self.ts_val = ts_val            # sender's timestamp (ms)
        self.ts_ecr = ts_ecr            # echoed timestamp (ms)
        self.sack_blocks = sack_blocks
        self.five_tuple = _DEFAULT_TUPLE if five_tuple is None \
            else five_tuple
        header = _PLAIN_HEADER
        if sack_blocks:
            header += SACK_BASE_BYTES + \
                SACK_BLOCK_BYTES * len(sack_blocks)
        self.header_bytes = header
        self.byte_length = header + payload_bytes
        self.is_pure_ack = payload_bytes == 0
        self.end_seq = seq + payload_bytes
        #: Per-flow vanilla ordinal tag (set by the HACK driver so the
        #: opportunistic pull can spare context-establishing ACKs).
        self._hack_init_ordinal = 0

    @property
    def kind(self) -> str:
        """Stats classification used throughout the MAC layer."""
        return "tcp_ack" if self.payload_bytes == 0 else "tcp_data"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_pure_ack:
            return f"<ACK f{self.flow_id} ack={self.ack}>"
        return (f"<DATA f{self.flow_id} seq={self.seq}"
                f"+{self.payload_bytes}>")


class UdpDatagram:
    """A UDP packet (payload length only)."""

    __slots__ = ("src", "dst", "payload_bytes", "seq", "byte_length")

    kind = "udp"

    def __init__(self, src: str, dst: str, payload_bytes: int,
                 seq: int = 0):
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.seq = seq
        self.byte_length = IP_HEADER_BYTES + 8 + payload_bytes
