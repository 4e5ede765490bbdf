"""Frame-level tracing.

A :class:`MediumTracer` attaches to each
:class:`~repro.sim.medium.Medium` of a ``{channel: Medium}`` map as an
observer and records one :class:`TraceRecord` per completed
transmission — a lightweight pcap equivalent for debugging protocol
behaviour and for assertions in tests ("the Block ACK left exactly one
SIFS after the A-MPDU", "no vanilla TCP ACK was transmitted while the
MORE DATA latch was set", ...).

Records carry frame classification, addressing, airtime, collision
status and the HACK payload size, and the tracer offers simple
filtering and timeline-gap helpers.

Once the run is over a tracer is plain data — records, cap, dropped
count; its observers live on the media — so it rides the
``ScenarioResult``, and a multi-shard run's per-channel tracers fold
into the run's with :meth:`MediumTracer.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence

from ..mac.frames import AckFrame, AmpduFrame, BarFrame, BlockAckFrame, \
    DataFrame
from ..sim.medium import Medium, Transmission


@dataclass
class TraceRecord:
    """One transmission on the medium."""

    start_ns: int
    end_ns: int
    src: Optional[str]
    dst: Optional[str]
    frame_type: str       # data | ampdu | ack | block_ack | bar | other
    byte_length: int
    mpdu_count: int
    collided: bool
    hack_payload_bytes: int
    more_data: bool
    sync: bool
    channel: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def is_control(self) -> bool:
        return self.frame_type in ("ack", "block_ack", "bar")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(flag for flag, on in (
            ("M", self.more_data), ("S", self.sync),
            ("X", self.collided),
            ("H", self.hack_payload_bytes > 0)) if on)
        return (f"<{self.start_ns / 1000:.1f}us {self.frame_type} "
                f"{self.src}->{self.dst} {self.byte_length}B {flags}>")


def _classify(frame: Any) -> str:
    if isinstance(frame, AmpduFrame):
        return "ampdu"
    if isinstance(frame, DataFrame):
        return "data"
    if isinstance(frame, BlockAckFrame):
        return "block_ack"
    if isinstance(frame, AckFrame):
        return "ack"
    if isinstance(frame, BarFrame):
        return "bar"
    return "other"


class MediumTracer:
    """Observer that turns medium transmissions into TraceRecords.

    Takes a world's ``{channel: Medium}`` map: one observer is attached
    per channel and each record is tagged with the channel id it was
    heard on.
    """

    def __init__(self, media: Mapping[int, Medium],
                 max_records: Optional[int] = None):
        self.records: List[TraceRecord] = []
        self.max_records = max_records
        self.dropped = 0
        for channel, medium in media.items():
            medium.observers.append(
                lambda tx, _ch=channel: self._observe(tx, _ch))

    def _observe(self, tx: Transmission, channel: int) -> None:
        if (self.max_records is not None
                and len(self.records) >= self.max_records):
            self.dropped += 1
            return
        frame = tx.frame
        sender_addr = getattr(tx.sender, "address", None)
        payload = getattr(frame, "hack_payload", None)
        mpdus = getattr(frame, "mpdus", None)
        self.records.append(TraceRecord(
            start_ns=tx.start, end_ns=tx.end,
            src=getattr(frame, "src", sender_addr),
            dst=getattr(frame, "dst", None),
            frame_type=_classify(frame),
            byte_length=getattr(frame, "byte_length", 0),
            mpdu_count=len(mpdus) if mpdus else 0,
            collided=tx.collided,
            hack_payload_bytes=len(payload) if payload else 0,
            more_data=bool(getattr(frame, "more_data", False)),
            sync=bool(getattr(frame, "sync", False)),
            channel=channel,
        ))

    def merge(self, other: "MediumTracer",
              channels: Sequence[int]) -> None:
        """Fold another simulator's record of the same run into this
        one, in place; ``other`` is left untouched.

        Records sort by ``(end_ns, position in channels)``: the order
        one simulator spanning every channel sees them in, except that
        it breaks a cross-channel end-time tie by heap push order.
        The sort is stable (a simulator's own order is kept) and the
        cap applies to the whole.
        """
        merged = sorted(
            self.records + other.records,
            key=lambda r: (r.end_ns, channels.index(r.channel)))
        kept = merged[:self.max_records]
        self.dropped += other.dropped + len(merged) - len(kept)
        self.records = kept

    # ------------------------------------------------------------------
    def filter(self, frame_type: Optional[str] = None,
               src: Optional[str] = None, dst: Optional[str] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None
               ) -> List[TraceRecord]:
        """Records matching all given criteria."""
        out = []
        for record in self.records:
            if frame_type is not None and record.frame_type != frame_type:
                continue
            if src is not None and record.src != src:
                continue
            if dst is not None and record.dst != dst:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def response_gaps_ns(self) -> List[int]:
        """Gaps between each data/ampdu frame and the next control
        frame from its receiver (SIFS + device delay, observable)."""
        gaps = []
        for i, record in enumerate(self.records[:-1]):
            if record.frame_type not in ("data", "ampdu"):
                continue
            nxt = self.records[i + 1]
            if nxt.is_control and nxt.src == record.dst:
                gaps.append(nxt.start_ns - record.end_ns)
        return gaps

    def airtime_by_station(self) -> dict:
        """Total airtime (ns) keyed by transmitting station."""
        totals: dict = {}
        for record in self.records:
            key = record.src
            totals[key] = totals.get(key, 0) + record.duration_ns
        return totals

    def summary(self) -> dict:
        """Aggregate counts by frame type plus collision totals."""
        out: dict = {"total": len(self.records),
                     "collided": sum(r.collided for r in self.records),
                     "hack_frames": sum(
                         r.hack_payload_bytes > 0 for r in self.records)}
        for record in self.records:
            key = f"type_{record.frame_type}"
            out[key] = out.get(key, 0) + 1
        return out

    def render_timeline(self, start_ns: int = 0,
                        end_ns: Optional[int] = None,
                        limit: int = 60) -> str:
        """Human-readable timeline excerpt, one line per frame::

              1234.0us AP  ->C1   ampdu      x42  65336B  [M]
              1238.5us C1  ->AP   block_ack         57B  [H25]

        Flags: M = MORE DATA, S = SYNC, X = collided, Hn = n bytes of
        compressed TCP ACKs appended.
        """
        lines = []
        for record in self.records:
            if record.start_ns < start_ns:
                continue
            if end_ns is not None and record.start_ns >= end_ns:
                break
            if len(lines) >= limit:
                lines.append(f"... ({len(self.records)} records total)")
                break
            flags = []
            if record.more_data:
                flags.append("M")
            if record.sync:
                flags.append("S")
            if record.collided:
                flags.append("X")
            if record.hack_payload_bytes:
                flags.append(f"H{record.hack_payload_bytes}")
            mpdus = f"x{record.mpdu_count:<3}" if record.mpdu_count \
                else "    "
            flag_text = f"[{','.join(flags)}]" if flags else ""
            lines.append(
                f"{record.start_ns / 1000:>10.1f}us "
                f"{str(record.src):<4}->{str(record.dst):<4} "
                f"{record.frame_type:<9} {mpdus} "
                f"{record.byte_length:>6}B {flag_text}")
        return "\n".join(lines)
