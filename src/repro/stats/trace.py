"""Frame-level tracing.

A :class:`MediumTracer` attaches to each
:class:`~repro.sim.medium.Medium` of a ``{channel: Medium}`` map as an
observer and records one :class:`TraceRecord` per completed
transmission — a lightweight pcap equivalent for debugging protocol
behaviour and for assertions in tests ("the Block ACK left exactly one
SIFS after the A-MPDU", "no vanilla TCP ACK was transmitted while the
MORE DATA latch was set", ...).

Records carry frame classification, addressing, airtime, collision
status and the HACK payload size; the Chrome-trace export
(:mod:`repro.obs.export`) renders them.

Once the run is over a tracer is plain data — records, cap, dropped
count; its observers live on the media — so it rides the
``ScenarioResult``, and a multi-shard run's per-channel tracers fold
into the run's with :meth:`MediumTracer.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

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
