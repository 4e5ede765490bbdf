"""Flow-completion-time statistics.

The paper's tables are steady-state goodputs; churn workloads are
instead judged by *flow completion time* (FCT): how long each finite
transfer took from arrival to last-byte ACK.  This module is the
bookkeeping layer the :class:`~repro.traffic.manager.FlowManager`
feeds and :meth:`ScenarioResult.metrics_dict` surfaces:

* one :class:`FctRecord` per spawned flow (completed or censored at
  the end of the run);
* distribution summaries (p50/p95/p99/mean) computed with a
  deterministic linear-interpolation percentile, overall and binned by
  flow size (mice vs. elephants behave very differently under
  ACK-compression schemes);
* offered vs. carried load — how much the arrival process asked for
  vs. what the network actually delivered inside the run window.

Everything here is plain data so sweep records stay JSON-serialisable
and bit-identical across serial, parallel and cache-restored execution.

Two collection modes share one interface (``open`` / ``close`` /
``summary``):

* :class:`FctCollector` — the default *exact* mode: every record is
  kept, percentiles are exact linear-interpolation order statistics,
  and the summary carries the full per-flow list.  Memory is O(flows).
* :class:`FctAggregator` — the *streaming* mode behind
  ``ScenarioConfig.stream_stats``: completed flows are folded into
  log-spaced histograms and forgotten, so memory is O(live flows +
  occupied bins) — independent of how many flows the run spawns.
  Percentiles come from :class:`repro.obs.metrics.Histogram` (every
  reported percentile is within one bin, about 2.3%, of the exact
  order statistic; the contract is stated there).  Counts, means,
  min/max and load accounting stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import BINS_PER_DECADE, Histogram
from ..sim.units import MS

#: Size-bin upper bounds (bytes) and their stable labels, mice first.
SIZE_BINS: Tuple[Tuple[Optional[int], str], ...] = (
    (30_000, "<=30KB"),
    (300_000, "30KB-300KB"),
    (None, ">300KB"),
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (deterministic, no numpy).

    ``fraction`` is in [0, 1].  Matches ``numpy.percentile``'s default
    'linear' method.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass
class FctRecord:
    """One flow's lifecycle, as the FlowManager saw it."""

    flow_id: int
    client: str
    direction: str
    size_bytes: int
    start_ns: int
    end_ns: Optional[int] = None          # None = censored at run end
    bytes_delivered: int = 0

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def fct_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def as_dict(self) -> Dict[str, Any]:
        fct = self.fct_ns
        return {
            "flow_id": self.flow_id,
            "client": self.client,
            "direction": self.direction,
            "size_bytes": self.size_bytes,
            "start_ms": self.start_ns / MS,
            "fct_ms": None if fct is None else fct / MS,
            "completed": self.completed,
            "bytes_delivered": self.bytes_delivered,
        }


def _distribution(fcts_ms: Sequence[float]) -> Dict[str, Any]:
    if not fcts_ms:
        return zero_distribution()
    return {
        "p50": percentile(fcts_ms, 0.50),
        "p95": percentile(fcts_ms, 0.95),
        "p99": percentile(fcts_ms, 0.99),
        "mean": sum(fcts_ms) / len(fcts_ms),
        "min": min(fcts_ms),
        "max": max(fcts_ms),
    }


def _histogram_distribution(histogram: Histogram) -> Dict[str, Any]:
    """:func:`_distribution` of a streamed population: percentiles at
    the histogram's resolution, mean/min/max exact."""
    if not histogram.count:
        return zero_distribution()
    return {
        "p50": histogram.percentile(0.50),
        "p95": histogram.percentile(0.95),
        "p99": histogram.percentile(0.99),
        "mean": histogram.total / histogram.count,
        "min": histogram.min,
        "max": histogram.max,
    }


def zero_distribution() -> Dict[str, Any]:
    """The ``fct_ms`` block of a run that completed zero flows.

    Explicit (``flows: 0`` with null statistics) rather than a bare
    ``None``: consumers keying into the block get a clear "nothing
    completed" record instead of a silently missing distribution, and
    the schema stays a dict in every case.  ``flows`` only appears
    here — non-empty distributions carry their counts in the sibling
    ``flows_completed`` / per-size ``flows`` fields as before.
    """
    return {"p50": None, "p95": None, "p99": None,
            "mean": None, "min": None, "max": None, "flows": 0}


def has_completions(fct_ms: Optional[Dict[str, Any]]) -> bool:
    """True when an ``fct_ms`` block holds a real distribution (it is
    the zero-count block when no flow completed; older artifacts used
    ``None``)."""
    return fct_ms is not None and fct_ms.get("p50") is not None


def size_bin_label(size_bytes: int) -> str:
    for bound, label in SIZE_BINS:
        if bound is None or size_bytes <= bound:
            return label
    raise AssertionError("unreachable: last bin is unbounded")


def _fct_block(spawned: int, completed: int, fct_ms: Dict[str, Any],
               by_size: Dict[str, Dict[str, Any]],
               offered_bytes: int, carried_bytes: int,
               duration_ns: int) -> Dict[str, Any]:
    """The ``"fct"`` block both collection modes report.

    ``duration_ns`` is the load-accounting window (the scenario
    duration); offered load counts every spawned byte, carried load
    counts delivered bytes (completed flows in full, censored flows
    up to their last delivered byte).
    """
    def mbps(byte_count: int) -> float:
        return byte_count * 8 * 1_000.0 / duration_ns \
            if duration_ns > 0 else 0.0

    return {
        "flows_spawned": spawned,
        "flows_completed": completed,
        "flows_censored": spawned - completed,
        "fct_ms": fct_ms,
        "fct_by_size_ms": by_size,
        "offered_load_mbps": mbps(offered_bytes),
        "carried_load_mbps": mbps(carried_bytes),
    }


class FctCollector:
    """Accumulates :class:`FctRecord`\\ s and summarises them."""

    def __init__(self) -> None:
        self.records: List[FctRecord] = []

    # -- recording -----------------------------------------------------
    def open(self, flow_id: int, client: str, direction: str,
             size_bytes: int, now: int) -> FctRecord:
        record = FctRecord(flow_id=flow_id, client=client,
                           direction=direction, size_bytes=size_bytes,
                           start_ns=now)
        self.records.append(record)
        return record

    def close(self, record: FctRecord) -> None:
        """A flow finished (or was censored at run end).

        Exact mode keeps every record, so there is nothing to fold;
        the hook exists so the :class:`FctAggregator` can share the
        :class:`~repro.traffic.manager.FlowManager` call sequence."""

    def merge(self, other: "FctCollector") -> None:
        """Fold another collector's records into this one (multi-cell
        runs merge per-cell collectors into the combined ``fct``
        block).  ``other`` is left untouched."""
        if not isinstance(other, FctCollector):
            raise TypeError(
                f"cannot merge {type(other).__name__} into exact "
                "FctCollector (collection modes must match)")
        self.records.extend(other.records)

    # -- views ---------------------------------------------------------
    @property
    def spawned(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> List[FctRecord]:
        return [r for r in self.records if r.completed]

    def summary(self, duration_ns: int,
                include_flows: bool = True) -> Dict[str, Any]:
        """The JSON-able block ``metrics_dict`` exposes as ``"fct"``
        (see :func:`_fct_block`), plus the per-flow ``"flows"`` list
        unless ``include_flows`` is off."""
        done = self.completed
        by_size: Dict[str, Dict[str, Any]] = {}
        for _, label in SIZE_BINS:
            bin_fcts = [r.fct_ns / MS for r in done
                        if size_bin_label(r.size_bytes) == label]
            if bin_fcts:
                by_size[label] = dict(
                    _distribution(bin_fcts), flows=len(bin_fcts))
        summary = _fct_block(
            self.spawned, len(done),
            _distribution([r.fct_ns / MS for r in done]), by_size,
            sum(r.size_bytes for r in self.records),
            sum(r.size_bytes if r.completed else r.bytes_delivered
                for r in self.records),
            duration_ns)
        if include_flows:
            summary["flows"] = [r.as_dict() for r in self.records]
        return summary


class FctAggregator:
    """Online, bounded-memory FCT statistics (``stream_stats=True``).

    Interface-compatible with :class:`FctCollector` (``open`` /
    ``close`` / ``summary``) but nothing is retained per flow once it
    closes: completed FCTs (milliseconds) are folded into
    :class:`~repro.obs.metrics.Histogram` bins and the record object
    is dropped.  Peak memory is therefore

        O(concurrently live flows + occupied histogram bins)

    — independent of the total number of flows a run spawns, which is
    what lets million-flow churn cells run inside hundred-cell sweeps.

    **Percentile resolution** (the histogram's contract, tested in
    ``tests/stats/test_fct_stream.py``): a reported percentile is
    within one bin — a multiplicative factor of ≈ 2.33% — of the exact
    value.  Counts, mean, min/max, offered/carried load and size-bin
    tallies are exact; only percentiles are quantised.
    """

    def __init__(self) -> None:
        self.spawned = 0
        self.offered_bytes = 0
        self.carried_bytes = 0
        self.overall = Histogram()
        self.by_size: Dict[str, Histogram] = {}
        #: Live (open, not yet closed) records — bounded by flow
        #: concurrency, not by total flow count.
        self.live_open = 0
        self.max_live = 0

    # -- recording -----------------------------------------------------
    def open(self, flow_id: int, client: str, direction: str,
             size_bytes: int, now: int) -> FctRecord:
        self.spawned += 1
        self.offered_bytes += size_bytes
        self.live_open += 1
        if self.live_open > self.max_live:
            self.max_live = self.live_open
        return FctRecord(flow_id=flow_id, client=client,
                         direction=direction, size_bytes=size_bytes,
                         start_ns=now)

    def close(self, record: FctRecord) -> None:
        """Fold one finished (or censored) flow and forget it."""
        self.live_open -= 1
        if not record.completed:
            # Censored flows only contribute their partial delivery;
            # ``flows_censored`` is derived as spawned - completed in
            # :meth:`summary` (matching exact mode, which also counts
            # still-open flows as censored mid-run).
            self.carried_bytes += record.bytes_delivered
            return
        self.carried_bytes += record.size_bytes
        fct_ms = record.fct_ns / MS
        self.overall.observe(fct_ms)
        self._size_bin(size_bin_label(record.size_bytes)).observe(fct_ms)

    def _size_bin(self, label: str) -> Histogram:
        per_size = self.by_size.get(label)
        if per_size is None:
            per_size = self.by_size[label] = Histogram()
        return per_size

    def merge(self, other: "FctAggregator") -> None:
        """Fold another aggregator in (multi-cell runs merge per-cell
        aggregators into the combined ``fct`` block).

        Counts, means, min/max, size-bin tallies and load accounting
        stay exact; histograms add bin-wise, so merged percentiles
        carry the same documented one-bin resolution as any single
        aggregator (both sides quantise on the identical global bin
        edges — merging loses nothing beyond that).  ``max_live`` sums
        (the cells ran concurrently, so the peaks may coincide: the
        sum is the honest upper bound).  ``other`` is left untouched.
        """
        if not isinstance(other, FctAggregator):
            raise TypeError(
                f"cannot merge {type(other).__name__} into streaming "
                "FctAggregator (collection modes must match)")
        self.spawned += other.spawned
        self.offered_bytes += other.offered_bytes
        self.carried_bytes += other.carried_bytes
        self.live_open += other.live_open
        self.max_live += other.max_live
        self.overall.merge(other.overall)
        for label, histogram in other.by_size.items():
            self._size_bin(label).merge(histogram)

    # -- views ---------------------------------------------------------
    def occupied_bins(self) -> int:
        """Histogram cells in use (the non-live part of peak memory)."""
        return (len(self.overall.bins)
                + sum(len(b.bins) for b in self.by_size.values()))

    def summary(self, duration_ns: int,
                include_flows: bool = True) -> Dict[str, Any]:
        """Same schema as :meth:`FctCollector.summary`, except the
        per-flow ``"flows"`` list is never included (there is nothing
        to list — that is the point) and a ``"streaming"`` block
        documents the percentile resolution."""
        by_size: Dict[str, Dict[str, Any]] = {}
        for _, label in SIZE_BINS:
            histogram = self.by_size.get(label)
            if histogram is not None and histogram.count:
                by_size[label] = dict(
                    _histogram_distribution(histogram),
                    flows=histogram.count)
        summary = _fct_block(
            self.spawned, self.overall.count,
            _histogram_distribution(self.overall), by_size,
            self.offered_bytes, self.carried_bytes, duration_ns)
        summary["streaming"] = {
            "bins_per_decade": BINS_PER_DECADE,
            "relative_resolution":
                10.0 ** (1.0 / BINS_PER_DECADE) - 1.0,
            "occupied_bins": self.occupied_bins(),
            "max_live_records": self.max_live,
        }
        return summary
