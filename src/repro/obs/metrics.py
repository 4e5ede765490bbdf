"""The mergeable metrics core: one histogram and the merge rule.

**The histogram.**  :class:`Histogram` is the only binned distribution
in ``src/``: queue sojourn (:mod:`repro.mac.qdisc`) and the telemetry
series record into it.
Bins are sparse and log-spaced, :data:`BINS_PER_DECADE` = 100 of them
per decade: bin ``i`` covers ``[10**(i/100), 10**((i+1)/100))`` and
stands for its log-midpoint ``10**((i+0.5)/100)``; values at or below
:data:`MIN_VALUE` share the lowest bin (the logarithm stays total).
``count``, ``total`` (so the mean), ``min`` and ``max`` are exact;
only percentiles are quantised.  :meth:`Histogram.percentile` is the
one percentile law: position ``fraction * (count - 1)`` interpolated
between the midpoints of the bins holding its floor and ceiling ranks
(as :func:`repro.stats.fct.percentile` interpolates the order
statistics themselves), then clamped into ``[min, max]`` — so a
reported percentile is within one bin, a factor ``10**(1/100)`` ≈
2.33%, of the exact order statistic and never outside the observed
range.

**The merge rule: merge accumulators, render once.**  Whatever crosses
a shard boundary is an accumulator with an in-place, associative
``merge(other)`` that leaves ``other`` untouched (:class:`Histogram`,
``MacStats``, ``QdiscStats``, ``FctCollector``, and
``ScenarioResult`` itself, which holds the others) or a flat
``{name: int}`` dict summed by :func:`merge_counts`; a metrics block is
rendered from the merged accumulator, once.  Merging sums counts and
bins and pools min/max, so a shard-merged block equals the unsharded
run's (``tests/obs/test_merge_law.py``; for the whole result,
``tests/workloads/test_sharding.py::TestMergeOrder``).  A record —
telemetry samples, frame records, FCT records — is stored once and
merged by union; its summaries are views rendered from it, never a
second accumulator beside it.

**The digest.**  :func:`digest` is the one content hash: the sweep
cache's key, and the name of what a run simulated (of its record).
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from typing import Any, Dict, Iterable, Mapping, Optional

#: The one histogram resolution: log-bins per decade.
BINS_PER_DECADE = 100
#: Values at or below this floor all land in the lowest bin.
MIN_VALUE = 1e-6

_floor = math.floor
_log10 = math.log10


def _enum_value(obj: Any) -> Any:
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"not JSON-serialisable: {obj!r}")


def canonical_json(payload: Any) -> str:
    """Sorted keys, no whitespace, enums as their values."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_enum_value)


def digest(payload: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` ``(payload)``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def merge_counts(into: Dict[Any, int], other: Mapping[Any, int]) -> None:
    """Sum a flat ``{key: int}`` counter dict into ``into`` key-wise."""
    for key, value in other.items():
        into[key] = into.get(key, 0) + value


class Histogram:
    """Sparse log-binned distribution with exact count / total / min /
    max (the contract is in the module docstring)."""

    __slots__ = ("bins", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.bins: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _floor(_log10(value if value > MIN_VALUE else MIN_VALUE)
                       * BINS_PER_DECADE)
        bins = self.bins
        bins[index] = bins.get(index, 0) + 1

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` each value in order, with the accumulators
        held in locals: the same float additions in the same order, so
        the same ``total`` to the last bit."""
        count, total = self.count, self.total
        low, high = self.min, self.max
        bins = self.bins
        for value in values:
            count += 1
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
            index = _floor(_log10(
                value if value > MIN_VALUE else MIN_VALUE)
                * BINS_PER_DECADE)
            bins[index] = bins.get(index, 0) + 1
        self.count, self.total = count, total
        self.min, self.max = low, high

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        merge_counts(self.bins, other.bins)

    def percentile(self, fraction: float) -> Optional[float]:
        """The value at ``fraction`` in [0, 1]; None when empty."""
        if not self.count:
            return None
        position = fraction * (self.count - 1)
        lower_rank = int(position)
        weight = position - lower_rank
        upper_rank = lower_rank + (1 if weight > 0 else 0)
        lower = upper = None
        seen = 0
        for index in sorted(self.bins):
            seen += self.bins[index]
            if lower is None and seen > lower_rank:
                lower = index
            if seen > upper_rank:
                upper = index
                break
        low, high = (10.0 ** ((index + 0.5) / BINS_PER_DECADE)
                     for index in (lower, upper))
        value = low * (1.0 - weight) + high * weight
        return min(max(value, self.min), self.max)

    def bins_dict(self) -> Dict[str, int]:
        """The occupied bins, JSON-able: ``{str(index): count}`` in
        ascending index order."""
        return {str(index): self.bins[index]
                for index in sorted(self.bins)}

    def as_value(self) -> Dict[str, Any]:
        empty = not self.count
        return {
            "count": self.count,
            "total": self.total,
            "mean": 0.0 if empty else self.total / self.count,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "bins": self.bins_dict(),
        }
