"""Fairness and share metrics.

The paper notes "Both TCP/HACK and TCP/802.11a are fair" (§4.2);
these helpers quantify that: Jain's fairness index over per-flow
goodputs.
"""

from __future__ import annotations

from typing import Dict, Iterable


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one hog."""
    values = [v for v in values]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def goodput_fairness(per_flow_goodput: Dict[int, float]) -> float:
    """Jain's index over TCP flows (UDP pseudo-flows excluded)."""
    return jain_index(v for k, v in per_flow_goodput.items() if k > 0)
