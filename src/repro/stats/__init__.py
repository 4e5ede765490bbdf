"""Measurement collectors: MAC stats, tracing, fairness, FCT."""

from .collectors import MacStats
from .fairness import goodput_fairness, jain_index
from .fct import FctCollector, FctRecord, percentile
from .trace import MediumTracer, TraceRecord

__all__ = ["MacStats", "MediumTracer", "TraceRecord", "jain_index",
           "goodput_fairness", "FctCollector",
           "FctRecord", "percentile"]
