"""repro.obs — the observability layer.

Kernel span instrumentation (:mod:`~repro.obs.spans`), the periodic
time-series sampler, telemetry session and the summary that is a view
of its samples (:mod:`~repro.obs.sampler`), the one mergeable histogram
and merge rule (:mod:`~repro.obs.metrics`),
Chrome-trace export (:mod:`~repro.obs.export`) and the artifact
reader/summarizer behind ``repro report`` (:mod:`~repro.obs.report`).

Entry point for simulations: pass ``telemetry=TelemetryConfig(...)``
to :func:`repro.workloads.scenarios.run_scenario` (CLI:
``repro simulate --telemetry PATH --trace-export PATH
--sample-interval MS``).  Telemetry is an execution knob — disabled
(the default) it costs one local test per dispatched event and leaves
every metric and cache signature bit-identical.
"""

from .export import chrome_trace, write_chrome_trace
from .metrics import Histogram
from .report import TelemetryArtifactError, format_report, \
    load_telemetry, print_report
from .sampler import MAX_EXPORT_FRAMES, TelemetryConfig, \
    TelemetrySession, telemetry_meta, telemetry_summary, \
    write_telemetry_file
from .spans import KernelInstrument, owner_key

__all__ = [
    "Histogram",
    "KernelInstrument",
    "MAX_EXPORT_FRAMES",
    "TelemetryArtifactError",
    "TelemetryConfig",
    "TelemetrySession",
    "chrome_trace",
    "format_report",
    "load_telemetry",
    "owner_key",
    "print_report",
    "telemetry_meta",
    "telemetry_summary",
    "write_chrome_trace",
    "write_telemetry_file",
]
