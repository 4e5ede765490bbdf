"""repro.obs — the observability layer.

Kernel span instrumentation (:mod:`~repro.obs.spans`), the periodic
time-series sampler, telemetry session and the summary that is a view
of its samples (:mod:`~repro.obs.sampler`), the one mergeable histogram
and merge rule (:mod:`~repro.obs.metrics`), the one artifact writer —
telemetry JSONL and Chrome trace, written from a finished result
(:mod:`~repro.obs.export`) — and the artifact reader/summarizer behind
``repro report`` (:mod:`~repro.obs.report`).

Entry point for simulations: pass ``telemetry=TelemetryConfig(...)``
to :func:`repro.workloads.scenarios.run_scenario`, which runs every
config as its channels' shards, each sampling its own simulator, and
calls :func:`write_artifacts` once on the merged result (CLI: ``repro
simulate --telemetry PATH --trace-export PATH --sample-interval MS``).
The ``build_simulation`` -> ``run()`` -> ``collect()`` seam — the one
way to a live world — writes nothing; call :func:`write_artifacts` on
``collect(world)`` for files.
Telemetry is an execution knob — disabled (the default) it costs one
local test per dispatched event and leaves every metric and cache
signature bit-identical.
"""

from .export import chrome_trace, write_artifacts
from .metrics import Histogram
from .report import TelemetryArtifactError, format_report, \
    load_telemetry, print_report
from .sampler import MAX_EXPORT_FRAMES, TelemetryConfig, \
    TelemetrySession, telemetry_summary
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
    "telemetry_summary",
    "write_artifacts",
]
