"""The four benchmark workloads: what is built, what is timed, what is checked.

Everything here runs in a child process started by ``run.py`` and calls
only public functions of ``repro``.  A workload is a config builder plus
the one public call the benchmark times; ``inspect`` turns that call's
result into a digest, the operations that count towards ``failed_share``
and the exact-repeat (``R``) layer rows.

Sizes: the bulk cells simulate 10.5 s (0.7 s warm-up) and the city 2.8 s
(0.35 s warm-up) — 0.35x the sizes the issue measured — and the sweep is
four experiments, so one repeat takes ~3.7 s on the 2-core reference host
and six fit the driver's time budget.  Short repeats are deliberate: the
host's noise comes in bursts that only ever slow a repeat down, and the
fastest of six short repeats is far steadier than the median of three long
ones (see README.md).  ``scale`` multiplies the durations (the profile
phase runs at 1/4, the self-test at 1/20).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

SEC = 1_000_000_000

#: Keys of ``ScenarioResult.metrics_dict()`` that describe how the run
#: was executed (host counters, shard plan), not what it simulated.
EXECUTION_KEYS = ("kernel_stats", "telemetry", "shards")

#: A churn run counts as sane when this share of spawned flows finished.
#: Flows still in flight when the run ends are censored; at 2.8 s of
#: simulated time that tail is 3-12% of arrivals over seeds 1-15.
MIN_COMPLETED_SHARE = 0.75

SWEEP_EXPERIMENTS = ("fig01", "fig11", "table2", "table3")
#: The cut-down sweep the self-test runs (``scale`` < 1): the quick grids
#: fix their own durations, so a smaller sweep is fewer experiments.
SWEEP_EXPERIMENTS_SMALL = ("fig01", "table3")


@dataclass(frozen=True)
class Workload:
    """One named workload; BENCHMARK.json records why each was chosen."""

    name: str
    #: Modules the set-up phase imports before building (the ``import``
    #: span of every repeat).
    imports: Tuple[str, ...]
    #: ``build(seed, scale, tmp_dir, **run_kwargs)`` returns the
    #: zero-argument public call that gets timed.
    build: Callable[..., Callable[[], Any]]
    #: ``inspect(result, scale, tmp_dir)`` returns the result's
    #: ``digest``, the ``ops`` checked on it (name -> passed) and its
    #: ``exact`` (R) rows.
    inspect: Callable[..., Dict[str, Any]]


def digest_of(payload: Any) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Scenario workloads: one run_scenario(cfg) call
# ----------------------------------------------------------------------
def _bulk_config(policy_name: str):
    def config(seed: int, scale: float):
        from repro.core.policies import HackPolicy
        from repro.workloads import registry
        return registry.build(
            "multi-client", seed=seed, n_clients=10,
            policy=HackPolicy[policy_name],
            duration_ns=int(10.5 * SEC * scale),
            warmup_ns=int(0.7 * SEC * scale))
    return config


def _churn_config(seed: int, scale: float):
    from repro.traffic.arrivals import ArrivalSpec, SizeSpec
    from repro.workloads import registry
    from repro.workloads.scenarios import LossSpec
    return registry.build(
        "city-20cell", seed=seed, traffic="dynamic", n_clients=2,
        arrivals=ArrivalSpec(
            kind="poisson", rate_per_s=14.0,
            size=SizeSpec(kind="lognormal", median_bytes=30_000,
                          sigma=1.2)),
        cc="cubic", queue_discipline="fq_codel",
        loss=LossSpec(kind="snr", snr_db=22.0), data_rate_mbps=90.0,
        duration_ns=int(2.8 * SEC * scale),
        warmup_ns=int(0.35 * SEC * scale))


def _scenario_build(config):
    def build(seed: int, scale: float, tmp_dir: str, **run_kwargs):
        from repro.workloads.scenarios import run_scenario
        cfg = config(seed, scale)
        return lambda: run_scenario(cfg, **run_kwargs)
    return build


def scenario_digest(metrics: Dict[str, Any]) -> str:
    """sha256 of a ``metrics_dict()``, execution counters excluded."""
    return digest_of({key: value for key, value in metrics.items()
                      if key not in EXECUTION_KEYS})


def _inspect_scenario(result, scale: float,
                      tmp_dir: str) -> Dict[str, Any]:
    metrics = result.metrics_dict()
    fct = metrics["fct"]
    if fct is None:
        goodputs = metrics["per_flow_goodput_mbps"].values()
        sane = bool(goodputs) and all(g > 0 for g in goodputs)
    else:
        sane = fct["flows_completed"] >= \
            MIN_COMPLETED_SHARE * max(1, fct["flows_spawned"])

    kernel = metrics["kernel_stats"]
    senders = metrics["sender_counters"].values()
    drivers = metrics["drivers"].values()
    compressed = sum(d["compressed_acks"] for d in drivers)
    vanilla = sum(d["vanilla_acks_sent"] for d in drivers)
    sent = metrics["medium_frames_sent"]
    breakdown = metrics["time_breakdown_ms"]
    aqm = metrics["aqm"]
    exact = {
        "sim.engine.events_executed": kernel["events_executed"],
        "sim.engine.events_scheduled": kernel["events_scheduled"],
        "sim.engine.cancelled_ratio":
            kernel["events_cancelled"] / kernel["events_scheduled"],
        "sim.engine.heap_compactions": kernel["heap_compactions"],
        "sim.medium.frames_sent": sent,
        "sim.medium.collision_ratio":
            metrics["medium_frames_collided"] / max(1, sent),
        "sim.medium.utilisation": metrics["medium_utilisation"],
        "mac.dcf.channel_acquisition_ms":
            breakdown["channel_acquisition"],
        "mac.dcf.ll_ack_overhead_ms": breakdown["ll_ack_overhead"],
        "mac.qdisc.dequeued": aqm["dequeued"],
        "mac.qdisc.drops": aqm["drops"],
        "mac.qdisc.sojourn_p99_ms": aqm["sojourn_p99_ms"] or 0.0,
        "tcp.sender.segments_sent":
            sum(s["segments_sent"] for s in senders),
        "tcp.sender.retransmits": sum(s["retransmits"] for s in senders),
        "tcp.sender.timeouts": sum(s["timeouts"] for s in senders),
        "core.driver.compressed_acks": compressed,
        "core.driver.vanilla_acks_sent": vanilla,
        "core.driver.compress_fraction":
            compressed / max(1, compressed + vanilla),
        "core.driver.hack_fit_fraction": metrics["hack_fit_fraction"],
        "rohc.acks_reconstructed":
            metrics["decompressor"]["acks_reconstructed"],
        "rohc.crc_failures": metrics["decompressor"]["crc_failures"],
        "rohc.duplicates_skipped":
            metrics["decompressor"]["duplicates_skipped"],
        "rohc.desync_events": metrics["rohc"]["desync_events"],
        "traffic.flows_spawned": fct["flows_spawned"] if fct else 0,
        "traffic.flows_completed": fct["flows_completed"] if fct else 0,
        "stats.fct_p50_ms": (fct["fct_ms"]["p50"] or 0.0) if fct else 0.0,
        "stats.fct_p99_ms": (fct["fct_ms"]["p99"] or 0.0) if fct else 0.0,
        # Static goodput plus churn carried load, as the per-cell
        # blocks define "carried".
        "stats.goodput_mbps":
            sum(cell["carried_mbps"] for cell in metrics["cells"]),
    }
    return {"digest": scenario_digest(metrics), "ops": {"sane": sane},
            "exact": exact}


# ----------------------------------------------------------------------
# sweep_quick: one runner.main(argv) call over a fresh cache directory
# ----------------------------------------------------------------------
def sweep_experiments(scale: float) -> Tuple[str, ...]:
    return SWEEP_EXPERIMENTS if scale >= 1 else SWEEP_EXPERIMENTS_SMALL


def sweep_argv(scale: float, cache_dir: str) -> List[str]:
    return [*sweep_experiments(scale), "--quick", "--cache-dir", cache_dir]


def run_sweep(argv: List[str]) -> Tuple[int, str]:
    """``runner.main(argv)`` with its tables captured."""
    from repro.experiments import runner
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = runner.main(argv)
    return code, captured.getvalue()


def _sweep_build(seed: int, scale: float, tmp_dir: str):
    # No seed: the quick grids fix their own.
    argv = sweep_argv(scale, tmp_dir)
    return lambda: run_sweep(argv)


def _inspect_sweep(result, scale: float, tmp_dir: str) -> Dict[str, Any]:
    """Cold points are read back from the cache the timed call filled;
    then a warm pass over the same cache must return those metrics with
    nothing executed."""
    from repro.experiments.batch import SweepCache, point_signature
    from repro.experiments.runner import EXPERIMENTS

    code, _tables = result
    cache = SweepCache(tmp_dir)
    cold: Dict[str, Any] = {}
    for name in sweep_experiments(scale):
        for point in EXPERIMENTS[name].sweep_spec(quick=True).points:
            signature = point_signature(point)
            cold[signature] = cache.load(signature)
    ops = {f"cold:{sig[:12]}": metrics is not None
           for sig, metrics in cold.items()}

    warm_out = f"{tmp_dir}/warm.json"
    warm_code, _ = run_sweep(
        [*sweep_argv(scale, tmp_dir), "--out", warm_out])
    with open(warm_out) as handle:
        artifacts = json.load(handle)
    warm = {record["signature"]: record
            for artifact in artifacts.values()
            for record in artifact["records"]}
    for sig, metrics in cold.items():
        record = warm.get(sig)
        ops[f"warm:{sig[:12]}"] = (
            record is not None and record["cached"]
            and metrics is not None and record["metrics"] == metrics)
    ops["exit_codes"] = code == 0 and warm_code == 0

    failed_points = sum(1 for metrics in cold.values() if metrics is None)
    return {"digest": digest_of(cold), "ops": ops,
            "exact": {"experiments.batch.points": len(cold),
                      "experiments.batch.points_failed": failed_points}}


_SCENARIO_IMPORTS = ("repro.workloads.registry",
                     "repro.workloads.scenarios")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Stock TCP: rohc idle, the bypass workload for HACK/ROHC changes.
    Workload("bulk_vanilla_10c", _SCENARIO_IMPORTS,
             _scenario_build(_bulk_config("VANILLA")), _inspect_scenario),
    # The same cell with ACKs riding LL ACKs through rohc + core.driver.
    Workload("bulk_hack_10c", _SCENARIO_IMPORTS,
             _scenario_build(_bulk_config("MORE_DATA")), _inspect_scenario),
    # Open-loop flow churn over 20 cells: set-up/teardown, FQ-CoDel,
    # CUBIC, timers on a big heap, FCT stats.
    Workload("churn_city_20cell", _SCENARIO_IMPORTS,
             _scenario_build(_churn_config), _inspect_scenario),
    # Many short points: the sweep engine's per-point costs.
    Workload("sweep_quick", ("repro.experiments.runner",), _sweep_build,
             _inspect_sweep),
)}
