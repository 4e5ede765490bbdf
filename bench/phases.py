"""What one child process measures: a timed repeat, or one traced phase.

``run.py`` starts a fresh child per repeat and per phase, so imports,
allocator state and caches never carry from one measurement to the next.
Every number is taken from outside the program: ``perf_counter`` around a
public call, ``cProfile`` around the same call, or a micro loop over a
public class.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import resource
import time
from typing import Any, Callable, Dict, List, Tuple

from workloads import WORKLOADS, Workload, run_sweep, scenario_digest, \
    sweep_argv, sweep_experiments

#: Layers reported by exact module name; every other ``repro`` module
#: reports under its package if the package is listed, else under the
#: layer FOLDED names, else as "other" (kept in the ledger, not declared
#: as a metric).  Frames outside ``repro`` — heapq, dict and deque
#: methods, random, json — are ``python.builtins``.
MODULE_LAYERS = frozenset((
    "sim.engine", "sim.medium", "sim.wired", "mac.dcf", "mac.blockack",
    "mac.aggregation", "mac.qdisc", "tcp.sender", "tcp.receiver",
    "tcp.segment", "core.driver"))
PACKAGE_LAYERS = frozenset((
    "phy", "rohc", "nodes", "traffic", "stats", "workloads", "obs"))
FOLDED = {
    "sim.units": "sim.engine", "sim.rng": "sim.engine",
    "mac.frames": "mac.dcf", "mac.params": "mac.dcf",
    "mac.rate_control": "mac.dcf",
    "tcp.flow": "tcp.sender", "tcp.cubic": "tcp.sender",
    "core.policies": "core.driver",
}
PROFILE_SCALE = 0.25
MICRO_OPS = 200_000


def layer_of(filename: str) -> str:
    _, found, tail = filename.rpartition("/repro/")
    if not found or not tail.endswith(".py"):
        return "python.builtins"
    module = tail[:-3].replace("/", ".")
    if module in MODULE_LAYERS:
        return module
    package = module.split(".")[0]
    if package in PACKAGE_LAYERS:
        return package
    return FOLDED.get(module, "other")


def _set_up(workload: Workload, seed: int, scale: float, tmp_dir: str,
            stamps: Dict[str, float], **run_kwargs) -> Callable[[], Any]:
    for module in workload.imports:
        importlib.import_module(module)
    stamps["imported"] = time.time()
    call = workload.build(seed, scale, tmp_dir, **run_kwargs)
    stamps["built"] = time.time()
    return call


def _timed(call: Callable[[], Any]) -> Tuple[Any, float]:
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def _best_of(runs: int, measure: Callable[[], float]) -> float:
    return min(measure() for _ in range(runs))


# ----------------------------------------------------------------------
# Phases (each returns the JSON-able record the child prints)
# ----------------------------------------------------------------------
def timed(workload: Workload, seed: int, scale: float, tmp_dir: str,
          stamps: Dict[str, float]) -> Dict[str, Any]:
    """One repeat: set up, time the public call, inspect its result."""
    call = _set_up(workload, seed, scale, tmp_dir, stamps)
    result, wall_s = _timed(call)
    stamps["called"] = time.time()
    record = workload.inspect(result, scale, tmp_dir)
    record["wall_s"] = wall_s
    record["setup_s"] = stamps["built"] - stamps["spawned"]
    # Linux reports ru_maxrss in KiB.
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def setup(workload: Workload, seed: int, scale: float, tmp_dir: str,
          stamps: Dict[str, float]) -> Dict[str, Any]:
    """Set-up only: one more ``setup_s`` sample, nothing run."""
    _set_up(workload, seed, scale, tmp_dir, stamps)
    return {"setup_s": stamps["built"] - stamps["spawned"]}


def _variant(make_run_kwargs: Callable[[], Dict[str, Any]]):
    """The scenario call under an execution knob: its wall and digest."""
    def phase(workload, seed, scale, tmp_dir, stamps):
        call = _set_up(workload, seed, scale, tmp_dir, stamps,
                       **make_run_kwargs())
        result, wall_s = _timed(call)
        stamps["called"] = time.time()
        return {"wall_s": wall_s,
                "digest": scenario_digest(result.metrics_dict())}
    return phase


def _telemetry_kwargs() -> Dict[str, Any]:
    from repro.obs import TelemetryConfig
    return {"telemetry": TelemetryConfig(sample_interval_ns=10_000_000)}


shard = _variant(lambda: {"shard_jobs": 1})
telemetry = _variant(_telemetry_kwargs)


def profile(workload: Workload, seed: int, scale: float, tmp_dir: str,
            stamps: Dict[str, float]) -> Dict[str, Any]:
    """The scenario call at 1/4 duration, plain then under cProfile;
    self time (``tottime``) and call counts summed per layer."""
    call = _set_up(workload, seed, scale * PROFILE_SCALE, tmp_dir, stamps)
    _, plain_s = _timed(call)
    profiler = cProfile.Profile()
    profiler.enable()
    _, profiled_s = _timed(call)
    profiler.disable()
    stamps["called"] = time.time()
    layers: Dict[str, Dict[str, float]] = {}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) \
            in pstats.Stats(profiler).stats.items():
        layer = layers.setdefault(layer_of(filename),
                                  {"self_s": 0.0, "calls": 0})
        layer["self_s"] += self_s
        layer["calls"] += calls
    total = sum(layer["self_s"] for layer in layers.values())
    rows = {f"{name}.self_share":
            layers.get(name, {"self_s": 0.0})["self_s"] / total
            for name in MODULE_LAYERS | PACKAGE_LAYERS
            | {"python.builtins"}}
    rows["trace.profile_overhead_ratio"] = profiled_s / plain_s
    return {"rows": rows, "layers": layers}


def points(workload: Workload, seed: int, scale: float, tmp_dir: str,
           stamps: Dict[str, float]) -> Dict[str, Any]:
    """sweep_quick, traced: one span per point from the runner's public
    progress callback, then the sweep engine's own per-point costs."""
    from repro.experiments.batch import SweepCache, SweepRunner, \
        point_signature
    from repro.experiments.runner import EXPERIMENTS

    _set_up(workload, seed, scale, tmp_dir, stamps)
    spans: List[Dict[str, Any]] = []
    all_points = []
    executed_point_us = 0.0
    for name in sweep_experiments(scale):
        spec = EXPERIMENTS[name].sweep_spec(quick=True)
        # The callback fires after the cache scan, then once per point.
        marks = [time.time()]
        SweepRunner(cache_dir=tmp_dir,
                    progress=lambda _p: marks.append(time.time())
                    ).run(spec)
        spans.append({"name": f"sweep:{name}", "start": marks[0],
                      "end": marks[-1], "parent": None})
        for point, start, end in zip(spec.points, marks[1:], marks[2:]):
            key = "/".join(str(part) for part in point.key)
            spans.append({"name": f"point:{name}:{key}", "start": start,
                          "end": end, "parent": f"sweep:{name}"})
        all_points.extend(spec.points)
        if name == "fig01":
            # 26 analytic points whose own work is ~0: what is left is
            # the engine's cost of executing a point.
            executed_point_us = (marks[-1] - marks[0]) * 1e6 \
                / len(spec.points)
    stamps["called"] = time.time()

    count = len(all_points)
    started = time.perf_counter()
    signatures = [point_signature(point) for point in all_points]
    signature_us = (time.perf_counter() - started) * 1e6 / count

    cache = SweepCache(tmp_dir)
    started = time.perf_counter()
    loaded = [cache.load(signature) for signature in signatures]
    cache_load_us = (time.perf_counter() - started) * 1e6 / count
    copy = SweepCache(f"{tmp_dir}/copy")
    started = time.perf_counter()
    for signature, metrics in zip(signatures, loaded):
        copy.store(signature, metrics)
    cache_store_us = (time.perf_counter() - started) * 1e6 / count

    argv = sweep_argv(scale, tmp_dir)
    cached_point_us = _best_of(
        10, lambda: _timed(lambda: run_sweep(argv))[1]) * 1e6 / count
    return {"spans": spans, "rows": {
        "experiments.batch.executed_point_us": executed_point_us,
        "experiments.batch.cached_point_us": cached_point_us,
        "experiments.batch.signature_us": signature_us,
        "experiments.batch.cache_store_us": cache_store_us,
        "experiments.batch.cache_load_us": cache_load_us,
    }}


# ----------------------------------------------------------------------
# Micro loops over public classes
# ----------------------------------------------------------------------
def _noop() -> None:
    pass


def _micro_engine() -> Dict[str, float]:
    from repro.sim.engine import Simulator

    def dispatch() -> float:
        # 64 self-rescheduling tickers: a heap the size a cell keeps.
        sim = Simulator()
        left = [MICRO_OPS]

        def tick(period: int) -> None:
            left[0] -= 1
            if left[0] >= 64:
                sim.schedule(period, tick, period)

        started = time.perf_counter_ns()
        for index in range(64):
            sim.schedule(index, tick, 1_000 + index)
        executed = sim.run()
        return (time.perf_counter_ns() - started) / executed

    def rearm() -> float:
        # One logical timer pushed back before it fires, as an RTO is.
        sim = Simulator()
        event = sim.schedule(1_000, _noop)
        started = time.perf_counter_ns()
        for delay in range(MICRO_OPS):
            event.cancel()
            event = sim.schedule(1_000 + delay, _noop)
        return (time.perf_counter_ns() - started) / MICRO_OPS

    return {"sim.engine.noop_ns_per_event": _best_of(5, dispatch),
            "sim.engine.rearm_ns_per_op": _best_of(5, rearm)}


def _micro_qdisc(discipline: str) -> Callable[[], Dict[str, float]]:
    def micro() -> Dict[str, float]:
        from repro.mac.params import MacParams
        from repro.mac.qdisc import QdiscStats, make_queue
        from repro.sim.engine import Simulator
        from repro.tcp.segment import TcpSegment

        burst = [TcpSegment(flow_id=1 + index % 8, src="S", dst="C1",
                            seq=0, payload_bytes=1460, ack=0,
                            rwnd=65_535) for index in range(64)]

        def through() -> float:
            queue = make_queue(Simulator(),
                               MacParams(queue_discipline=discipline),
                               QdiscStats())
            started = time.perf_counter_ns()
            for _ in range(MICRO_OPS // len(burst)):
                for packet in burst:
                    queue.append(packet)
                while queue:
                    queue.popleft()
            return (time.perf_counter_ns() - started) / MICRO_OPS

        return {f"mac.qdisc.{discipline}_ns_per_pkt":
                _best_of(5, through)}
    return micro


def _micro_rohc() -> Dict[str, float]:
    """The steady 20k-ACK stream of benchmarks/bench_hack_path.py: four
    bulk flows, two segments per ACK, slow millisecond timestamps."""
    from repro.rohc import Compressor, Decompressor, build_frame
    from repro.tcp.segment import FiveTuple, TcpSegment

    flows, count, batch = 4, 20_000, 8
    tuples = [FiveTuple("10.0.1.1", "10.0.0.1", 5000 + flow, 80)
              for flow in range(flows)]
    cumulative = [0] * flows
    acks = []
    for index in range(count):
        flow = index % flows
        cumulative[flow] += 2920
        tick = 1 + index // 50
        acks.append(TcpSegment(
            flow_id=flow + 1, src="C1", dst="AP", seq=0, payload_bytes=0,
            ack=cumulative[flow], rwnd=65_535, ts_val=tick,
            ts_ecr=tick - 1, five_tuple=tuples[flow]))

    def stream() -> Tuple[float, float, float]:
        compressor, decompressor = Compressor(init_threshold=1), \
            Decompressor()
        for ack in acks[:flows]:
            compressor.note_vanilla_ack(ack)
            decompressor.note_vanilla_ack(ack)
        started = time.perf_counter()
        entries = [compressor.compress(ack) for ack in acks[flows:]]
        encode_s = time.perf_counter() - started
        frames = [build_frame(entries[at:at + batch])
                  for at in range(0, len(entries), batch)]
        started = time.perf_counter()
        decoded = sum(len(decompressor.decompress_frame(frame))
                      for frame in frames)
        decode_s = time.perf_counter() - started
        if decoded != len(entries) or decompressor.crc_failures:
            raise RuntimeError(
                f"ROHC stream: {decoded}/{len(entries)} ACKs decoded, "
                f"{decompressor.crc_failures} CRC failures")
        return (len(entries) / encode_s, decoded / decode_s,
                sum(len(entry.data) for entry in entries) / len(entries))

    runs = [stream() for _ in range(5)]
    return {"rohc.encode_acks_per_s": max(r[0] for r in runs),
            "rohc.decode_acks_per_s": max(r[1] for r in runs),
            "rohc.bytes_per_ack": runs[0][2]}


#: Each workload runs the micro loops of the layers it exercises.
MICROS: Dict[str, Tuple[Callable[[], Dict[str, float]], ...]] = {
    "bulk_vanilla_10c": (_micro_engine, _micro_qdisc("droptail")),
    "bulk_hack_10c": (_micro_engine, _micro_qdisc("droptail"),
                      _micro_rohc),
    "churn_city_20cell": (_micro_engine, _micro_qdisc("fq_codel"),
                          _micro_rohc),
}


def micro(workload: Workload, seed: int, scale: float, tmp_dir: str,
          stamps: Dict[str, float]) -> Dict[str, Any]:
    rows: Dict[str, float] = {}
    for loop in MICROS[workload.name]:
        rows.update(loop())
    stamps["called"] = time.time()
    return {"rows": rows}


PHASES = {"timed": timed, "setup": setup, "profile": profile,
          "shard": shard, "telemetry": telemetry, "points": points,
          "micro": micro}

#: The traced run of each workload, in order, after its timed repeats.
TRACE_PLAN: Dict[str, Tuple[str, ...]] = {
    "bulk_vanilla_10c": ("profile", "micro"),
    "bulk_hack_10c": ("profile", "telemetry", "micro"),
    "churn_city_20cell": ("profile", "shard", "telemetry", "micro"),
    "sweep_quick": ("points",),
}


def run_phase(phase: str, workload_name: str, seed: int, scale: float,
              tmp_dir: str, spawned_at: float) -> Dict[str, Any]:
    stamps = {"spawned": spawned_at}
    record = PHASES[phase](WORKLOADS[workload_name], seed, scale, tmp_dir,
                           stamps)
    stamps["finished"] = time.time()
    record["stamps"] = stamps
    return record
