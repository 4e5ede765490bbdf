"""Channel sharding: the plan/shard/merge pipeline's oracles.

The headline equivalence (this PR's analogue of the silent-cell
oracle): a multi-channel scenario executes as one shard per channel —
serially or side by side in worker processes — and must produce
metrics identical to the whole-simulator run of the same config
(``build_simulation(cfg)`` -> ``run()`` -> ``collect()``, the oracle
``run_whole`` below).  Cross-channel invisibility makes that an exact,
bitwise claim for ``record()`` — what the run simulated, and what a
sweep caches.  The kernel view is execution, not simulation: a merged
result's ``kernel_stats`` is the sum of its shards' counters, which
ride under ``metrics_dict()["shards"]`` (the whole-simulator run has no
such key — per-shard simulators schedule their own snapshot events,
so their counts never add up to the shared kernel's).

A second, stronger oracle pins the channel semantics themselves:
N cells on N distinct channels must each reproduce the corresponding
*isolated single-cell run* bit-for-bit — sharding is not merely
self-consistent, it equals the world where the other channels never
existed.
"""

import copy
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import ScenarioConfig, run_scenario
from repro.adversary import AdversaryConfig
from repro.experiments.batch import SweepPoint, SweepRunner, \
    execute_point
from repro.obs import TelemetryConfig
from repro.obs.metrics import digest, merge_counts
from repro.sim.units import MS
from repro.traffic.arrivals import ArrivalSpec, SizeSpec
from repro.workloads import registry, scenarios
from repro.workloads.scenarios import build_simulation, collect
from repro.workloads.sharding import ShardExecutionError, execute_shard

from tests.experiments.test_resumable import children_of, is_running, \
    subprocess_env
from tests.workloads.test_multi_cell import CellMap, base_config, \
    normalised

from tests.helpers import grid_spec

CHURN = dict(traffic="dynamic",
             arrivals=ArrivalSpec(
                 kind="poisson", rate_per_s=30.0,
                 size=SizeSpec(kind="lognormal",
                               median_bytes=40_000, sigma=1.0)))


def without_wall_times(result):
    """``metrics_dict()`` with the host wall times (span tables) out."""
    metrics = normalised(result.metrics_dict())
    for block in [metrics, *metrics.get("shards", ())]:
        if block.get("telemetry"):
            block["telemetry"]["spans"] = None
    return metrics


def frame_record(result, channel=None):
    """The frame record in merge order, ``(end_ns, plan channel
    order)`` — a single heap departs from it only at cross-channel
    end-time ties, which it breaks by push order; optionally one
    channel's frames."""
    channels = result.config.ordered_channels()
    return sorted(
        (record for record in result.trace.records
         if channel in (None, record.channel)),
        key=lambda r: (r.end_ns, channels.index(r.channel)))


def recorded(result):
    """What the whole-simulator oracle and a merge must agree on: the
    record, the telemetry block outside its wall times, and what the
    run recorded."""
    telemetry = result.telemetry
    trace = result.trace
    return (normalised(result.record()),
            telemetry and normalised(dict(telemetry, spans=None)),
            result.telemetry_samples,
            trace and (frame_record(result), trace.dropped))


def everything(result):
    """Every byte a result carries, wall times included."""
    trace, instrument = result.trace, result.telemetry_instrument
    return (normalised(result.metrics_dict()), result.telemetry_samples,
            trace and (trace.records, trace.dropped),
            instrument and instrument.spans)


def frame_telemetry(directory, **knobs):
    """Telemetry that asks for the frame record — a Chrome-trace
    export, the one way to ask for it."""
    return TelemetryConfig(
        trace_export_path=str(directory / "run.trace.json"), **knobs)


def run_whole(cfg, telemetry=None):
    """The whole-simulator oracle: every channel in one simulator."""
    world = build_simulation(cfg, telemetry=telemetry)
    world.run()
    return collect(world)


def summed_kernels(shard_blocks):
    """Key-wise sum of ``metrics_dict()["shards"]`` kernel counters."""
    total = {}
    for block in shard_blocks:
        merge_counts(total, block["kernel_stats"])
    return total


class TestShardPlan:
    """``cfg.shards()``: one shard per channel in use, in
    ``ordered_channels()`` order, each with its ascending cells."""

    def test_round_robin_partition(self):
        cfg = base_config(cells=5, channels=3)
        assert cfg.shards() == [(0, (0, 3)), (1, (1, 4)), (2, (2,))]

    def test_explicit_map_first_appearance_order(self):
        cfg = base_config(CellMap, cells=4, channels=3,
                          channel_map=(2, 0, 2, 1))
        assert cfg.shards() == [(2, (0, 2)), (0, (1,)), (1, (3,))]

    def test_single_channel_is_one_shard(self):
        assert base_config(cells=3).shards() == [(0, (0, 1, 2))]

    def test_describe_is_json_able(self):
        """The run records its plan as ``shard_info["shards"]``, a
        channel -> cells map that survives a JSON round-trip."""
        cfg = base_config(cells=4, channels=2, n_clients=1)
        info = run_scenario(cfg, shard_jobs=1).shard_info
        payload = json.loads(json.dumps(info))
        assert payload == info
        assert payload["shards"] == {"0": [0, 2], "1": [1, 3]}
        assert [(int(channel), tuple(cells)) for channel, cells
                in payload["shards"].items()] == cfg.shards()

    def test_frame_record_plans_like_any_other(self, tmp_path):
        """What a run records is not the plan's business: the frame
        record is asked for through telemetry, and telemetry is not
        even an input."""
        cfg = base_config(CellMap, cells=4, channels=3,
                          channel_map=(2, 0, 2, 1))
        assert cfg.shards() == copy.deepcopy(cfg).shards()
        with pytest.raises(TypeError):
            cfg.shards(frame_telemetry(tmp_path))


class TestShardEquivalence:
    """Sharded == whole simulator, bit for bit (modulo kernel_stats)."""

    @pytest.fixture(scope="class")
    def static_runs(self):
        cfg = base_config(cells=4, channels=2, n_clients=1, seed=3)
        return (run_whole(cfg), run_scenario(cfg, shard_jobs=1))

    def test_static_metrics_identical(self, static_runs):
        unsharded, sharded = static_runs
        assert normalised(unsharded.record()) == \
            normalised(sharded.record())

    def test_kernel_stats_are_per_shard_blocks(self, static_runs):
        unsharded, sharded = static_runs
        # A merged result's counters are the key-wise sum of its
        # shards', which ride verbatim under metrics_dict()["shards"],
        # plan order.
        assert sharded.kernel_stats == summed_kernels(sharded.shard_blocks)
        assert sharded.kernel_stats != unsharded.kernel_stats
        blocks = sharded.metrics_dict()["shards"]
        assert [b["channel"] for b in blocks] == [0, 1]
        assert [b["cells"] for b in blocks] == [[0, 2], [1, 3]]
        assert all(b["kernel_stats"]["events_executed"] > 0
                   for b in blocks)
        assert all(b["telemetry"] is None for b in blocks)
        assert "shards" not in unsharded.metrics_dict()
        assert unsharded.kernel_stats["events_executed"] > 0

    def test_shard_info_records_the_plan(self, static_runs):
        _, sharded = static_runs
        info = sharded.shard_info
        assert info["mode"] == "serial"
        assert info["shards"] == {"0": [0, 2], "1": [1, 3]}
        assert set(info["shard_wall_s"]) == {"0", "1"}

    def test_churn_metrics_identical(self):
        cfg = base_config(cells=4, channels=2, n_clients=1, seed=7,
                          duration_ns=1200 * MS, warmup_ns=400 * MS,
                          **CHURN)
        unsharded = run_whole(cfg)
        sharded = run_scenario(cfg, shard_jobs=1)
        assert normalised(unsharded.record()) == \
            normalised(sharded.record())

    def test_aqm_and_adversary_blocks_identical(self):
        """Both blocks are rendered once, from accumulators merged
        over MACs and then over shards: FQ-CoDel queues loaded by
        churn plus a CBR floor, with a mutator on every channel."""
        cfg = base_config(cells=4, channels=2, n_clients=1, seed=7,
                          duration_ns=1200 * MS, warmup_ns=400 * MS,
                          queue_discipline="fq_codel",
                          udp_background_mbps=40.0,
                          adversary=AdversaryConfig(kind="mutator",
                                                    intensity=0.5),
                          **CHURN)
        unsharded = run_whole(cfg).metrics_dict()
        sharded = run_scenario(cfg, shard_jobs=1).metrics_dict()
        assert unsharded["aqm"] == sharded["aqm"]
        assert unsharded["adversary"] == sharded["adversary"]
        assert unsharded["aqm"]["discipline"] == "fq_codel"
        assert unsharded["aqm"]["dequeued"] == \
            sum(unsharded["aqm"]["sojourn_bins"].values()) > 0
        assert unsharded["adversary"]["frames_mutated"] > 0

    def test_parallel_equals_serial_including_kernel(self):
        cfg = base_config(cells=4, channels=2, n_clients=1, seed=3)
        serial = run_scenario(cfg, shard_jobs=1)
        parallel = run_scenario(cfg, shard_jobs=2)
        assert normalised(serial.metrics_dict()) == \
            normalised(parallel.metrics_dict())
        assert parallel.shard_info["mode"] == "parallel"

    def test_single_channel_sharding_is_identity(self):
        """One channel -> a one-shard run whatever ``shard_jobs``
        says: in-process, and the whole simulator's run, kernel
        counters included."""
        cfg = base_config(cells=2, n_clients=1, seed=2)
        plain = run_scenario(cfg)
        routed = run_scenario(cfg, shard_jobs=4)
        assert normalised(plain.metrics_dict()) == \
            normalised(routed.metrics_dict()) == \
            normalised(run_whole(cfg).metrics_dict())
        assert routed.shard_info["mode"] == "serial"
        assert routed.shard_info["shards"] == {"0": [0, 1]}
        assert "shards" not in routed.metrics_dict()

    def test_shard_jobs_below_one_rejected(self):
        cfg = base_config(cells=2, channels=2)
        for jobs in (0, -2):
            with pytest.raises(ValueError, match="shard_jobs"):
                run_scenario(cfg, shard_jobs=jobs)


class TestMergeOrder:
    """The whole result obeys the law its parts do
    (``tests/obs/test_merge_law.py``): a pool completes shards in any
    order, and ``ScenarioResult.merge`` must not care — nor how the
    merges are grouped."""

    #: Whether the shards carry everything a run can record.
    RECORDING = False

    @pytest.fixture(scope="class")
    def shards(self, tmp_path_factory):
        cfg = base_config(cells=3, channels=3, n_clients=1, seed=5,
                          duration_ns=1200 * MS, warmup_ns=400 * MS,
                          arrivals=CHURN["arrivals"])
        telemetry = frame_telemetry(tmp_path_factory.mktemp("frames"),
                                    sample_interval_ns=50 * MS) \
            if self.RECORDING else None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenarios, "MAX_EXPORT_FRAMES", 700)
            results = [execute_shard(cfg, cells, telemetry)[0]
                       for _, cells in cfg.shards()]
            return results, recorded(run_whole(cfg, telemetry))

    def test_merge_ignores_insertion_order(self, shards):
        results, unsharded = shards
        kernel_sum = {}
        for result in results:
            merge_counts(kernel_sum, result.kernel_stats)
        for order in itertools.permutations(range(3)):
            for left_first in (True, False):
                a, b, c = (copy.deepcopy(results[i]) for i in order)
                if left_first:
                    a.merge(b)
                    a.merge(c)
                else:
                    b.merge(c)
                    a.merge(b)
                assert a.kernel_stats == summed_kernels(a.shard_blocks) \
                    == kernel_sum
                assert [block["cells"] for block in a.shard_blocks] \
                    == [[0], [1], [2]]
                assert recorded(a) == unsharded, (order, left_first)

    def test_merge_leaves_other_untouched(self, shards):
        results, _ = shards
        into, other = copy.deepcopy(results[2]), results[0]
        before = copy.deepcopy(everything(other))
        into.merge(other)
        into.merge(results[1])
        assert everything(other) == before
        assert other.shard_blocks is None and other.kernel_stats

    def test_result_crosses_the_pool_boundary(self, shards):
        """A shard's result is what a pool worker returns: pickling it
        loses nothing ``metrics_dict()`` renders."""
        results, _ = shards
        for result in results:
            clone = pickle.loads(pickle.dumps(result))
            assert everything(clone) == everything(result)


class TestMergeOrderOfRecordings(TestMergeOrder):
    """The same law on shards that each carry a capped frame record,
    telemetry samples and kernel timings."""

    RECORDING = True


class TestIsolationOracle:
    """N cells on N distinct channels == N isolated single-cell runs."""

    def assert_cells_match_isolated_runs(self, cfg):
        combined = run_scenario(cfg, shard_jobs=1)
        channels = cfg.ordered_channels()
        for channel, cells in cfg.shards():
            assert len(cells) == 1
            shard, _ = execute_shard(cfg, cells)
            [shard_block] = shard.cell_blocks
            assert normalised(combined.cell_blocks[cells[0]]) == \
                normalised(shard_block)
            assert shard.channel_blocks == [
                combined.channel_blocks[channels.index(channel)]]

    def test_static_cells_isolated(self):
        self.assert_cells_match_isolated_runs(
            base_config(cells=3, channels=3, n_clients=1, seed=5))

    def test_churn_cells_isolated(self):
        self.assert_cells_match_isolated_runs(
            base_config(cells=3, channels=3, n_clients=1, seed=5,
                        duration_ns=1200 * MS, warmup_ns=400 * MS,
                        **CHURN))


class TestShardGuards:
    def test_shard_failure_names_the_shard(self):
        cfg = base_config(cells=2, channels=2,
                          traffic="nonsense")
        with pytest.raises(ValueError):
            # Traffic validation fires before sharding: the config is
            # rejected up front, not wrapped per shard.
            run_scenario(cfg, shard_jobs=1)
        error = ShardExecutionError(1, (1,), "RuntimeError: boom")
        assert "channel 1" in str(error)
        assert error.cells == (1,)

    def test_shard_failure_pickles(self):
        """A sweep's worker hands its point's error back pickled; the
        parent must rebuild it, not mistake a failed load for a dead
        pool."""
        error = ShardExecutionError(0, (0, 2), "RuntimeError: boom")
        loaded = pickle.loads(pickle.dumps(error))
        assert type(loaded) is ShardExecutionError
        assert str(loaded) == str(error) == \
            "shard for channel 0 (cells [0, 2]) failed: RuntimeError: boom"
        assert (loaded.channel, loaded.cells) == (0, (0, 2))

    def test_failing_point_in_a_pooled_sweep_fails_alone(self,
                                                          monkeypatch):
        """A one-channel scenario point that raises mid-run inside a
        sweep's worker process is that point's error record, named
        ``ShardExecutionError``; the point beside it still runs."""
        build = scenarios.build_simulation

        def failing_build(cfg, cell_indices=None, telemetry=None):
            world = build(cfg, cell_indices, telemetry)
            if cfg.seed == 2:
                def run():
                    raise RuntimeError("boom mid-run")
                world.run = run
            return world

        # Sweep workers are forked per run, so they inherit the patch.
        monkeypatch.setattr(scenarios, "build_simulation", failing_build)
        spec = grid_spec("one-bad", dict(QUICK_RUN, n_clients=1),
                         {}, seeds=(1, 2))
        result = SweepRunner(jobs=2).run(spec)
        by_seed = {record.seed: record for record in result.records}
        assert by_seed[1].ok
        assert by_seed[2].error["type"] == "ShardExecutionError"
        assert by_seed[2].error["message"] == (
            "shard for channel 0 (cells [0]) failed: "
            "RuntimeError: boom mid-run")

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process parents from /proc")
    def test_sigkilled_parent_leaves_no_shard_workers(self):
        """A parent killed outright cannot shut its shard pool down;
        the workers exit by themselves instead of running on."""
        script = textwrap.dedent("""
            from repro.sim.units import SEC
            from repro.workloads.scenarios import run_scenario
            from tests.workloads.test_multi_cell import base_config
            run_scenario(base_config(cells=3, channels=3,
                                     duration_ns=60 * SEC,
                                     warmup_ns=SEC), shard_jobs=3)
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=subprocess_env())
        workers = []
        deadline = time.time() + 60
        while len(workers) < 3 and time.time() < deadline:
            workers = children_of(proc.pid)
            time.sleep(0.05)
        proc.kill()
        proc.wait(timeout=30)
        assert len(workers) == 3, "the run started no shard pool"
        deadline = time.time() + 10
        while any(map(is_running, workers)) and time.time() < deadline:
            time.sleep(0.1)
        leftover = [pid for pid in workers if is_running(pid)]
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        assert leftover == []


QUICK_RUN = dict(duration_ns=120 * MS, warmup_ns=40 * MS)
#: The shapes a plan must factor exactly, as overrides of a registry
#: scenario (telemetry is the fourth: an execution knob, not a config).
SHAPES = {
    "static": {},
    "churn": CHURN,
    "adversary": dict(adversary=AdversaryConfig(kind="jammer",
                                                intensity=0.5)),
}
MULTI_CHANNEL_SCENARIOS = [
    name for name in registry.names()
    if len(registry.build(name).shards()) > 1]


def shard_modes_in_this_process(cfg):
    """(default, ``shard_jobs=2``) execution modes — the pool work
    function of ``test_pool_worker_never_starts_a_pool``."""
    return [run_scenario(cfg, shard_jobs=jobs).shard_info["mode"]
            for jobs in (None, 2)]


class TestFrameRecord:
    """The frame record rides the result and merges like every
    counter: asking for one (a Chrome-trace export) leaves the plan,
    the execution and the metrics alone, and the merged record is the
    whole simulator's."""

    CONFIGS = {
        "explicit-map": base_config(CellMap, cells=4, channels=3,
                                    n_clients=1, seed=3,
                                    channel_map=(2, 0, 2, 1),
                                    **QUICK_RUN),
        "city-20cell": registry.build("city-20cell", **QUICK_RUN),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_frame_record_merges_across_shards(self, name, tmp_path):
        cfg = self.CONFIGS[name]
        telemetry = frame_telemetry(tmp_path)
        whole = run_whole(cfg, telemetry)
        assert {record.channel for record in whole.trace.records} \
            == set(cfg.ordered_channels())
        for jobs in (None, 1, 2):
            result = run_scenario(cfg, shard_jobs=jobs,
                                  telemetry=telemetry)
            assert len(result.shard_info["shards"]) == 3
            assert frame_record(result) == frame_record(whole) \
                == result.trace.records
            for channel in cfg.ordered_channels():
                assert frame_record(result, channel) == [
                    record for record in whole.trace.records
                    if record.channel == channel]
            assert recorded(result) == recorded(whole)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_frame_record_cap_is_the_runs(self, name, tmp_path,
                                          monkeypatch):
        """``MAX_EXPORT_FRAMES`` caps the run, not the shard (shard
        workers are forked per run, so they inherit the patch)."""
        monkeypatch.setattr(scenarios, "MAX_EXPORT_FRAMES", 40)
        cfg = self.CONFIGS[name]
        telemetry = frame_telemetry(tmp_path)
        whole = run_whole(cfg, telemetry)
        assert whole.trace.dropped > 0
        for jobs in (None, 1, 2):
            trace = run_scenario(cfg, shard_jobs=jobs,
                                 telemetry=telemetry).trace
            assert len(trace.records) == 40
            assert trace.dropped == whole.trace.dropped


class TestDefaultExecution:
    """``run_scenario(cfg)`` decides how its shards run; the record it
    returns must not depend on what it decided."""

    def test_registry_has_a_multi_channel_scenario(self):
        assert "city-20cell" in MULTI_CHANNEL_SCENARIOS

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("shape", [*SHAPES, "telemetry"])
    @pytest.mark.parametrize("name", MULTI_CHANNEL_SCENARIOS)
    def test_default_equals_whole_simulator_and_serial_shards(
            self, name, shape, seed):
        cfg = registry.build(name, seed=seed, **QUICK_RUN,
                             **SHAPES.get(shape, {}))
        telemetry = TelemetryConfig() if shape == "telemetry" else None
        default = run_scenario(cfg, telemetry=telemetry)
        serial = run_scenario(cfg, shard_jobs=1, telemetry=telemetry)
        assert without_wall_times(default) == without_wall_times(serial)
        assert default.kernel_stats == summed_kernels(default.shard_blocks)
        assert recorded(default) == recorded(run_whole(cfg, telemetry))

    def test_a_sweep_record_is_the_whole_simulators_record(
            self, tmp_path):
        """What a sweep caches for a multi-channel point is the same
        bytes in-process (shards side by side on a multi-core host) and
        in a sweep's pool worker (shards serial), telemetry on or off,
        and it is the whole simulator's record."""
        cfg = base_config(cells=3, channels=2, n_clients=1, seed=2,
                          **QUICK_RUN)
        point = SweepPoint(key=("city",), config=cfg)
        with ProcessPoolExecutor(max_workers=1) as pool:
            in_worker = pool.submit(execute_point,
                                    point).result(timeout=120)
        records = [execute_point(point), in_worker,
                   execute_point(point, telemetry_dir=str(tmp_path))]
        assert {digest(record) for record in records} \
            == {digest(run_whole(cfg).record())}

    def test_one_core_host_runs_serial_shards(self, monkeypatch):
        cfg = base_config(cells=3, channels=3, n_clients=1, seed=4,
                          **QUICK_RUN)
        default = run_scenario(cfg)
        if (os.cpu_count() or 1) > 1:
            # One worker per shard, not min(shards, cores).
            assert default.shard_info["mode"] == "parallel"
            assert default.shard_info["jobs"] == 3
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one_core = run_scenario(cfg)
        assert one_core.shard_info["mode"] == "serial"
        assert one_core.shard_info["requested_jobs"] is None
        assert normalised(one_core.metrics_dict()) == \
            normalised(default.metrics_dict())

    def test_pool_worker_never_starts_a_pool(self):
        """Regression: the guard tested ``current_process().daemon``,
        which executor workers have not set since Python 3.9 — a
        ``--jobs N`` sweep forked N x shards processes."""
        cfg = base_config(cells=3, channels=3, n_clients=1, seed=4,
                          **QUICK_RUN)
        with ProcessPoolExecutor(max_workers=1) as pool:
            modes = pool.submit(shard_modes_in_this_process,
                                cfg).result(timeout=120)
        assert modes == ["serial", "serial"]

    def test_failing_shard_is_named_under_the_default(self, monkeypatch):
        build = scenarios.build_simulation

        def failing_build(cfg, cell_indices=None, telemetry=None):
            if 1 in cell_indices:
                raise RuntimeError("boom")
            return build(cfg, cell_indices, telemetry)

        # Shard workers are forked per run, so they inherit the patch.
        monkeypatch.setattr(scenarios, "build_simulation", failing_build)
        cfg = base_config(cells=4, channels=2, n_clients=1)
        with pytest.raises(ShardExecutionError,
                           match=r"channel 1 \(cells \[1, 3\]\) "
                                 r"failed: RuntimeError: boom") as caught:
            run_scenario(cfg)
        assert (caught.value.channel, caught.value.cells) == (1, (1, 3))

    def test_first_failing_shard_in_plan_order_is_named(self,
                                                        monkeypatch):
        """Shards run side by side, but they are walked in plan order:
        with every shard failing, the error names the first."""
        def failing_build(cfg, cell_indices=None, telemetry=None):
            raise RuntimeError(f"boom {cell_indices}")

        monkeypatch.setattr(scenarios, "build_simulation", failing_build)
        cfg = base_config(cells=4, channels=2, n_clients=1)
        with pytest.raises(ShardExecutionError,
                           match=r"channel 0 \(cells \[0, 2\]\) "
                                 r"failed: RuntimeError: boom") as caught:
            run_scenario(cfg)
        assert (caught.value.channel, caught.value.cells) == (0, (0, 2))
        assert str(caught.value.__cause__) == "boom (0, 2)"

    def test_one_channel_failure_is_a_shard_failure(self, monkeypatch):
        """A one-channel run is a one-shard run, failures included."""
        def failing_build(cfg, cell_indices=None, telemetry=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(scenarios, "build_simulation", failing_build)
        with pytest.raises(ShardExecutionError,
                           match=r"channel 0 \(cells \[0, 1, 2\]\) "
                                 r"failed: RuntimeError: boom") as caught:
            run_scenario(base_config(cells=3, n_clients=1))
        assert (caught.value.channel, caught.value.cells) == \
            (0, (0, 1, 2))
        assert isinstance(caught.value.__cause__, RuntimeError)
