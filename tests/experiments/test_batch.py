"""Sweep-engine unit tests: grids, signatures, parallel equivalence,
caching, persistence, analytic points, and the one schedule a
many-spec run is."""

import concurrent.futures
import json
import multiprocessing
import os
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.experiments import batch
from repro.experiments.batch import SweepRecord, SweepResult, \
    SweepRunner, SweepSpec, execute_point, point_signature
from repro.sim.units import MS
from repro.workloads.scenarios import ScenarioConfig

from tests.helpers import aggregate, grid_spec, spec_keys

#: Short but non-trivial windows so four runs stay around a second.
FAST = dict(duration_ns=400 * MS, warmup_ns=200 * MS, stagger_ns=0)


def fast_spec(seeds=(1, 2)) -> SweepSpec:
    return grid_spec("unit", FAST, {"n_clients": [1, 2]},
                     seeds=seeds)


class TestSpec:
    def test_grid_crosses_axes_and_seeds(self):
        spec = grid_spec(
            "g", FAST, {"n_clients": [1, 2], "data_rate_mbps": [54.0]},
            seeds=(1, 2, 3))
        assert len(spec.points) == 6
        assert spec_keys(spec) == [(1, 54.0), (2, 54.0)]
        assert {p.config.seed for p in spec.points} == {1, 2, 3}
        assert all(p.kind == "scenario" for p in spec.points)

    def test_add_analytic_points(self):
        spec = SweepSpec("a")
        spec.add_analytic(("x",), "tests.helpers:constant_metrics",
                          value=3.5)
        metrics = execute_point(spec.points[0])
        assert metrics == {"value": 3.5}

    def test_analytic_fn_must_be_dotted(self):
        spec = SweepSpec("a")
        spec.add_analytic(("x",), "no_colon_here")
        with pytest.raises(ValueError, match="module:function"):
            execute_point(spec.points[0])

    def test_analytic_fn_must_return_dict(self):
        spec = SweepSpec("a")
        spec.add_analytic(("x",), "tests.helpers:not_a_metrics_fn")
        with pytest.raises(TypeError, match="metrics dict"):
            execute_point(spec.points[0])

    def test_grid_axis_overrides_base_field(self):
        # Regression: an axis field that also appears in ``base`` used
        # to raise "got multiple values for keyword argument".
        spec = grid_spec(
            "x", dict(FAST, n_clients=2), {"n_clients": [1, 2]},
            seeds=(1,))
        assert [p.config.n_clients for p in spec.points] == [1, 2]
        assert spec_keys(spec) == [(1,), (2,)]

    def test_grid_seed_overrides_base_seed(self):
        spec = grid_spec(
            "x", dict(FAST, seed=99), {"n_clients": [1]}, seeds=(1, 2))
        assert [p.config.seed for p in spec.points] == [1, 2]


class TestSignatures:
    def test_stable_for_equal_configs(self):
        a = grid_spec("s", FAST, {"n_clients": [1]}, seeds=(1,))
        b = grid_spec("s", FAST, {"n_clients": [1]}, seeds=(1,))
        assert point_signature(a.points[0]) == \
            point_signature(b.points[0])

    def test_sensitive_to_any_config_field(self):
        base = grid_spec("s", FAST, {"n_clients": [1]}, seeds=(1,))
        changed = SweepSpec("s")
        changed.add_scenario((1,), ScenarioConfig(
            n_clients=1, seed=1,
            **dict(FAST, duration_ns=FAST["duration_ns"] + 1)))
        assert point_signature(base.points[0]) != \
            point_signature(changed.points[0])

    def test_sensitive_to_seed(self):
        spec = fast_spec(seeds=(1, 2))
        sigs = {point_signature(p) for p in spec.points}
        assert len(sigs) == len(spec.points)


class TestExecution:
    def test_parallel_equals_serial(self):
        spec = fast_spec()
        serial = SweepRunner(jobs=1).run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        assert [r.key for r in serial.records] == \
            [r.key for r in parallel.records]
        assert [r.metrics for r in serial.records] == \
            [r.metrics for r in parallel.records]
        assert aggregate(serial, "aggregate_goodput_mbps") == \
            aggregate(parallel, "aggregate_goodput_mbps")
        assert parallel.executed == len(spec.points)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        """``jobs=0`` was a second spelling of one worker per CPU."""
        with pytest.raises(ValueError, match="jobs"):
            SweepRunner(jobs=jobs)

    def test_aggregate_matches_historical_averaged(self):
        result = SweepRunner().run(fast_spec())
        cell = result.cell((1,), "aggregate_goodput_mbps")
        values = result.values((1,), "aggregate_goodput_mbps")
        import statistics
        assert cell["mean"] == statistics.fmean(values)
        assert cell["stdev"] == statistics.stdev(values)
        assert cell["runs"] == 2

    def test_callable_metric(self):
        result = SweepRunner().run(fast_spec(seeds=(1,)))
        timeouts = result.cell((1,), lambda m: sum(
            c["timeouts"] for c in m["sender_counters"].values()))
        assert timeouts["runs"] == 1

    def test_unknown_cell_raises_with_known_keys(self):
        result = SweepRunner().run(fast_spec(seeds=(1,)))
        with pytest.raises(KeyError, match="known cells"):
            result.cell((99,), "aggregate_goodput_mbps")


class TestCache:
    def test_second_run_is_all_hits(self, tmp_path):
        spec = fast_spec(seeds=(1,))
        first = SweepRunner(cache_dir=tmp_path).run(spec)
        second = SweepRunner(cache_dir=tmp_path).run(spec)
        assert first.executed == 2 and first.cache_hits == 0
        assert second.executed == 0 and second.cache_hits == 2
        assert all(r.cached for r in second.records)
        assert [r.metrics for r in first.records] == \
            [r.metrics for r in second.records]

    def test_changed_cells_invalidate_only_themselves(self, tmp_path):
        spec = fast_spec(seeds=(1,))
        SweepRunner(cache_dir=tmp_path).run(spec)
        changed = SweepSpec("unit")
        changed.add_scenario((1,), ScenarioConfig(
            n_clients=1, seed=1, **FAST))         # unchanged cell
        changed.add_scenario((2,), ScenarioConfig(
            n_clients=2, seed=99, **FAST))        # new seed -> miss
        result = SweepRunner(cache_dir=tmp_path).run(changed)
        assert result.cache_hits == 1
        assert result.executed == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = fast_spec(seeds=(1,))
        SweepRunner(cache_dir=tmp_path).run(spec)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        runner = SweepRunner(cache_dir=tmp_path)
        result = runner.run(spec)
        assert result.executed == 2 and result.cache_hits == 0
        # Quarantined, re-stored: the third run hits cleanly again.
        assert len(list(tmp_path.glob("*.json.corrupt"))) == 2
        third = SweepRunner(cache_dir=tmp_path).run(spec)
        assert third.cache_hits == 2 and third.executed == 0

    def test_parallel_run_populates_cache(self, tmp_path):
        spec = fast_spec(seeds=(1,))
        SweepRunner(jobs=2, cache_dir=tmp_path).run(spec)
        serial = SweepRunner(jobs=1, cache_dir=tmp_path).run(spec)
        assert serial.executed == 0 and serial.cache_hits == 2


class TestPersistence:
    def test_save_load_roundtrip(self):
        # One entry of a --out artifact, through its JSON text.
        result = SweepRunner().run(fast_spec(seeds=(1,)))
        loaded = SweepResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict(), indent=1)))
        assert loaded.spec_name == result.spec_name
        assert loaded.keys() == result.keys()
        assert aggregate(loaded, "aggregate_goodput_mbps") == \
            aggregate(result, "aggregate_goodput_mbps")
        assert all(isinstance(r.key, tuple) for r in loaded.records)

    def test_load_rejects_foreign_json(self):
        with pytest.raises(ValueError, match="sweep-result"):
            SweepResult.from_json_dict({"hello": "world"})

    def test_counts_follow_the_records(self):
        """The counts are views of the records: a reloaded artifact's
        stored counters are not read."""
        result = SweepResult("counts", records=[
            SweepRecord(key=(0,), seed=1, signature="a",
                        metrics={"v": 1.0}),
            SweepRecord(key=(0,), seed=2, signature="b",
                        metrics={"v": 2.0}, cached=True),
            SweepRecord(key=(1,), seed=1, signature="c", metrics=None,
                        error={"type": "RuntimeError"})])
        assert (result.executed, result.cache_hits, result.failed) \
            == (1, 1, 1)
        assert not result.complete
        payload = result.to_json_dict()
        assert (payload["executed"], payload["cache_hits"],
                payload["failed"]) == (1, 1, 1)
        payload.update(executed=9, cache_hits=9, failed=0)
        loaded = SweepResult.from_json_dict(payload)
        assert (loaded.executed, loaded.cache_hits, loaded.failed) \
            == (1, 1, 1)
        del result.records[2]
        assert result.complete and result.failed == 0
        result.interrupted = True
        assert not result.complete


def analytic_spec(n=3) -> SweepSpec:
    spec = SweepSpec("analytic")
    for i in range(n):
        spec.add_analytic((i,), "tests.helpers:constant_metrics",
                          value=float(i))
    return spec


def second_spec() -> SweepSpec:
    """Shares its n_clients=2 point with ``fast_spec(seeds=(1,))``."""
    return grid_spec("second", FAST, {"n_clients": [2, 3]},
                     seeds=(1,))


@pytest.fixture
def pools(monkeypatch):
    """Every pool the runner builds, as a synchronous stand-in that
    records its size and the points handed to it; every point, in a
    pool or not, runs as a stub that records it (no simulation)."""
    record = SimpleNamespace(sizes=[], submitted=[], calls=[])

    class RecordingPool:
        def __init__(self, max_workers, **_worker_setup):
            record.sizes.append(max_workers)

        def submit(self, fn, point, *args):
            record.submitted.append(point)
            future = Future()
            try:
                future.set_result(fn(point, *args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    def stub(point, *_execution_knobs):
        record.calls.append(point)
        if point.fn is not None:
            return dict(point.fn_kwargs)
        if point.config.n_clients == 99:
            raise RuntimeError("poisoned cell")
        return {"clients": point.config.n_clients,
                "seed": point.config.seed}

    # The runner imports its pool class when it starts a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(batch, "execute_point", stub)
    return record


class TestWorkerRule:
    def test_default_pool_is_cores_capped_by_pending_scenario_points(
            self, pools, monkeypatch):
        spec = fast_spec()                       # four scenario points
        for point in analytic_spec().points:
            spec.points.append(point)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = SweepRunner().run(spec)
        assert pools.sizes == [4]
        # Once a pool starts it takes every pending point, analytic
        # ones included.
        assert pools.submitted == spec.points
        assert result.executed == len(spec.points) == len(pools.calls)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        SweepRunner().run(spec)
        assert pools.sizes == [4, 2]
        # An explicit count keeps its meaning: 1 is serial whatever
        # the host, N pools every point.
        SweepRunner(jobs=1).run(spec)
        assert pools.sizes == [4, 2]
        pools.submitted.clear()
        SweepRunner(jobs=3).run(analytic_spec())
        assert pools.sizes == [4, 2, 3] and len(pools.submitted) == 3

    @pytest.mark.parametrize("case", ["one core", "pool worker",
                                      "analytic only",
                                      "one scenario point"])
    def test_default_runs_in_process(self, pools, monkeypatch, case):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        SweepRunner().run(fast_spec())
        assert pools.sizes == [2]        # two cores, four points: pool
        spec = fast_spec()
        if case == "one core":
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif case == "pool worker":
            monkeypatch.setattr(multiprocessing, "parent_process",
                                lambda: object())
        elif case == "analytic only":
            spec = analytic_spec()
        else:
            spec = analytic_spec()
            spec.points.append(fast_spec(seeds=(1,)).points[0])
        del pools.calls[:]
        result = SweepRunner().run(spec)
        assert pools.sizes == [2]        # no second pool
        assert result.executed == len(spec.points) == len(pools.calls)


class TestSchedule:
    def test_cross_target_duplicate_runs_once_as_a_cache_hit(
            self, pools, tmp_path):
        first, second = fast_spec(seeds=(1,)), second_spec()
        a, b = SweepRunner(cache_dir=tmp_path / "one").run_many(
            [first, second])
        assert len(pools.calls) == 3
        assert (b.executed, b.cache_hits) == (1, 1)
        assert b.records[0].cached
        assert b.records[0].metrics == a.records[1].metrics
        # What a serial run, one spec after the other, records.
        serial = [SweepRunner(jobs=1, cache_dir=tmp_path / "serial")
                  .run(spec) for spec in (first, second)]
        assert [r.to_json_dict() for r in (a, b)] == \
            [r.to_json_dict() for r in serial]

    def test_duplicate_within_a_spec_runs_once_recorded_as_run(
            self, pools, tmp_path):
        """A serial run misses the cache for both copies at its scan
        and runs both, to the same metrics: the record says run."""
        spec = fast_spec(seeds=(1,))
        spec.points.append(spec.points[0])
        result = SweepRunner(cache_dir=tmp_path / "one").run(spec)
        assert len(pools.calls) == 2
        assert (result.executed, result.cache_hits) == (3, 0)
        serial = SweepRunner(jobs=1, cache_dir=tmp_path / "serial")
        assert result.to_json_dict() == serial.run(spec).to_json_dict()

    def test_duplicate_runs_again_without_a_cache(self, pools):
        a, b = SweepRunner().run_many([fast_spec(seeds=(1,)),
                                       second_spec()])
        assert len(pools.calls) == 4
        assert (b.executed, b.cache_hits) == (2, 0)
        assert not any(r.cached for r in b.records)

    def test_failed_points_duplicate_runs_on_its_own(self, pools,
                                                      tmp_path,
                                                      monkeypatch):
        """A serial run stores no entry for a failed point, so the
        later spec misses the cache and runs it itself: in a pool
        (the default) and in-process (``jobs=1``) alike."""
        first = grid_spec("first", FAST, {"n_clients": [99]},
                          seeds=(1,))
        second = grid_spec("second", FAST, {"n_clients": [99, 1]},
                           seeds=(1,))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for jobs in (None, 1):
            del pools.calls[:]
            a, b = SweepRunner(jobs=jobs, cache_dir=tmp_path / str(jobs)
                               ).run_many([first, second])
            assert len(pools.calls) == 3
            assert (a.failed, b.failed, b.executed, b.cache_hits) == \
                (1, 1, 1, 0)
        assert pools.sizes == [2]       # the default's pool, once

    def test_results_arrive_in_order_as_each_spec_resolves(self, pools):
        specs = [analytic_spec(), fast_spec(), SweepSpec("empty"),
                 second_spec()]
        results = SweepRunner().run_many(specs)
        first = next(results)
        # The analytic spec is returned before the others are drained.
        assert first.spec_name == "analytic"
        assert [r.spec_name for r in results] == \
            ["unit", "empty", "second"]

    def test_many_specs_equal_one_serial_run_per_spec(self, tmp_path):
        specs = [analytic_spec(), fast_spec(seeds=(1,)), second_spec()]
        many = SweepRunner(cache_dir=tmp_path / "many").run_many(specs)
        serial = [SweepRunner(jobs=1, cache_dir=tmp_path / "serial")
                  .run(spec) for spec in specs]
        assert [json.dumps(r.to_json_dict()) for r in many] == \
            [json.dumps(r.to_json_dict()) for r in serial]
