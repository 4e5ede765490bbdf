"""Sweep-engine unit tests: grids, signatures, parallel equivalence,
caching, persistence, and analytic points."""

import json

import pytest

from repro.experiments.batch import SweepResult, SweepRunner, \
    SweepSpec, execute_point, point_signature
from repro.sim.units import MS
from repro.workloads.scenarios import ScenarioConfig

#: Short but non-trivial windows so four runs stay around a second.
FAST = dict(duration_ns=400 * MS, warmup_ns=200 * MS, stagger_ns=0)


def fast_spec(seeds=(1, 2)) -> SweepSpec:
    return SweepSpec.grid("unit", FAST, {"n_clients": [1, 2]},
                          seeds=seeds)


class TestSpec:
    def test_grid_crosses_axes_and_seeds(self):
        spec = SweepSpec.grid(
            "g", FAST, {"n_clients": [1, 2], "data_rate_mbps": [54.0]},
            seeds=(1, 2, 3))
        assert len(spec) == 6
        assert spec.keys() == [(1, 54.0), (2, 54.0)]
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
        spec = SweepSpec.grid(
            "x", dict(FAST, n_clients=2), {"n_clients": [1, 2]},
            seeds=(1,))
        assert [p.config.n_clients for p in spec.points] == [1, 2]
        assert spec.keys() == [(1,), (2,)]

    def test_grid_seed_overrides_base_seed(self):
        spec = SweepSpec.grid(
            "x", dict(FAST, seed=99), {"n_clients": [1]}, seeds=(1, 2))
        assert [p.config.seed for p in spec.points] == [1, 2]


class TestSignatures:
    def test_stable_for_equal_configs(self):
        a = SweepSpec.grid("s", FAST, {"n_clients": [1]}, seeds=(1,))
        b = SweepSpec.grid("s", FAST, {"n_clients": [1]}, seeds=(1,))
        assert point_signature(a.points[0]) == \
            point_signature(b.points[0])

    def test_sensitive_to_any_config_field(self):
        base = SweepSpec.grid("s", FAST, {"n_clients": [1]}, seeds=(1,))
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
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        assert [r.key for r in serial.records] == \
            [r.key for r in parallel.records]
        assert [r.metrics for r in serial.records] == \
            [r.metrics for r in parallel.records]
        assert serial.aggregate("aggregate_goodput_mbps") == \
            parallel.aggregate("aggregate_goodput_mbps")
        assert parallel.executed == len(spec)

    def test_jobs_zero_means_cpu_count(self):
        assert SweepRunner(jobs=0).jobs >= 1

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
        assert runner.cache.corrupt == 2
        # Quarantined, re-stored: the third run hits cleanly again.
        assert len(list(tmp_path.glob("*.json.corrupt"))) == 2
        third = SweepRunner(cache_dir=tmp_path).run(spec)
        assert third.cache_hits == 2 and third.executed == 0

    def test_parallel_run_populates_cache(self, tmp_path):
        spec = fast_spec(seeds=(1,))
        SweepRunner(jobs=2, cache_dir=tmp_path).run(spec)
        serial = SweepRunner(cache_dir=tmp_path).run(spec)
        assert serial.executed == 0 and serial.cache_hits == 2


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        result = SweepRunner().run(fast_spec(seeds=(1,)))
        path = tmp_path / "sweep.json"
        result.save(path)
        loaded = SweepResult.load(path)
        assert loaded.spec_name == result.spec_name
        assert loaded.keys() == result.keys()
        assert loaded.aggregate("aggregate_goodput_mbps") == \
            result.aggregate("aggregate_goodput_mbps")
        assert all(isinstance(r.key, tuple) for r in loaded.records)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="sweep-result"):
            SweepResult.load(path)
