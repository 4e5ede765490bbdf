"""Sweep observability: progress snapshots/ETA, the throttled
reporter, cache status audits, and the CLI surfaces (--progress,
--status, failure exit codes)."""

import io
import types

import pytest

from repro.cli import main as cli_main
from repro.experiments import runner as experiments_runner
from repro.experiments.batch import SweepCache, SweepRunner, SweepSpec
from repro.experiments.progress import ProgressReporter, \
    SweepProgress, cell_state, format_status, render_progress, \
    sweep_status


def snapshot(**kwargs):
    defaults = dict(spec_name="s", total=10)
    defaults.update(kwargs)
    return SweepProgress(**defaults)


class TestSweepProgress:
    def test_counts_and_remaining(self):
        p = snapshot(executed=3, cached=2, failed=1)
        assert p.completed == 6
        assert p.remaining == 4
        assert not p.finished

    def test_finished_when_everything_resolved(self):
        p = snapshot(total=4, executed=2, cached=1, failed=1)
        assert p.finished and p.remaining == 0

    def test_rate_counts_executed_points_only(self):
        p = snapshot(executed=4, cached=4, elapsed_s=2.0)
        assert p.rate_per_s == pytest.approx(2.0)

    def test_eta_scales_with_remaining(self):
        p = snapshot(executed=2, elapsed_s=4.0)     # 0.5 pts/s, 8 left
        assert p.eta_s == pytest.approx(16.0)

    def test_rate_and_eta_undefined_before_first_execution(self):
        p = snapshot(cached=3, elapsed_s=1.0)
        assert p.rate_per_s is None and p.eta_s is None

    def test_render_mentions_failures_and_eta(self):
        line = render_progress(snapshot(
            executed=2, failed=1, elapsed_s=1.0))
        assert "1 FAILED" in line and "ETA" in line
        done = render_progress(snapshot(
            total=2, executed=2, elapsed_s=1.0))
        assert "done in" in done


class TestProgressReporter:
    def test_unthrottled_prints_every_snapshot(self):
        stream = io.StringIO()
        report = ProgressReporter(stream, min_interval_s=0.0)
        for executed in range(3):
            report(snapshot(executed=executed))
        assert len(stream.getvalue().splitlines()) == 3

    def test_throttled_always_prints_first_final_and_failures(self):
        stream = io.StringIO()
        report = ProgressReporter(stream, min_interval_s=3600.0)
        report(snapshot(executed=0))                # first: prints
        report(snapshot(executed=1))                # throttled
        report(snapshot(executed=1, failed=1))      # new failure
        report(snapshot(executed=2, failed=1))      # throttled
        report(snapshot(total=3, executed=2, failed=1))  # finished
        assert report.lines_emitted == 3

    def test_runner_emits_progress_through_reporter(self, tmp_path):
        stream = io.StringIO()
        spec = SweepSpec("p")
        for i in range(3):
            spec.add_analytic((i,), "tests.helpers:constant_metrics",
                              value=float(i))
        runner = SweepRunner(
            cache_dir=tmp_path,
            progress=ProgressReporter(stream, min_interval_s=0.0))
        runner.run(spec)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4                  # initial + 3 points
        assert "3/3 points" in lines[-1]
        assert "done in" in lines[-1]


class TestSweepStatus:
    def spec(self):
        spec = SweepSpec("audit")
        for i in range(3):
            spec.add_analytic((i,), "tests.helpers:constant_metrics",
                              value=float(i))
        return spec

    def test_reports_complete_missing_failed(self, tmp_path):
        from repro.experiments.batch import point_signature

        spec = self.spec()
        cache = SweepCache(tmp_path)
        cache.store(point_signature(spec.points[0]), {"v": 1})
        cache.store_failure(point_signature(spec.points[1]),
                            {"type": "RuntimeError"})
        tallies = sweep_status(spec, cache)
        assert list(tallies) == [(0,), (1,), (2,)]
        assert [cell_state(t) for t in tallies.values()] == \
            ["complete", "failed", "missing"]
        assert tallies[(1,)] == {"complete": 0, "failed": 1,
                                 "missing": 0, "corrupt": 0}
        text = format_status("audit", tallies)
        assert "INCOMPLETE" in text
        assert "1/3 points complete, 1 missing, 1 failed, 0 corrupt" \
            in text

    def test_complete_after_running_the_sweep(self, tmp_path):
        spec = self.spec()
        SweepRunner(cache_dir=tmp_path).run(spec)
        tallies = sweep_status(spec, SweepCache(tmp_path))
        assert all(cell_state(t) == "complete"
                   for t in tallies.values())
        assert format_status("audit", tallies).endswith(
            "COMPLETE: 3/3 points complete, 0 missing, 0 failed, "
            "0 corrupt")

    def test_multi_seed_cells_aggregate_per_key(self, tmp_path):
        from repro.experiments.batch import point_signature

        spec = SweepSpec("multi")
        for seed in (1, 2):
            spec.add_analytic(("cell",),
                              "tests.helpers:constant_metrics",
                              seed_tag=seed)
        cache = SweepCache(tmp_path)
        cache.store(point_signature(spec.points[0]), {"v": 1})
        [tally] = sweep_status(spec, cache).values()
        assert sum(tally.values()) == 2
        assert tally["complete"] == 1
        assert cell_state(tally) == "missing"   # partially-filled cell

    def test_cell_state_severity_order(self):
        tally = {"complete": 1, "failed": 1, "missing": 1, "corrupt": 1}
        states = []
        for verdict in ("failed", "corrupt", "missing"):
            states.append(cell_state(tally))
            tally[verdict] = 0
        assert states == ["failed", "corrupt", "missing"]
        assert cell_state(tally) == "complete"


def _stub_experiment(spec):
    module = types.ModuleType("stub_experiment")
    module.sweep_spec = lambda quick=False, seeds=None: spec
    module.rows_from_sweep = lambda result: [
        dict(r.metrics) for r in result.records if r.ok]
    module.format_rows = lambda rows: f"{len(rows)} rows"
    return module


class TestCliStatusAndExitCodes:
    def register(self, monkeypatch, spec):
        monkeypatch.setitem(experiments_runner.EXPERIMENTS,
                            "stub", _stub_experiment(spec))

    def analytic_spec(self, raising=False):
        spec = SweepSpec("stub")
        spec.add_analytic((0,), "tests.helpers:constant_metrics",
                          value=1.0)
        if raising:
            spec.add_analytic((1,), "tests.helpers:raising_metrics_fn")
        return spec

    def test_status_incomplete_then_complete(self, monkeypatch,
                                             tmp_path, capsys):
        self.register(monkeypatch, self.analytic_spec())
        cache_dir = str(tmp_path / "cache")
        status_args = ["sweep", "stub", "--status",
                       "--cache-dir", cache_dir]
        assert cli_main(status_args) == 3
        assert "INCOMPLETE" in capsys.readouterr().out

        assert cli_main(["sweep", "stub",
                         "--cache-dir", cache_dir]) == 0
        assert cli_main(status_args) == 0
        assert "COMPLETE" in capsys.readouterr().out

    def test_status_refuses_no_cache(self, monkeypatch, tmp_path,
                                     capsys):
        self.register(monkeypatch, self.analytic_spec())
        code = cli_main(["sweep", "stub", "--status", "--no-cache"])
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_failed_point_exits_nonzero_and_reports(
            self, monkeypatch, tmp_path, capsys):
        self.register(monkeypatch, self.analytic_spec(raising=True))
        code = cli_main(["sweep", "stub",
                         "--cache-dir", str(tmp_path / "c")])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED cell" in captured.err
        assert "RuntimeError" in captured.err
        assert "1 failed" in captured.out

    def test_runner_main_failed_point_exits_nonzero(
            self, monkeypatch, tmp_path, capsys):
        self.register(monkeypatch, self.analytic_spec(raising=True))
        code = experiments_runner.main(
            ["stub", "--cache-dir", str(tmp_path / "c")])
        assert code == 1
        assert "FAILED cell" in capsys.readouterr().err

    def test_progress_flag_prints_lines(self, monkeypatch, tmp_path,
                                        capsys):
        self.register(monkeypatch, self.analytic_spec())
        code = cli_main(["sweep", "stub", "--progress", "--no-cache"])
        assert code == 0
        assert "[sweep stub]" in capsys.readouterr().err
