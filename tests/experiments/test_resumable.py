"""Incremental, fault-isolated, resumable sweep execution.

Covers the runner end to end: per-point checkpointing (kill a runner
mid-grid with SIGKILL, resume from its cache, rows bit-identical to an
uninterrupted run), a point that runs once and whose failure — a
raising point, or a worker death that breaks the pool — is its record
instead of aborting the sweep, graceful SIGINT/SIGTERM interruption
with a partial artifact, the cache's corruption quarantine and unique
staging names, the v2 artifact schema, and the engine-version guard.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.batch import ENGINE_VERSION, RESULT_VERSION, \
    StaleArtifactError, SweepCache, SweepInterrupted, SweepResult, \
    SweepRunner, SweepSpec, point_signature
from repro.experiments.progress import format_status, sweep_status
from repro.sim.units import MS

from tests.helpers import aggregate, grid_spec

FAST = dict(duration_ns=400 * MS, warmup_ns=200 * MS, stagger_ns=0)


def subprocess_env() -> dict:
    """This process's environment with the repo's ``src`` and root on
    ``PYTHONPATH`` (``repro`` and ``tests.helpers`` importable)."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def _proc_stat(pid) -> list:
    """``/proc/<pid>/stat`` fields after the command name, or []."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return text.rpartition(")")[2].split()


def children_of(pid: int) -> list:
    return [int(entry.name) for entry in Path("/proc").iterdir()
            if entry.name.isdigit()
            and _proc_stat(entry.name)[1:2] == [str(pid)]]


def is_running(pid: int) -> bool:
    """Alive and not a zombie awaiting its reaper."""
    return _proc_stat(pid)[:1] not in ([], ["Z"])


def scenario_spec(seeds=(1, 2, 3)) -> SweepSpec:
    return grid_spec("resume", FAST, {"n_clients": [1, 2]},
                     seeds=seeds)


def analytic_spec(n=3, **kwargs) -> SweepSpec:
    spec = SweepSpec("analytic")
    for i in range(n):
        spec.add_analytic((i,), "tests.helpers:constant_metrics",
                          value=float(i), **kwargs)
    return spec


def poisoned_spec() -> SweepSpec:
    """Three points; the middle one always raises."""
    spec = SweepSpec("poisoned")
    spec.add_analytic((0,), "tests.helpers:constant_metrics", value=0.0)
    spec.add_analytic((1,), "tests.helpers:raising_metrics_fn",
                      message="poisoned cell")
    spec.add_analytic((2,), "tests.helpers:constant_metrics", value=2.0)
    return spec


# ----------------------------------------------------------------------
# Fault isolation: a raising point must not abort the sweep
# ----------------------------------------------------------------------
class TestPoisonedPoint:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_other_points_complete_and_failure_is_recorded(
            self, jobs, tmp_path):
        runner = SweepRunner(jobs=jobs, cache_dir=tmp_path)
        result = runner.run(poisoned_spec())
        assert result.failed == 1
        assert result.executed == 2
        assert len(result.records) == 3

        ok = [r for r in result.records if r.ok]
        assert [r.metrics["value"] for r in ok] == [0.0, 2.0]

        [failure] = result.failures()
        assert failure.key == (1,)
        assert failure.metrics is None
        assert failure.error["type"] == "RuntimeError"
        assert failure.error["message"] == "poisoned cell"
        assert "RuntimeError" in failure.error["traceback"]

    def test_failure_leaves_status_breadcrumb_not_a_hit(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        spec = poisoned_spec()
        runner.run(spec)
        sig = point_signature(spec.points[1])
        cache = SweepCache(tmp_path)
        assert cache.probe(sig) == "failed"
        assert cache.load(sig) is None           # still re-executed
        breadcrumb = tmp_path / f"{sig}.error.json"
        assert json.loads(breadcrumb.read_text())["type"] == \
            "RuntimeError"
        # A rerun retries the poisoned point (and fails again) while
        # the good points come from cache.
        rerun = SweepRunner(cache_dir=tmp_path).run(spec)
        assert rerun.cache_hits == 2 and rerun.failed == 1

    def test_success_clears_failure_breadcrumb(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store_failure("sig", {"type": "X"})
        assert cache.probe("sig") == "failed"
        cache.store("sig", {"v": 1})
        assert cache.probe("sig") == "complete"
        assert not (tmp_path / "sig.error.json").exists()

    def test_metrics_for_skips_failures(self):
        result = SweepRunner().run(poisoned_spec())
        assert result.metrics_for((1,)) == []
        with pytest.raises(KeyError):
            result.cell((1,), "value")

    def test_artifact_roundtrips_failures(self):
        result = SweepRunner().run(poisoned_spec())
        loaded = SweepResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict())))
        assert loaded.failed == 1
        assert loaded.failures()[0].error["message"] == "poisoned cell"
        assert loaded.failures()[0].metrics is None


# ----------------------------------------------------------------------
# Worker death: a point runs once, retried nowhere
# ----------------------------------------------------------------------
class TestRetries:
    def test_worker_death_fails_point_without_aborting(self, tmp_path):
        # The dying point delays so the healthy points finish first;
        # its death breaks the pool, which must be contained to it.
        spec = analytic_spec(n=4)
        spec.add_analytic(("die",), "tests.helpers:dying_worker_fn",
                          delay_s=0.5)
        runner = SweepRunner(jobs=2, cache_dir=tmp_path)
        result = runner.run(spec)
        assert result.executed == 4
        assert result.failed == 1
        [failure] = result.failures()
        assert failure.key == ("die",)
        assert "Broken" in failure.error["type"]

    def test_follower_handed_to_the_dead_pool_is_recorded(self, tmp_path):
        """A later spec's copy of the dying point follows it; when the
        death breaks the pool the copy is submitted to a pool that
        takes no work, and fails there — recorded, not raised."""
        first = analytic_spec(n=2)
        first.add_analytic(("die",), "tests.helpers:dying_worker_fn",
                           delay_s=0.3)
        second = analytic_spec(n=2)
        second.points.append(first.points[-1])
        a, b = SweepRunner(jobs=2, cache_dir=tmp_path).run_many(
            [first, second])
        assert (a.executed, a.cache_hits, a.failed) == (2, 0, 1)
        assert (b.executed, b.cache_hits, b.failed) == (0, 2, 1)
        for result in (a, b):
            [failure] = result.failures()
            assert failure.key == ("die",)
            assert failure.error["type"].startswith("Broken")
        assert SweepCache(tmp_path).probe(
            point_signature(first.points[-1])) == "failed"


# ----------------------------------------------------------------------
# Incremental checkpointing + kill/resume
# ----------------------------------------------------------------------
class TestIncrementalCheckpointing:
    def test_serial_run_checkpoints_each_point_as_it_completes(
            self, tmp_path):
        spec = scenario_spec(seeds=(1,))
        seen = []

        class SpyCache(SweepCache):
            def store(self, signature, metrics):
                super().store(signature, metrics)
                seen.append(len(list(
                    Path(self.directory).glob("*.json"))))

        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        runner.cache = SpyCache(tmp_path)
        runner.run(spec)
        # After each of the two stores the directory held exactly that
        # many entries: point N was on disk before point N+1 ran.
        assert seen == [1, 2]

    def test_sigkill_mid_grid_resumes_from_cache_bit_identical(
            self, tmp_path):
        """The acceptance-criteria test: SIGKILL a runner mid-flight,
        rerun with the same cache dir, assert only unfinished cells
        re-execute and the final rows match an uninterrupted run."""
        cache_dir = tmp_path / "cache"
        script = textwrap.dedent(f"""
            from repro.experiments.batch import SweepRunner
            from repro.sim.units import MS
            from tests.helpers import grid_spec
            spec = grid_spec(
                "resume",
                dict(duration_ns=400 * MS, warmup_ns=200 * MS,
                     stagger_ns=0),
                {{"n_clients": [1, 2]}}, seeds=(1, 2, 3))
            SweepRunner(cache_dir={str(cache_dir)!r}).run(spec)
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=subprocess_env())
        # Wait for the first checkpoint to land, then kill -9.
        deadline = time.time() + 60
        while time.time() < deadline:
            if list(cache_dir.glob("*.json")):
                break
            if proc.poll() is not None:  # pragma: no cover - too fast
                break
            time.sleep(0.005)
        proc.kill()
        proc.wait(timeout=30)

        checkpointed = len(list(cache_dir.glob("*.json")))
        assert checkpointed >= 1, "no checkpoint before the kill"

        spec = scenario_spec(seeds=(1, 2, 3))
        resumed = SweepRunner(cache_dir=cache_dir).run(spec)
        assert resumed.cache_hits >= 1
        assert resumed.executed == len(spec.points) - resumed.cache_hits
        assert resumed.failed == 0

        fresh = SweepRunner().run(spec)
        assert [r.metrics for r in resumed.records] == \
            [r.metrics for r in fresh.records]
        assert aggregate(resumed, "aggregate_goodput_mbps") == \
            aggregate(fresh, "aggregate_goodput_mbps")


    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process parents from /proc")
    def test_sigkilled_runner_leaves_no_pool_workers(self):
        """A runner killed outright cannot shut its pool down; its
        workers exit by themselves instead of blocking forever."""
        script = textwrap.dedent("""
            from repro.experiments.batch import SweepRunner, SweepSpec
            spec = SweepSpec("slow")
            for i in range(8):
                spec.add_analytic((i,), "tests.helpers:slow_metrics_fn",
                                  delay_s=0.5, value=float(i))
            SweepRunner(jobs=2).run(spec)
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=subprocess_env())
        workers = []
        deadline = time.time() + 60
        while len(workers) < 2 and time.time() < deadline:
            workers = children_of(proc.pid)
            time.sleep(0.05)
        proc.kill()
        proc.wait(timeout=30)
        assert len(workers) == 2, "the runner started no pool"
        deadline = time.time() + 10
        while any(map(is_running, workers)) and time.time() < deadline:
            time.sleep(0.1)
        leftover = [pid for pid in workers if is_running(pid)]
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        assert leftover == []


# ----------------------------------------------------------------------
# Graceful SIGINT/SIGTERM
# ----------------------------------------------------------------------
class TestGracefulInterrupt:
    def _interrupt_after(self, n_executed, signum):
        fired = []

        def progress(snapshot):
            if snapshot.executed >= n_executed and not fired:
                fired.append(signum)
                os.kill(os.getpid(), signum)

        return progress

    def test_serial_sigint_flushes_completed_work(self, tmp_path):
        spec = scenario_spec(seeds=(1, 2))
        runner = SweepRunner(
            jobs=1, cache_dir=tmp_path,
            progress=self._interrupt_after(2, signal.SIGINT))
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(spec)
        partial = excinfo.value.result
        assert excinfo.value.signum == signal.SIGINT
        assert partial.interrupted is True
        assert partial.executed == 2
        assert len(partial.records) == 2        # unstarted: no record
        assert len(list(tmp_path.glob("*.json"))) == 2

        # Resume: the flushed points come from cache, the rest run.
        resumed = SweepRunner(cache_dir=tmp_path).run(spec)
        assert resumed.cache_hits == 2
        assert resumed.executed == len(spec.points) - 2
        fresh = SweepRunner().run(spec)
        assert [r.metrics for r in resumed.records] == \
            [r.metrics for r in fresh.records]

    def test_sigint_during_an_in_process_point_records_it(
            self, tmp_path):
        """The point that was running when SIGINT arrived finished: it
        is noted (recorded and cached) before the stop is honoured, and
        the next point never starts."""
        spec = analytic_spec(n=2)
        spec.add_analytic(("interrupt",),
                          "tests.helpers:self_interrupting_metrics_fn",
                          value=9.0)
        spec.points.append(spec.points.pop(0))
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(spec)
        assert excinfo.value.signum == signal.SIGINT
        partial = excinfo.value.result
        assert [r.key for r in partial.records] == [(1,), ("interrupt",)]
        assert partial.records[-1].metrics == {"value": 9.0}
        cache = SweepCache(tmp_path)
        assert [cache.probe(point_signature(p)) for p in spec.points] \
            == ["complete", "complete", "missing"]

    def test_parallel_sigterm_interrupts_and_reports_signal(self):
        spec = SweepSpec("slow")
        for i in range(8):
            spec.add_analytic((i,), "tests.helpers:slow_metrics_fn",
                              delay_s=0.1, value=float(i))
        runner = SweepRunner(
            jobs=2, progress=self._interrupt_after(1, signal.SIGTERM))
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(spec)
        assert excinfo.value.signum == signal.SIGTERM
        partial = excinfo.value.result
        assert partial.interrupted is True
        assert 1 <= partial.executed < len(spec.points)

    def test_partial_artifact_is_marked_interrupted(self, tmp_path):
        spec = scenario_spec(seeds=(1, 2))
        runner = SweepRunner(
            jobs=1, cache_dir=tmp_path,
            progress=self._interrupt_after(1, signal.SIGINT))
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(spec)
        payload = excinfo.value.result.to_json_dict()
        assert payload["interrupted"] is True
        assert payload["version"] == RESULT_VERSION
        loaded = SweepResult.from_json_dict(payload)
        assert loaded.interrupted is True

    def test_interrupt_mid_schedule_returns_every_started_spec(self):
        specs = []
        for name in ("a", "b", "c"):
            spec = SweepSpec(name)
            for i in range(2):
                spec.add_analytic((i,), "tests.helpers:slow_metrics_fn",
                                  delay_s=0.2, value=float(i), name=name)
            specs.append(spec)
        runner = SweepRunner(
            jobs=2, progress=self._interrupt_after(1, signal.SIGINT))
        with pytest.raises(SweepInterrupted) as excinfo:
            list(runner.run_many(specs))
        partial = excinfo.value.results
        # One pool took every spec's points: all three had started.
        assert sorted(partial) == [0, 1, 2]
        assert [r.spec_name for r in partial.values()] == ["a", "b", "c"]
        assert all(r.interrupted for r in partial.values())
        assert excinfo.value.result is partial[0]
        assert sum(r.executed for r in partial.values()) >= 1

    def test_cli_writes_a_partial_entry_per_started_target(
            self, monkeypatch, tmp_path, capsys):
        from repro.experiments import runner as experiments_runner

        def stub(name, fn, **kwargs):
            spec = SweepSpec(name)
            spec.add_analytic((0,), fn, **kwargs)
            return SimpleNamespace(
                sweep_spec=lambda quick=False, seeds=None: spec,
                rows_from_sweep=lambda result: [],
                format_rows=lambda rows: name)

        monkeypatch.setattr(experiments_runner, "EXPERIMENTS", {
            "a": stub("a", "tests.helpers:constant_metrics", value=1.0),
            "b": stub("b", "tests.helpers:interrupting_metrics_fn"),
            "c": stub("c", "tests.helpers:slow_metrics_fn",
                      delay_s=1.0)})
        out = tmp_path / "partial.json"
        code = experiments_runner.main(
            ["a", "b", "c", "--jobs", "2", "--no-cache",
             "--out", str(out)])
        assert code == 128 + signal.SIGINT
        artifacts = json.loads(out.read_text())
        assert list(artifacts) == ["a", "b", "c"]
        assert artifacts["c"]["interrupted"] is True
        assert "[c: interrupted" in capsys.readouterr().err

    def test_signal_handlers_are_restored(self):
        before = (signal.getsignal(signal.SIGINT),
                  signal.getsignal(signal.SIGTERM))
        SweepRunner().run(analytic_spec(n=1))
        after = (signal.getsignal(signal.SIGINT),
                 signal.getsignal(signal.SIGTERM))
        assert before == after


# ----------------------------------------------------------------------
# Cache hardening (staging names, quarantine, probe)
# ----------------------------------------------------------------------
class TestCacheHardening:
    def test_staging_names_are_unique_per_call_and_process(
            self, tmp_path, monkeypatch):
        staged = []
        replace = os.replace

        def spy(source, target):
            staged.append(Path(source))
            replace(source, target)

        monkeypatch.setattr(os, "replace", spy)
        SweepCache(tmp_path).store("sig", {"v": 1})
        SweepCache(tmp_path).store("sig", {"v": 2})
        a, b = staged
        assert a != b and a.parent == b.parent == tmp_path
        assert str(os.getpid()) in a.name

    def test_store_leaves_no_staging_litter(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("sig", {"v": 1})
        cache.store("sig", {"v": 2})
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load("sig") == {"v": 2}

    def test_concurrent_stores_same_signature_end_consistent(
            self, tmp_path):
        a, b = SweepCache(tmp_path), SweepCache(tmp_path)
        a.store("sig", {"v": "a"})
        b.store("sig", {"v": "b"})
        assert SweepCache(tmp_path).load("sig") in \
            ({"v": "a"}, {"v": "b"})
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("target", ["json.dump", "os.replace"])
    def test_failed_write_removes_its_staging_file(
            self, tmp_path, monkeypatch, target):
        def no_space(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        module, name = target.split(".")
        monkeypatch.setattr({"json": json, "os": os}[module], name,
                            no_space)
        cache = SweepCache(tmp_path)
        with pytest.raises(OSError, match="No space"):
            cache.store("sig", {"v": 1})
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.probe("sig") == "missing"

    def test_truncated_json_is_quarantined_and_counted(self, tmp_path):
        """The quarantined file is the count of a corrupt entry."""
        cache = SweepCache(tmp_path)
        cache.store("sig", {"v": 1})
        (tmp_path / "sig.json").write_text('{"v": 1')   # truncated
        assert cache.load("sig") is None
        assert not (tmp_path / "sig.json").exists()
        assert [path.name for path in tmp_path.iterdir()] \
            == ["sig.json.corrupt"]
        # Quarantined means the next run stores fresh and hits again.
        cache.store("sig", {"v": 2})
        assert cache.load("sig") == {"v": 2}

    def test_non_dict_payload_is_rejected_and_quarantined(
            self, tmp_path):
        cache = SweepCache(tmp_path)
        (tmp_path / "sig.json").write_text("[1, 2, 3]")
        assert cache.load("sig") is None
        assert (tmp_path / "sig.json.corrupt").exists()

    def test_probe_reports_all_states(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.probe("nothing") == "missing"
        cache.store("good", {"v": 1})
        assert cache.probe("good") == "complete"
        cache.store_failure("bad", {"type": "RuntimeError"})
        assert cache.probe("bad") == "failed"
        (tmp_path / "mangled.json").write_text("{nope")
        (tmp_path / "listy.json").write_text("[]")
        files = sorted(tmp_path.iterdir())
        assert cache.probe("mangled") == "corrupt"
        assert cache.probe("listy") == "corrupt"
        # probe never mutates: no file moved, none quarantined.
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("entry, breadcrumb, verdict", [
        ('{"v": 1}', False, "complete"),
        (None, False, "missing"),
        (None, True, "failed"),
        ('{"v": 1', False, "corrupt"),
        ("[1, 2]", False, "corrupt"),
        ('{"v": 1}', True, "complete")],
        ids=["complete", "missing", "failed-breadcrumb", "truncated",
             "non-dict", "entry-and-stale-breadcrumb"])
    def test_one_read_serves_status_and_load(self, tmp_path, entry,
                                             breadcrumb, verdict):
        """``probe`` gives the verdict ``--status`` prints and moves
        nothing; ``load`` returns metrics only for ``complete`` and
        quarantines exactly the ``corrupt`` entries."""
        spec = SweepSpec("one")
        spec.add_analytic(("cell",), "tests.helpers:constant_metrics",
                          value=1.0)
        sig = point_signature(spec.points[0])
        if entry is not None:
            (tmp_path / f"{sig}.json").write_text(entry)
        if breadcrumb:
            (tmp_path / f"{sig}.error.json").write_text(
                '{"type": "RuntimeError"}')
        files = sorted(tmp_path.iterdir())
        cache = SweepCache(tmp_path)

        assert cache.probe(sig) == verdict
        table = format_status("one", sweep_status(spec, cache))
        assert table.splitlines()[3].split()[:2] == ["cell", verdict]
        assert sorted(tmp_path.iterdir()) == files

        metrics = cache.load(sig)
        assert metrics == ({"v": 1} if verdict == "complete" else None)
        assert (tmp_path / f"{sig}.json.corrupt").exists() \
            == (verdict == "corrupt")


# ----------------------------------------------------------------------
# Artifact schema v2 + engine guard
# ----------------------------------------------------------------------
class TestArtifactVersioning:
    def test_v2_schema_fields(self):
        payload = SweepRunner().run(analytic_spec(n=1)).to_json_dict()
        assert payload["version"] == RESULT_VERSION
        assert payload["engine"] == ENGINE_VERSION
        assert payload["failed"] == 0
        assert payload["interrupted"] is False
        assert payload["records"][0]["error"] is None

    def test_v1_artifact_rejected(self):
        """No build since the v2 schema writes version 1 (and any real
        v1 file predates the current engine): refused by version, with
        the version found in the message."""
        v1 = {
            "format": "repro-sweep-result", "version": 1,
            "engine": ENGINE_VERSION, "spec": "old",
            "executed": 1, "cache_hits": 0,
            "records": [{"key": [1], "seed": 1, "signature": "s",
                         "cached": False, "metrics": {"v": 1.0}}],
        }
        with pytest.raises(ValueError, match="version 1 "):
            SweepResult.from_json_dict(v1)
        del v1["version"]
        with pytest.raises(ValueError, match="version None"):
            SweepResult.from_json_dict(v1)

    def test_stale_engine_raises(self):
        stale = SweepRunner().run(analytic_spec(n=1)).to_json_dict()
        stale["engine"] = ENGINE_VERSION - 1
        with pytest.raises(StaleArtifactError,
                           match="engine version"):
            SweepResult.from_json_dict(stale)
        with pytest.raises(StaleArtifactError):
            SweepResult.from_json_dict(dict(stale, engine=None))

    def test_unknown_version_rejected(self):
        payload = SweepRunner().run(analytic_spec(n=1)).to_json_dict()
        payload["version"] = RESULT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            SweepResult.from_json_dict(payload)
