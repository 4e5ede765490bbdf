"""Telemetry integration oracles: the observability layer must watch
without touching.

The headline determinism oracle: a telemetry-enabled run's
``record()`` equals the telemetry-off run's — for static, churn and
sharded workloads alike.  What differs lives in the execution blocks
``record()`` leaves out: ``kernel_stats`` (the sampler's own events run
through the shared kernel) and the ``"telemetry"`` block itself, whose
``"spans"`` sub-block is the one nondeterministic (host wall time)
part.

The shard oracle: sampler JSONL output and the telemetry metrics block
are identical across unsharded / serial-shard / pool-shard execution —
the merge reassembles the unsharded stream line for line ("unsharded"
is the whole-simulator oracle, ``run_whole``: every channel in one
simulator, whose artifact the one writer writes from ``collect``'s
result).
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.batch import SweepPoint, execute_point, \
    point_signature
from repro.obs import TelemetryConfig, format_report, load_telemetry, \
    TelemetryArtifactError, write_artifacts
from repro.sim.units import MS
from repro.workloads.scenarios import build_simulation, collect, \
    run_scenario
from repro.traffic.arrivals import ArrivalSpec, SizeSpec

from tests.workloads.test_multi_cell import base_config
from tests.workloads.test_sharding import run_whole

INTERVAL = 50 * MS

CHURN = dict(traffic="dynamic",
             arrivals=ArrivalSpec(
                 kind="poisson", rate_per_s=30.0,
                 size=SizeSpec(kind="lognormal",
                               median_bytes=40_000, sigma=1.0)))


def telemetry_config(**overrides) -> TelemetryConfig:
    return TelemetryConfig(sample_interval_ns=INTERVAL, **overrides)


def deterministic_block(block):
    """A telemetry block minus its host-wall-time spans."""
    block = dict(block)
    block.pop("spans")
    return block


def deterministic_lines(path):
    """A JSONL artifact's lines minus its host-wall-time spans line."""
    return [line for line in path.read_text().splitlines()
            if json.loads(line)["type"] != "spans"]


def deterministic_trace(path):
    """A Chrome trace minus its host-wall-time ``kernel`` events."""
    document = json.loads(path.read_text())
    document["traceEvents"] = [event for event in document["traceEvents"]
                               if event["cat"] != "kernel"]
    return document


class TestDeterminism:
    def test_static_metrics_bit_identical(self):
        cfg = base_config(n_clients=2, seed=3)
        off = run_scenario(cfg)
        on = run_scenario(cfg, telemetry=telemetry_config())
        assert off.record() == on.record()
        assert off.telemetry is None
        assert "telemetry" not in off.metrics_dict()
        assert on.telemetry is not None

    def test_churn_metrics_bit_identical(self):
        cfg = base_config(n_clients=1, seed=7, **CHURN)
        off = run_scenario(cfg)
        on = run_scenario(cfg, telemetry=telemetry_config())
        assert off.record() == on.record()

    def test_sharded_metrics_bit_identical(self):
        cfg = base_config(cells=4, channels=2, n_clients=1, seed=3)
        off = run_scenario(cfg, shard_jobs=1)
        on = run_scenario(cfg, shard_jobs=1,
                          telemetry=telemetry_config())
        assert off.record() == on.record()

    def test_telemetry_runs_are_repeatable(self):
        cfg = base_config(n_clients=1, seed=5)
        first = run_scenario(cfg, telemetry=telemetry_config())
        second = run_scenario(cfg, telemetry=telemetry_config())
        assert deterministic_block(first.telemetry) == \
            deterministic_block(second.telemetry)


class TestShardEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("telemetry-shards")
        cfg = base_config(cells=4, channels=2, n_clients=1, seed=3)
        paths = {mode: tmp / f"{mode}.jsonl"
                 for mode in ("unsharded", "serial", "pool")}
        whole = run_whole(cfg, telemetry_config(
            telemetry_path=str(paths["unsharded"])))
        # The seam writes nothing; the oracle's file comes from the
        # one writer, as run_scenario's do.
        write_artifacts(whole)
        results = {
            "unsharded": whole,
            "serial": run_scenario(cfg, shard_jobs=1,
                                   telemetry=telemetry_config(
                telemetry_path=str(paths["serial"]))),
            "pool": run_scenario(cfg, shard_jobs=2,
                                 telemetry=telemetry_config(
                telemetry_path=str(paths["pool"]))),
        }
        return results, paths

    def test_jsonl_streams_line_identical(self, runs):
        _, paths = runs
        unsharded = deterministic_lines(paths["unsharded"])
        assert unsharded == deterministic_lines(paths["serial"])
        assert unsharded == deterministic_lines(paths["pool"])

    def test_telemetry_blocks_identical(self, runs):
        results, _ = runs
        blocks = {mode: deterministic_block(result.telemetry)
                  for mode, result in results.items()}
        assert blocks["unsharded"] == blocks["serial"]
        assert blocks["unsharded"] == blocks["pool"]

    def test_shard_blocks_expose_per_shard_telemetry(self, runs):
        results, _ = runs
        blocks = results["serial"].metrics_dict()["shards"]
        assert [b["channel"] for b in blocks] == [0, 1]
        for block in blocks:
            assert block["telemetry"]["enabled"] is True
            assert block["telemetry"]["samples"] > 0
            assert block["kernel_stats"]["events_executed"] > 0
        # Per-shard sample counts partition the merged count.
        merged = results["serial"].telemetry
        assert sum(b["telemetry"]["samples"] for b in blocks) == \
            merged["samples"]

    def test_chrome_trace_is_the_same_document_under_any_plan(
            self, tmp_path):
        """One document, written once from the merged result: frames
        and counter tracks do not depend on how the shards ran (kernel
        spans are host wall times)."""
        cfg = base_config(cells=2, channels=2, n_clients=1,
                          duration_ns=300 * MS, warmup_ns=100 * MS)
        documents = []
        for jobs in (None, 1, 2):
            path = tmp_path / f"jobs-{jobs}.json"
            result = run_scenario(cfg, shard_jobs=jobs,
                                  telemetry=telemetry_config(
                                      trace_export_path=str(path)))
            document = json.loads(path.read_text())
            kernel = [event for event in document["traceEvents"]
                      if event["cat"] == "kernel"]
            assert len(kernel) == len(result.telemetry_instrument.spans) \
                == result.telemetry["spans"]["recorded_spans"] > 0
            document["traceEvents"] = [
                event for event in document["traceEvents"]
                if event["cat"] != "kernel"]
            documents.append(document)
        assert documents[0] == documents[1] == documents[2]
        assert {event["pid"] for event in documents[0]["traceEvents"]
                if event["cat"] == "frame"} == {"channel0", "channel1"}

    def test_spans_are_retained_only_for_an_export(self):
        """A telemetry-on shard ships its owner table across the pool
        boundary and nothing else."""
        cfg = base_config(cells=2, channels=2, n_clients=1,
                          duration_ns=300 * MS, warmup_ns=100 * MS)
        result = run_scenario(cfg, telemetry=telemetry_config())
        assert result.telemetry_instrument.spans == []
        assert result.telemetry["spans"]["events"] > 0
        assert result.trace is None


class TestArtifacts:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("telemetry-artifact")
        jsonl = tmp / "run.jsonl"
        trace = tmp / "run.trace.json"
        cfg = base_config(cells=2, channels=2, n_clients=1, seed=2)
        result = run_scenario(cfg, telemetry=telemetry_config(
            telemetry_path=str(jsonl), trace_export_path=str(trace)))
        return result, jsonl, trace

    def test_jsonl_round_trip(self, artifact):
        result, jsonl, _ = artifact
        parsed = load_telemetry(str(jsonl))
        meta = parsed["meta"]
        assert meta["format"] == "repro-telemetry"
        assert meta["channels"] == [0, 1]
        assert meta["cells"] == [0, 1]
        assert meta["sample_interval_ns"] == INTERVAL
        # duration 900 ms, interval 50 ms -> 19 ticks x 2 channels.
        assert len(parsed["samples"]) == 38
        assert parsed["summary"]["samples"] == 38
        assert parsed["summary"]["samples"] == \
            result.telemetry["samples"]
        assert parsed["spans"]["events"] > 0

    def test_sample_records_carry_cell_probes(self, artifact):
        _, jsonl, _ = artifact
        sample = load_telemetry(str(jsonl))["samples"][-1]
        assert set(sample) >= {"t_ns", "channel", "utilisation",
                               "busy", "frames_sent", "cells"}
        cell = sample["cells"][0]
        assert set(cell) >= {"cell", "label", "ap_queue",
                             "wired_down_queue", "wired_up_queue",
                             "live_flows", "hack_buffer", "rohc_cids"}

    def test_chrome_trace_parses_and_spans_channels(self, artifact):
        _, _, trace = artifact
        with open(trace) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events, "empty trace"
        frame_pids = {event["pid"] for event in events
                      if event["cat"] == "frame"}
        assert frame_pids == {"channel0", "channel1"}
        categories = {event["cat"] for event in events}
        assert categories >= {"frame", "kernel", "telemetry"}
        assert document["otherData"]["format"] == "repro-telemetry"

    def test_report_formats_highlights(self, artifact):
        _, jsonl, _ = artifact
        text = format_report(load_telemetry(str(jsonl)))
        assert "telemetry report: 2 cell(s) on 2 channel(s)" in text
        assert "top kernel time consumers" in text
        assert "airtime" in text
        assert "queue highlights" in text

    def test_loader_rejects_non_artifacts(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "meta", "format": "nope"}\n')
        with pytest.raises(TelemetryArtifactError, match="format"):
            load_telemetry(str(bogus))
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json\n")
        with pytest.raises(TelemetryArtifactError, match="not JSON"):
            load_telemetry(str(garbled))

    def test_loader_rejects_a_non_object_line_and_a_bare_meta(
            self, tmp_path, capsys):
        """Regression: a JSON line that is not an object and a meta
        record without the scenario's fields died with tracebacks
        (AttributeError, KeyError) instead of one error line."""
        listed = tmp_path / "listed.jsonl"
        listed.write_text("[1, 2]\n")
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"type": "meta", "format": "repro-telemetry"}\n')
        for path, message in ((listed, "not a JSON object"),
                              (bare, "meta record lacks")):
            with pytest.raises(TelemetryArtifactError, match=message):
                load_telemetry(str(path))
            assert cli_main(["report", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    def test_truncated_artifact_still_reads_samples(self, artifact,
                                                    tmp_path):
        _, jsonl, _ = artifact
        lines = jsonl.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:3]) + "\n")
        parsed = load_telemetry(str(truncated))
        assert parsed["summary"] is None
        assert len(parsed["samples"]) == 2
        assert "truncated" in format_report(parsed)


class TestOneWriter:
    def test_seam_writes_nothing_and_the_writer_writes_run_scenarios_files(
            self, tmp_path):
        """``build_simulation`` -> ``run()`` -> ``collect()`` leaves no
        file behind; :func:`write_artifacts` on its result writes what
        ``run_scenario`` writes, host wall times aside."""
        cfg = base_config(n_clients=1, seed=4)

        def paths(name):
            return (tmp_path / f"{name}.jsonl",
                    tmp_path / f"{name}.trace.json")

        def telemetry(name):
            jsonl, trace = paths(name)
            return telemetry_config(telemetry_path=str(jsonl),
                                    trace_export_path=str(trace))

        world = build_simulation(cfg, telemetry=telemetry("seam"))
        world.run()
        result = collect(world)
        assert not any(path.exists() for path in paths("seam"))
        write_artifacts(result)
        run_scenario(cfg, telemetry=telemetry("run"))

        (seam_jsonl, seam_trace), (run_jsonl, run_trace) = \
            paths("seam"), paths("run")
        assert deterministic_lines(seam_jsonl) == \
            deterministic_lines(run_jsonl)
        assert len(deterministic_lines(seam_jsonl)) > 3
        assert deterministic_trace(seam_trace) == \
            deterministic_trace(run_trace)
        assert deterministic_trace(seam_trace)["traceEvents"]


    @pytest.mark.parametrize("artifact", ["telemetry_path",
                                          "trace_export_path"])
    def test_a_write_that_raises_partway_leaves_no_torn_file(
            self, tmp_path, artifact):
        """The JSONL and the trace are written as streams; one that
        fails after its first lines (here: a last sample or kernel span
        no JSON encoder takes) leaves neither the artifact nor its
        staging file, and an artifact already there keeps its bytes."""
        path = tmp_path / "artifact"
        world = build_simulation(
            base_config(n_clients=1, seed=4),
            telemetry=telemetry_config(**{artifact: str(path)}))
        world.run()
        result = collect(world)
        if artifact == "telemetry_path":
            result.telemetry_samples.append(
                dict(result.telemetry_samples[-1], note=object()))
        else:
            result.telemetry_instrument.spans.append((0, 0, object()))
        with pytest.raises(TypeError):
            write_artifacts(result)
        assert list(tmp_path.iterdir()) == []
        path.write_text("the previous run's artifact\n")
        with pytest.raises(TypeError):
            write_artifacts(result)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "the previous run's artifact\n"


class TestSweepTelemetry:
    def test_execute_point_writes_artifact_and_strips_block(
            self, tmp_path):
        cfg = base_config(n_clients=1, seed=2)
        point = SweepPoint(key=("t",), config=cfg)
        plain = execute_point(point)
        telemetered = execute_point(point,
                                    telemetry_dir=str(tmp_path))
        assert "telemetry" not in telemetered
        assert plain == telemetered
        artifact = tmp_path / (point_signature(point) + ".jsonl")
        assert artifact.exists()
        parsed = load_telemetry(str(artifact))
        assert parsed["summary"] is not None


class TestCli:
    def test_simulate_with_telemetry_and_report(self, tmp_path,
                                                capsys):
        jsonl = tmp_path / "cli.jsonl"
        trace = tmp_path / "cli.trace.json"
        code = cli_main([
            "simulate", "--clients", "1", "--duration", "0.4",
            "--warmup", "0.15", "--telemetry", str(jsonl),
            "--trace-export", str(trace),
            "--sample-interval", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry artifact" in out
        assert "chrome trace" in out
        assert "kernel spans" in out
        json.load(open(trace))
        assert cli_main(["report", str(jsonl)]) == 0
        report_out = capsys.readouterr().out
        assert "telemetry report" in report_out

    @pytest.mark.parametrize("interval", ["0", "-5", "0.0000001"])
    def test_simulate_rejects_a_sample_interval_below_one_ns(
            self, interval, tmp_path, capsys):
        """Regression: ``0.0000001`` ms passed the CLI's own check and
        died in ``TelemetryConfig`` with a traceback."""
        jsonl = tmp_path / "x.jsonl"
        assert cli_main(["simulate", "--sample-interval", interval,
                         "--telemetry", str(jsonl)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "sample_interval_ns" in captured.err
        assert not jsonl.exists()

    def test_report_rejects_non_artifact(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("nope\n")
        assert cli_main(["report", str(bogus)]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_export_runs_as_shards(self, tmp_path, capsys):
        """Regression: this died with a "cannot span channel shards"
        traceback."""
        trace = tmp_path / "x.json"
        assert cli_main([
            "simulate", "--clients", "1", "--cells", "2",
            "--channels", "2", "--shard-jobs", "1",
            "--duration", "0.4", "--warmup", "0.15",
            "--trace-export", str(trace)]) == 0
        assert "2 shards, serial" in capsys.readouterr().out
        events = json.loads(trace.read_text())["traceEvents"]
        assert {event["pid"] for event in events
                if event["cat"] == "frame"} == {"channel0", "channel1"}

    def test_sharded_kernel_stats_prints_per_shard(self, capsys):
        code = cli_main([
            "simulate", "--clients", "1", "--cells", "2",
            "--channels", "2", "--shard-jobs", "1",
            "--duration", "0.4", "--warmup", "0.15",
            "--kernel-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shard ch0" in out
        assert "shard ch1" in out
