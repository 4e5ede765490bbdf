"""The experiment table and its paper-shape gate.

``runner.EXPERIMENTS`` is the one table: every entry is a module that
states its grid, rows, table, paper claim and ``check_rows`` contract
once.  Pinned here: the protocol every entry follows, the generator
rendering exactly that table from the artifact ``repro check`` gates,
the contracts passing on the golden rows (a paper-shape gate that
simulates nothing) and naming the row under a seeded mutation, ``repro
check`` on fresh / doctored / unloadable artifacts (a failed record
fails the gate whatever the entry's stored counts say), ``repro sweep``
being ``runner.main``, the one seed rule, and atomic writes.
"""

import errno
import importlib.util
import json
import os
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.experiments import adversarial, city_scale, common, runner
from repro.experiments.batch import ENGINE_VERSION, SweepRecord, \
    SweepResult, SweepRunner
from repro.experiments.runner import EXPERIMENTS
from repro.rohc.decompressor import Decompressor

from tests.experiments.conftest import QUICK_SCOPES

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md",
        ROOT / "scripts" / "generate_experiments_md.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutated(rows, where, changes):
    """``rows`` with ``changes`` applied to the one row matching
    ``where``; returns ``(rows, the mutated row)``."""
    [index] = [i for i, row in enumerate(rows)
               if all(row[k] == v for k, v in where.items())]
    if callable(changes):
        changes = changes(rows[index])
    row = dict(rows[index], **changes)
    return [*rows[:index], row, *rows[index + 1:]], row


def stub(title):
    """An experiment-shaped stub whose table is its one value."""
    return SimpleNamespace(
        TITLE=title, PAPER_SAYS=f"{title} says so.",
        __doc__=f"{title} in one line.\n\n    {title}'s body.\n    ",
        rows_from_sweep=lambda result: [
            r.metrics for r in result.records],
        format_rows=lambda rows: f"value {rows[0]['value']}")


def stub_entry(name, value, seed=1):
    """One artifact entry: a complete record set of one record."""
    return SweepResult(name, records=[SweepRecord(
        key=(0,), seed=seed, signature="",
        metrics={"value": value})]).to_json_dict()


def fail_first_record(entry):
    """Turn an artifact entry's first record into a failed one, and
    leave the entry's stored ``failed`` counter as it was: the gate
    reads the records."""
    entry["records"][0].update(metrics=None, error={
        "type": "RuntimeError", "message": "poisoned cell",
        "attempts": 1})


def write_artifact(tmp_path, entries):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(entries))
    return str(path)


def stub_document(generator, monkeypatch, tmp_path,
                  head="# Prose\n\n", tail="\n## More\n"):
    """A document with a stale generated region, in place of
    EXPERIMENTS.md."""
    document = tmp_path / "doc.md"
    document.write_text(
        head + generator.BEGIN + "stale\n" + generator.END + tail)
    monkeypatch.setattr(generator, "DOCUMENT", document)
    return document


class TestExperimentTable:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_entry_is_a_complete_record(self, name):
        module = EXPERIMENTS[name]
        for attribute in ("sweep_spec", "rows_from_sweep",
                          "format_rows", "check_rows"):
            assert callable(getattr(module, attribute)), attribute
        assert module.TITLE.strip() and module.PAPER_SAYS.strip()
        assert module.sweep_spec(quick=True).name == name

    def test_generator_renders_the_table_it_is_given(
            self, generator, monkeypatch, tmp_path):
        # Table order, not the artifact's order; the seeds line is the
        # records' seeds.
        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"zz": stub("Zed"), "aa": stub("Ay")})
        artifact = write_artifact(tmp_path, {
            "aa": stub_entry("aa", 2.0, seed=2),
            "zz": stub_entry("zz", 1.0, seed=1)})
        out = tmp_path / "EXPERIMENTS.md"
        assert generator.main([artifact, "--out", str(out)]) == 0
        text = out.read_text()
        assert f"{generator.BEGIN}Simulation seeds: (1, 2).\n\n## Zed" \
            in text
        body = text[text.index("## Zed"):]
        # The docstring follows the claim, as inspect.cleandoc left it.
        assert body.startswith(
            "## Zed\n\n```text\nvalue 1.0\n```\n\n"
            "**Paper says:** Zed says so.\n\n"
            "Zed in one line.\n\nZed's body.\n\n## Ay\n\n"
            "```text\nvalue 2.0\n```\n\n")

    def test_generator_rewrites_only_between_the_markers(
            self, generator, monkeypatch, tmp_path, capsys):
        """In place, from a stub artifact: every byte outside the
        marker pair survives; a document without the pair is refused
        and left alone.  The committed document has the pair around
        exactly the generated sections."""
        _, _, rest = (ROOT / "EXPERIMENTS.md").read_text().partition(
            generator.BEGIN)
        region, end, after = rest.partition(generator.END)
        assert end
        for module in EXPERIMENTS.values():
            assert f"\n## {module.TITLE}\n" in region
            assert module.TITLE not in after

        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"stub": stub("Stub")})
        artifact = write_artifact(tmp_path,
                                  {"stub": stub_entry("stub", 1.0)})
        head, tail = "# Prose\n\nkept {seeds}.\n\n", "\n## More\nkept.\n"
        document = stub_document(generator, monkeypatch, tmp_path,
                                 head, tail)
        assert generator.main([artifact]) == 0
        text = document.read_text()
        assert text.startswith(head + generator.BEGIN
                               + "Simulation seeds: (1,).\n\n## Stub\n")
        assert text.endswith("**Paper says:** Stub says so.\n\n"
                             "Stub in one line.\n\nStub's body.\n\n"
                             + generator.END + tail)
        assert "stale" not in text

        document.write_text(head + generator.BEGIN + "stale\n" + tail)
        capsys.readouterr()
        assert generator.main([artifact]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and error.count("\n") == 1
        assert "marker pair" in error
        assert document.read_text().endswith("stale\n" + tail)

    @pytest.mark.parametrize("edit, message", [
        (None, "no entry stub"),
        (fail_first_record, "incomplete record set (1 failed point(s)"),
        (lambda entry: entry.update(interrupted=True),
         "interrupted=True"),
        (lambda entry: entry.update(engine=ENGINE_VERSION - 1),
         "engine version")],
        ids=["missing", "failed", "interrupted", "stale"])
    def test_generator_refuses_an_artifact_repro_check_would_fail(
            self, generator, monkeypatch, tmp_path, capsys, edit,
            message):
        """One ``error:`` line naming the defect, exit 2, and the
        document is not touched: no region is rendered from a record
        set the gate would refuse."""
        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"other": stub("Other"),
                             "stub": stub("Stub")})
        entries = {"other": stub_entry("other", 1.0)}
        if edit is not None:
            entries["stub"] = stub_entry("stub", 1.0)
            edit(entries["stub"])
        artifact = write_artifact(tmp_path, entries)
        document = stub_document(generator, monkeypatch, tmp_path)
        before = document.read_bytes()
        capsys.readouterr()
        assert generator.main([artifact]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {artifact}: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert document.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_generator_refuses_a_pin_missing_an_experiment(
            self, generator, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"other": stub("Other"),
                             "stub": stub("Stub")})
        pin = tmp_path / "full_rows.json"
        pin.write_text(json.dumps(
            {"rows": {"other": [{"value": 1.0}]}, "seeds": [1]}))
        document = stub_document(generator, monkeypatch, tmp_path)
        before = document.read_bytes()
        capsys.readouterr()
        assert generator.main([str(pin)]) == 2
        assert capsys.readouterr().err == \
            f"error: {pin}: no rows for stub\n"
        assert document.read_bytes() == before

    def test_committed_document_has_every_section_in_table_order(
            self, generator):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        source = Path(generator.__file__).read_text()
        positions = []
        for module in EXPERIMENTS.values():
            positions.append(text.index(f"\n## {module.TITLE}\n"))
            assert f"**Paper says:** {module.PAPER_SAYS}" in text
            # ...and the generator holds no title of its own.
            assert module.TITLE not in source
        assert positions == sorted(positions)


class TestCommittedDocument:
    """EXPERIMENTS.md's region is HEAD's: ``golden/full_rows.json``
    pins every experiment's rows of the full-fidelity artifact the
    region was rendered from, the region is the generator's render of
    them byte for byte, and every contract holds on them.  Simulates
    nothing; CI's full-regeneration job holds the pin to a fresh run."""

    @pytest.fixture(scope="class")
    def pinned(self):
        with open(ROOT / "tests" / "experiments" / "golden"
                  / "full_rows.json") as handle:
            return json.load(handle)

    def test_region_is_the_render_of_the_pinned_rows(self, generator,
                                                     pinned):
        _, begin, rest = (ROOT / "EXPERIMENTS.md").read_text().partition(
            generator.BEGIN)
        region, end, _ = rest.partition(generator.END)
        assert begin and end
        assert generator.render(pinned["rows"], pinned["seeds"]) \
            == region

    def test_the_pin_re_renders_the_committed_document(self, generator,
                                                       tmp_path):
        """The generator reads the pin as it reads an artifact, so a
        docstring edit re-renders without a regeneration."""
        out = tmp_path / "EXPERIMENTS.md"
        assert generator.main([str(ROOT / "tests" / "experiments"
                                   / "golden" / "full_rows.json"),
                               "--out", str(out)]) == 0
        assert out.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes()

    def test_each_experiment_is_one_section(self):
        """Each ``TITLE`` is a heading exactly once, and no other
        heading names its topic (the title up to `` (`` or `` —``):
        an experiment's prose is its module's, not a second copy."""
        headings = [line for line in
                    (ROOT / "EXPERIMENTS.md").read_text().splitlines()
                    if line.startswith("#")]
        for module in EXPERIMENTS.values():
            assert headings.count(f"## {module.TITLE}") == 1, module.TITLE
            topic = re.split(r" \(| —", module.TITLE)[0]
            assert [h for h in headings
                    if re.match(rf"#+ {re.escape(topic)}\b", h)] \
                == [f"## {module.TITLE}"], topic

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_pinned_rows_hold_the_contract(self, name, pinned):
        summary = EXPERIMENTS[name].check_rows(pinned["rows"][name])
        assert re.search(r"\b[1-9]\d* clause\(s\) hold", summary)


#: One seeded regression per pinned experiment: (row selector, the
#: change, what the contract must say).
MUTATIONS = {
    "fig01": ({"figure": "1b", "rate_mbps": 600.0},
              {"improvement_pct": 10.0}, "not above 14%"),
    "fig09": ({"clients": "one client", "protocol": "H"},
              lambda row: {"goodput_mbps": 0.75 * row["goodput_mbps"]},
              "not >15% above TCP"),
    "fig10": ({"scheme": "TCP/HACK More Data"},
              lambda row: {"goodput_mbps": 0.85 * row["goodput_mbps"]},
              "not >5% above stock TCP"),
    "fig11": ({"snr_db": 18.0}, {"crc_failures": 1},
              "CRC failures"),
    "fig12": ({"rate_mbps": 150.0},
              lambda row: {"sim_tcp_mbps": 1.1 * row["theory_tcp_mbps"]},
              "exceeds its analytic bound"),
    "table2": ({"protocol": "TCP/HACK"}, {"compression_ratio": 30.0},
               "outside 8-26x"),
    # Stock TCP's channel acquisition replaced by HACK's.
    "table3": ({"protocol": "TCP/802.11a"},
               {"channel_acquisition": 0.0}, "does not dominate"),
    "crossval": ({"protocol": "TCP/HACK"},
                 lambda row: {"sora_mbps": row["ideal_mbps"] + 1},
                 "cost HACK nothing"),
    "ablations": ({"variant": "delayed ACKs off"},
                  {"improvement_pct": 0.0}, "does not widen"),
}


class TestContractsOnGoldenRows:
    def test_every_pinned_experiment_is_mutated(self):
        assert set(MUTATIONS) == set(QUICK_SCOPES)

    @pytest.mark.parametrize("name", sorted(QUICK_SCOPES))
    def test_golden_rows_pass(self, name, golden):
        summary = EXPERIMENTS[name].check_rows(golden[name])
        assert re.match(rf"{name}: [1-9]\d* clause\(s\) hold", summary)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_seeded_mutation_names_the_row(self, name, golden):
        where, changes, message = MUTATIONS[name]
        rows, row = mutated(golden[name], where, changes)
        with pytest.raises(AssertionError, match=message) as failure:
            EXPERIMENTS[name].check_rows(rows)
        assert str(row) in str(failure.value)


class TestContractsOnTrimmedExtensionGrids:
    """city_scale and adversarial have no golden rows and no harness
    test of their own; fct_churn, multi_ap and aqm_pacing are checked
    and mutated in theirs."""

    def test_city_scale(self, sweep_cache_runner):
        rows = common.run(city_scale, quick=True, city_cells=(12,),
                          runner=sweep_cache_runner)
        assert city_scale.check_rows(rows).startswith(
            "city_scale: 2 clause(s) hold")
        rows, row = mutated(rows, {"scheme": "TCP/802.11"},
                            {"max_channel_airtime_sum": 1.2})
        with pytest.raises(AssertionError, match="outside") as failure:
            city_scale.check_rows(rows)
        assert str(row) in str(failure.value)

    def test_adversarial(self, sweep_cache_runner):
        rows = common.run(adversarial, quick=True, attacks=("mutator",),
                          runner=sweep_cache_runner)
        assert adversarial.check_rows(rows).startswith(
            "adversarial: 22 clause(s) hold; 6 cells resilient, 2 ")
        hack = {"scheme": "TCP/HACK More Data"}
        for where, changes, message in (
                ({**hack, "intensity": 0.5}, {"internal_errors": 1},
                 "a fault escaped"),
                ({**hack, "intensity": 1.0}, {"recoveries": 0},
                 "desync book does not balance"),
                ({**hack, "intensity": 1.0},
                 lambda row: {"recoveries": row["desync_events"] - 1,
                              "open_desyncs": 1, "released_desyncs": 0,
                              "open_desync_ms": 1_000.0},
                 "open desyncs older than"),
                ({**hack, "intensity": 0.0}, {"desync_events": 1},
                 "baseline desynced")):
            mutant, row = mutated(rows, where, changes)
            with pytest.raises(AssertionError,
                               match=message) as failure:
                adversarial.check_rows(mutant)
            assert str(row) in str(failure.value)

    def test_adversarial_catches_a_decompressor_that_never_recovers(
            self, monkeypatch):
        """A decompressor that never leaves the desync state after its
        first desync (its repair is a no-op): the books still balance,
        the desyncs die with their flows, and the contract says no
        forced desync was ever recovered.  Simulated afresh (no cache:
        the mutant's records must not land under the real cells'
        signatures)."""
        monkeypatch.setattr(Decompressor, "_mark_recovered",
                            lambda self, cid: None)
        rows = common.run(adversarial, quick=True, attacks=("mutator",),
                          runner=SweepRunner(jobs=1))
        mutated_hack = [row for row in rows if "HACK" in row["scheme"]
                        and row["intensity"] > 0]
        assert all(row["recoveries"] == 0 and row["desync_events"] > 0
                   for row in mutated_hack)
        with pytest.raises(AssertionError,
                           match="no forced desync was ever recovered"):
            adversarial.check_rows(rows)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A fresh ``--quick --out`` artifact of two cheap experiments."""
    path = tmp_path_factory.mktemp("check") / "sweep.json"
    assert cli_main(["sweep", "fig01", "table3", "--quick",
                     "--no-cache", "--out", str(path)]) == 0
    return path


def doctored(artifact, tmp_path, edit):
    payload = json.loads(artifact.read_text())
    edit(payload)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestReproCheck:
    def test_fresh_artifact_is_green(self, artifact, capsys):
        capsys.readouterr()
        assert cli_main(["check", str(artifact)]) == 0
        fig01, table3 = capsys.readouterr().out.splitlines()
        assert fig01.startswith("ok   fig01: 2 clause(s) hold")
        assert table3.startswith("ok   table3: 5 clause(s) hold")
        assert cli_main(["check", str(artifact), "table3"]) == 0
        assert capsys.readouterr().out.startswith("ok   table3:")

    def test_broken_contracts_exit_1_one_line_each(
            self, artifact, tmp_path, capsys):
        def edit(payload):
            for record in payload["fig01"]["records"]:
                record["metrics"]["hack_mbps"] = \
                    record["metrics"]["tcp_mbps"]
            for record in payload["table3"]["records"]:
                record["metrics"]["time_breakdown_ms"][
                    "channel_acquisition"] = 0.0

        capsys.readouterr()
        assert cli_main(["check",
                         doctored(artifact, tmp_path, edit)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("FAIL fig01: gain at 150 Mbps")
        assert out[1].startswith("FAIL table3: channel acquisition")
        assert "'protocol': 'TCP/802.11a'" in out[1]

    @pytest.mark.parametrize("edit", [
        pytest.param(fail_first_record, id="failed-1"),
        pytest.param(lambda entry: entry.update(interrupted=True),
                     id="interrupted-True")])
    def test_incomplete_record_set_fails(self, artifact, tmp_path,
                                         capsys, edit):
        capsys.readouterr()
        assert cli_main(["check", doctored(
            artifact, tmp_path,
            lambda payload: edit(payload["table3"]))]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ok   fig01:")
        assert out[1].startswith(
            "FAIL table3: incomplete record set")

    def test_unloadable_files_exit_2_with_one_line(
            self, artifact, tmp_path, capsys):
        def stale(payload):
            payload["fig01"]["engine"] -= 1

        not_json = tmp_path / "notes.txt"
        not_json.write_text("not an artifact")
        a_list = tmp_path / "list.json"
        a_list.write_text("[1, 2]")
        capsys.readouterr()
        for argv, message in (
                ([doctored(artifact, tmp_path, stale)],
                 "engine version"),
                ([str(not_json)], "notes.txt"),
                ([str(a_list)], "not a sweep --out artifact"),
                ([str(tmp_path / "missing.json")], "missing.json"),
                ([str(artifact), "fig99"], "no entry fig99")):
            assert cli_main(["check", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert message in captured.err


@pytest.fixture(scope="module")
def crossval_artifact(tmp_path_factory, sweep_cache_runner):
    """``runner crossval --quick --seeds 2 --out``: every cell has two
    seeds (seed 1 shares the golden suites' cache)."""
    path = tmp_path_factory.mktemp("crossval") / "crossval.json"
    assert runner.main([
        "crossval", "--quick", "--seeds", "2", "--cache-dir",
        str(sweep_cache_runner.cache.directory), "--out",
        str(path)]) == 0
    return path


class TestGateReadsRecords:
    """A failed record makes an entry incomplete whatever its stored
    ``failed`` counter says — here crossval's rows, from the surviving
    seed, would pass the contract."""

    def test_a_failed_record_fails_check_and_generator(
            self, crossval_artifact, generator, monkeypatch, tmp_path,
            capsys):
        def edit(payload):
            fail_first_record(payload["crossval"])
            assert payload["crossval"]["failed"] == 0

        path = doctored(crossval_artifact, tmp_path, edit)
        result = runner.read_artifacts(path)["crossval"]
        crossval = EXPERIMENTS["crossval"]
        assert crossval.check_rows(crossval.rows_from_sweep(result))

        capsys.readouterr()
        assert cli_main(["check", str(crossval_artifact)]) == 0
        assert cli_main(["check", path]) == 1
        ok, fail = capsys.readouterr().out.splitlines()
        assert ok.startswith("ok   crossval: 5 clause(s) hold")
        assert fail == ("FAIL crossval: incomplete record set (1 failed "
                        "point(s), interrupted=False)")

        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"crossval": crossval})
        document = stub_document(generator, monkeypatch, tmp_path)
        before = document.read_bytes()
        assert generator.main([path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"error: {path}: crossval is an incomplete record set "
            f"(1 failed point(s), interrupted=False)")
        assert document.read_bytes() == before
        assert generator.main([str(crossval_artifact)]) == 0
        assert "## " + crossval.TITLE in document.read_text()


def tables(text):
    """Command output minus the wall-clock summary lines."""
    return [line for line in text.splitlines()
            if not line.startswith("[")]


class TestOneCommandLoop:
    def test_sweep_is_runner_main(self, capsys):
        argv = ["fig01", "table3", "--quick", "--no-cache"]
        assert runner.main(argv) == 0
        direct = capsys.readouterr().out
        assert cli_main(["sweep", *argv]) == 0
        assert tables(capsys.readouterr().out) == tables(direct)
        assert "Table 3" in direct

    def test_scenario_seed_sweep(self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        assert runner.main(["scenario:churn-web", "--seeds", "2",
                            "--no-cache", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Sweep: churn-web" in text and "FCT p50 (ms)" in text
        [(name, payload)] = json.loads(out.read_text()).items()
        assert name == "scenario:churn-web"
        assert len(payload["records"]) == 2
        # No contract for a scenario sweep: record-level checks only.
        assert cli_main(["check", str(out)]) == 0
        assert "2 records complete" in capsys.readouterr().out

    def test_unknown_targets_exit_2_with_suggestions(self, capsys):
        for target, hint in (("fig99", "expected an experiment"),
                             ("scenario:quickstrat",
                              "did you mean quickstart?")):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(["sweep", target])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: unknown ")
            assert captured.err.count("\n") == 1
            assert hint in captured.err


#: The entries whose cells are one deterministic run each: they take
#: ``seeds`` and ignore it.
UNSEEDED = {"fig01", "table2", "table3"}


class TestOneSeedRule:
    """A grid's seeds are an argument: ``sweep_spec(seeds=...)``, and
    ``runner --seeds N`` passes 1..N to every target, ``--quick`` or
    not.  Nothing here simulates: ``--status`` only audits the
    cache."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_sweep_spec_runs_the_seeds_it_is_given(self, name):
        module = EXPERIMENTS[name]
        given = module.sweep_spec(quick=True, seeds=(2, 3))
        if name in UNSEEDED:
            assert given.points == module.sweep_spec(quick=True).points
        else:
            assert {point.seed for point in given.points} == {2, 3}

    @pytest.mark.parametrize("target, points", [
        ("crossval", 8), ("scenario:churn-web", 2)])
    def test_runner_seeds_apply_to_every_target_under_quick(
            self, tmp_path, capsys, target, points):
        assert runner.main([target, "--quick", "--seeds", "2",
                            "--status", "--cache-dir",
                            str(tmp_path)]) == 3
        assert f"0/{points} points complete, {points} missing" in \
            capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_scenario_sweeps_keep_their_policy_by_default(self):
        sweep = runner.scenario_sweep("churn-web")
        for quick, seeds in ((True, {1}), (False, {1, 2, 3, 4, 5})):
            assert {point.seed for point in
                    sweep.sweep_spec(quick=quick).points} == seeds


class TestAtomicWrites:
    """An artifact or the document is replaced whole or not at all."""

    def test_a_raising_dump_keeps_the_previous_artifact(
            self, tmp_path):
        path = tmp_path / "sweep.json"
        runner.write_artifacts(str(path), {"a": {"records": [1, 2]}})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            runner.write_artifacts(
                str(path), {"a": {"records": [1, object()]}})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]

    def test_a_failed_rewrite_keeps_the_document(
            self, generator, monkeypatch, tmp_path):
        def no_space(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"stub": stub("Stub")})
        artifact = write_artifact(tmp_path,
                                  {"stub": stub_entry("stub", 1.0)})
        document = stub_document(generator, monkeypatch, tmp_path)
        before = document.read_bytes()
        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space"):
            generator.main([artifact])
        monkeypatch.undo()
        assert document.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
