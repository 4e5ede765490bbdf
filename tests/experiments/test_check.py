"""The experiment table and its paper-shape gate.

``runner.EXPERIMENTS`` is the one table: every entry is a module that
states its grid, rows, table, paper claim and ``check_rows`` contract
once.  Pinned here: the protocol every entry follows, the generator
rendering exactly that table, the contracts passing on the golden rows
(a paper-shape gate that simulates nothing) and naming the row under a
seeded mutation, ``repro check`` on fresh / doctored / unloadable
artifacts, and ``repro sweep`` being ``runner.main``.
"""

import importlib.util
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.experiments import adversarial, city_scale, common, runner
from repro.experiments.batch import SweepSpec
from repro.experiments.runner import EXPERIMENTS

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
        def stub(title, value):
            spec = SweepSpec(title)
            spec.add_analytic((0,), "tests.helpers:constant_metrics",
                              value=value)
            return SimpleNamespace(
                TITLE=title, PAPER_SAYS=f"{title} says so.",
                sweep_spec=lambda quick=False: spec,
                rows_from_sweep=lambda result: [
                    r.metrics for r in result.records],
                format_rows=lambda rows: f"value {rows[0]['value']}")

        # Table order, not name order; main() rebinds FULL_SEEDS.
        monkeypatch.setattr(generator, "EXPERIMENTS",
                            {"zz": stub("Zed", 1.0),
                             "aa": stub("Ay", 2.0)})
        monkeypatch.setattr(common, "FULL_SEEDS", common.FULL_SEEDS)
        out = tmp_path / "EXPERIMENTS.md"
        assert generator.main(["--quick", "--no-cache",
                               "--out", str(out)]) == 0
        text = out.read_text()
        body = text[text.index("## Zed"):]
        assert body.startswith(
            "## Zed\n\n```text\nvalue 1.0\n```\n\n"
            "**Paper says:** Zed says so.\n\n## Ay\n\n")

    def test_generator_rewrites_only_between_the_markers(
            self, generator, monkeypatch, tmp_path, capsys):
        """In place, from stub experiments: every byte outside the
        marker pair survives; a document without the pair is refused
        before anything runs.  The committed document has the pair
        around exactly the generated sections."""
        _, _, rest = (ROOT / "EXPERIMENTS.md").read_text().partition(
            generator.BEGIN)
        region, end, after = rest.partition(generator.END)
        assert end
        for module in EXPERIMENTS.values():
            assert f"\n## {module.TITLE}\n" in region
            assert module.TITLE not in after

        stub = SimpleNamespace(
            TITLE="Stub", PAPER_SAYS="so.",
            sweep_spec=lambda quick=False: SweepSpec("stub"),
            rows_from_sweep=lambda result: [],
            format_rows=lambda rows: "no rows")
        monkeypatch.setattr(generator, "EXPERIMENTS", {"stub": stub})
        monkeypatch.setattr(common, "FULL_SEEDS", common.FULL_SEEDS)
        document = tmp_path / "doc.md"
        monkeypatch.setattr(generator, "DOCUMENT", document)
        head, tail = "# Prose\n\nkept {seeds}.\n\n", "\n## More\nkept.\n"
        document.write_text(
            head + generator.BEGIN + "stale\n" + generator.END + tail)
        assert generator.main(["--no-cache", "--seeds", "2"]) == 0
        text = document.read_text()
        assert text.startswith(head + generator.BEGIN
                               + "Simulation seeds: (1, 2); full ")
        assert text.endswith("**Paper says:** so.\n\n"
                             + generator.END + tail)
        assert "stale" not in text and "## Stub\n" in text

        document.write_text(head + generator.BEGIN + "stale\n" + tail)
        capsys.readouterr()
        assert generator.main(["--no-cache"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and error.count("\n") == 1
        assert document.read_text().endswith("stale\n" + tail)

    @pytest.mark.parametrize("flag", [("--seeds", "0"),
                                      ("--jobs", "-2")])
    def test_generator_refuses_what_the_runner_refuses(
            self, generator, monkeypatch, tmp_path, capsys, flag):
        """``--seeds 0`` used to run until crossval's KeyError and
        ``--jobs -2`` to mean one worker per CPU.  With nothing to run,
        a flag let through would return 0 here at once."""
        monkeypatch.setattr(generator, "EXPERIMENTS", {})
        monkeypatch.setattr(common, "FULL_SEEDS", common.FULL_SEEDS)
        with pytest.raises(SystemExit) as exited:
            generator.main([*flag, "--no-cache",
                            "--out", str(tmp_path / "doc.md")])
        assert exited.value.code == 2
        assert "must be a" in capsys.readouterr().err

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
            "adversarial: 19 clause(s) hold; 6 cells resilient, 2 ")
        hack = {"scheme": "TCP/HACK More Data"}
        for where, changes, message in (
                ({**hack, "intensity": 0.5}, {"internal_errors": 1},
                 "a fault escaped"),
                ({**hack, "intensity": 1.0}, {"recoveries": 0},
                 "never recovered"),
                ({**hack, "intensity": 0.0}, {"desync_events": 1},
                 "baseline desynced")):
            mutant, row = mutated(rows, where, changes)
            with pytest.raises(AssertionError,
                               match=message) as failure:
                adversarial.check_rows(mutant)
            assert str(row) in str(failure.value)


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

    @pytest.mark.parametrize("field, value", [("failed", 1),
                                              ("interrupted", True)])
    def test_incomplete_record_set_fails(self, artifact, tmp_path,
                                         capsys, field, value):
        def edit(payload):
            payload["table3"][field] = value

        capsys.readouterr()
        assert cli_main(["check",
                         doctored(artifact, tmp_path, edit)]) == 1
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
