"""Self-test of the benchmark: ``python -m pytest bench -q``.

One 1/20-size, single-repeat pass over all four workloads, timed and
traced, checked against the declarations in ``BENCHMARK.json``.  Not part
of tier-1 (whose ``testpaths`` is ``tests``).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*extra):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--scale", "0.05",
         "--repeats", "1", *extra],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def timed_lines():
    return run_bench("--trace", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "ledger.json"
    lines = run_bench("--trace", "1", "--out", str(out))
    return lines, json.loads(out.read_text()), \
        json.loads(out.with_suffix(".spans.json").read_text())


def test_declarations_are_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(SPEC["workloads"]) == 4
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= next(m for m in SPEC["end_to_end"]
                if m["name"] == "setup_s").items()


def check_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] >= 0
    assert line["correct"] == (line["failed"] == 0)
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]


def test_timed_pass_emits_every_end_to_end_metric(timed_lines):
    assert len(timed_lines) == 4
    for line in timed_lines:
        check_line(line, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_pass_emits_every_per_layer_metric(traced):
    lines, ledger, _spans = traced
    assert len(lines) == 4
    for line in lines:
        check_line(line, SPEC["per_layer"])
    assert list(ledger["workloads"]) == \
        [w["name"] for w in SPEC["workloads"]]
    assert {"seed", "nproc", "python", "commit"} <= set(ledger["header"])


def test_declared_names_are_exactly_the_measured_ones(traced):
    _lines, ledger, _spans = traced
    measured = set()
    for entry in ledger["workloads"].values():
        assert set(entry["end_to_end"]) == \
            {m["name"] for m in SPEC["end_to_end"]}
        measured |= set(entry["exact"]) | set(entry["host"])
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_workloads_separate_the_layers(traced):
    _lines, ledger, _spans = traced
    rows = {name: {**entry["exact"], **entry["host"]}
            for name, entry in ledger["workloads"].items()}
    assert rows["bulk_vanilla_10c"]["rohc.self_share"] < 0.005
    assert rows["bulk_hack_10c"]["rohc.self_share"] > 0.03
    assert rows["bulk_vanilla_10c"]["traffic.flows_spawned"] == 0
    assert rows["churn_city_20cell"]["traffic.flows_spawned"] > 0
    assert rows["churn_city_20cell"]["workloads.sharding.digest_match"] == 1
    for name, measured in rows.items():
        batch = [row for row in measured
                 if row.startswith("experiments.batch.")]
        assert bool(batch) == (name == "sweep_quick")
    # At 1/20 size the city run ends with most flows still in flight, so
    # only the other three are held to zero failed operations.
    for name, entry in ledger["workloads"].items():
        if name != "churn_city_20cell":
            assert entry["failed"] == 0, name


def test_spans_nest_under_one_root_per_child(traced):
    _lines, _ledger, spans = traced
    roots = {(s["workload"], s["name"]) for s in spans
             if s["parent"] is None}
    assert len(roots) >= 4
    for span in spans:
        assert span["end"] >= span["start"]
        assert set(span) == {"name", "start", "end", "parent", "workload"}
    phases = {s["name"] for s in spans if s["parent"] in
              {name for _workload, name in roots}}
    assert {"import", "build", "call"} <= phases
    assert any(s["name"].startswith("point:fig01:") for s in spans)
