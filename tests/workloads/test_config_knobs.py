"""A config knob earns its place: some workload varies it.

Every field of :class:`ScenarioConfig` and of the specs nested in it
(``LossSpec``, ``ArrivalSpec``, ``SizeSpec``, ``AdversaryConfig``) is
part of every sweep signature and of ``validate()``.  A field that
every experiment grid (quick and full), every registry scenario and
every ``simulate`` flag leaves at one value is a constant, and belongs
to the layer that reads it; two fields that always move together are
one knob.  This test walks that whole space (building configs only,
simulating nothing) and names every knob that breaks either rule.
"""

import argparse
import dataclasses
import json
from itertools import combinations

from repro import cli
from repro.adversary import AdversaryConfig
from repro.experiments import runner
from repro.traffic.arrivals import ArrivalSpec, SizeSpec
from repro.workloads import registry
from repro.workloads.scenarios import LossSpec, ScenarioConfig

#: The config and the specs nested in it.
SPECS = (ScenarioConfig, LossSpec, ArrivalSpec, SizeSpec,
         AdversaryConfig)
#: The fields that hold a nested spec (its own fields are the knobs).
NESTED = {"ScenarioConfig.loss", "ScenarioConfig.arrivals",
          "ScenarioConfig.adversary", "ArrivalSpec.size"}

#: One ``simulate`` argv per scenario flag (a flag's value set on top
#: of the ad-hoc default, ``cli.AD_HOC``).
FLAG_ARGVS = {
    "--scenario": ["--scenario", "sora-testbed"],
    "--phy": ["--phy", "11a", "--rate", "54"],
    "--rate": ["--rate", "90"],
    "--clients": ["--clients", "3"],
    "--cells": ["--cells", "2"],
    "--channels": ["--channels", "2"],
    "--flows-per-client": ["--flows-per-client", "2"],
    "--policy": ["--policy", "vanilla"],
    "--traffic": ["--traffic", "tcp_upload"],
    "--duration": ["--duration", "2"],
    "--warmup": ["--warmup", "0.5"],
    "--seed": ["--seed", "7"],
    "--loss": ["--loss", "0.05"],
    "--snr": ["--snr", "12"],
    "--sora": ["--sora"],
    "--adversary": ["--adversary", "greedy"],
    "--adversary-intensity": ["--adversary", "jammer",
                              "--adversary-intensity", "0.3"],
    "--adversary-mode": ["--adversary", "mutator",
                         "--adversary-mode", "storm"],
    "--cc": ["--cc", "cubic"],
    "--pacing": ["--pacing"],
    "--qdisc": ["--qdisc", "fq_codel"],
}
#: ``simulate`` options that say how a run executes or reports, not
#: what it simulates.
EXECUTION_FLAGS = {"--help", "--shard-jobs", "--kernel-stats",
                   "--telemetry", "--trace-export", "--sample-interval"}

#: Knobs held at one value on purpose, with the reason.
ALLOWED_SINGLE = {
    "ArrivalSpec.trace": "the scripted arrivals the FlowManager, "
                         "arrival and zero-completion tests drive",
    "SizeSpec.bytes": "kind='fixed' sizes, the deterministic input of "
                      "the same tests",
}
#: Knob pairs that move together in every workload, with the reason.
ALLOWED_PAIRS = {
    "ArrivalSpec.think_time_ms + ArrivalSpec.users_per_client":
        "two dials of web demand; fct_churn's load levels happen to "
        "set both at once",
}


def _simulate_parser() -> argparse.ArgumentParser:
    parser = cli._build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices["simulate"]


def _configs():
    for module in runner.EXPERIMENTS.values():
        for quick in (True, False):
            for point in module.sweep_spec(quick=quick).points:
                if point.config is not None:
                    yield point.config
    for name in registry.names():
        yield registry.build(name)
    parser = _simulate_parser()
    for argv in FLAG_ARGVS.values():
        yield cli._simulate_config(parser.parse_args(argv))


def _record(values, spec):
    """Add one spec's field values (nested specs recursively) under
    ``"<Class>.<field>"`` keys."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        key = f"{type(spec).__name__}.{f.name}"
        if dataclasses.is_dataclass(value):
            _record(values, value)
        elif key not in NESTED:
            values.setdefault(key, []).append(
                json.dumps(value, sort_keys=True, default=repr))


def _knob_values():
    """Each knob's value in every config that has its spec, in order."""
    values = {}
    for config in _configs():
        config.validate()
        _record(values, config)
    return values


def test_every_simulate_flag_is_walked():
    options = {option for action in _simulate_parser()._actions
               for option in action.option_strings
               if option.startswith("--")}
    assert options - EXECUTION_FLAGS == set(FLAG_ARGVS)


def test_every_knob_is_varied_by_some_workload():
    values = _knob_values()
    declared = {f"{spec.__name__}.{f.name}" for spec in SPECS
                for f in dataclasses.fields(spec)} - NESTED
    assert declared == set(values)
    single = sorted(key for key, seen in values.items()
                    if len(set(seen)) < 2 and key not in ALLOWED_SINGLE)
    # Two knobs of one spec whose values always go together: each
    # value of one fixes the other's, and the other way round.
    paired = [f"{a} + {b}" for a, b in combinations(sorted(values), 2)
              if a.split(".")[0] == b.split(".")[0]
              and len(set(values[a])) > 1
              and len(set(zip(values[a], values[b])))
              == len(set(values[a])) == len(set(values[b]))
              and f"{a} + {b}" not in ALLOWED_PAIRS]
    assert not single and not paired, (
        f"single-valued knobs: {single}; knobs that move as one: "
        f"{paired}")
