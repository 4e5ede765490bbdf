"""Workloads: the high-level scenario builder + named registry."""

from .scenarios import LossSpec, ScenarioConfig, ScenarioResult, \
    build_simulation, run_scenario
from . import registry
from .registry import UnknownScenarioError

__all__ = ["ScenarioConfig", "ScenarioResult", "LossSpec",
           "build_simulation", "run_scenario", "registry",
           "UnknownScenarioError"]
