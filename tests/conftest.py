"""Shared fixtures for the test suite.

Reusable test doubles live in :mod:`tests.helpers`; the re-exports
below keep ``from conftest import ...``-era call sites working.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.sim.engine import Simulator
from repro.sim.medium import Medium

from tests.helpers import FakeFrame, FakePayload, RecordingListener

__all__ = ["FakeFrame", "FakePayload", "RecordingListener"]

# CI (GitHub Actions sets it) draws every property test's examples
# from a fixed seed and no example database: a red build fails on the
# same examples when re-run.  A test's own settings still set its
# example count and deadline.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def default_sweep_cache_untouched(request):
    """Tier-1 must not write ``./.sweep-cache``: a test that runs a
    CLI on its default cache directory would pass, next run, from
    whatever numbers the previous commit left there."""
    cache = request.config.rootpath / ".sweep-cache"

    def snapshot():
        if not cache.is_dir():
            return None
        return {path.name: path.stat().st_mtime_ns
                for path in cache.iterdir()}

    before = snapshot()
    yield
    assert snapshot() == before, (
        f"the suite created or modified {cache}: pass --cache-dir "
        f"<tmp_path> or --no-cache to the CLI under test")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


@pytest.fixture
def medium(sim) -> Medium:
    return Medium(sim)


@pytest.fixture(scope="session")
def sweep_cache_runner(tmp_path_factory):
    """One content-hash-cached SweepRunner for the whole session, so
    the golden-schema and golden-rows suites simulate each quick cell
    exactly once between them."""
    from repro.experiments.batch import SweepRunner

    return SweepRunner(cache_dir=tmp_path_factory.mktemp("sweep-golden"))
