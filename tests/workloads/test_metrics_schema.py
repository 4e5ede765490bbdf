"""The key tree of ``ScenarioResult.metrics_dict()``, pinned once.

Every experiment and benchmark row reads this dict by key, and a
cached sweep record is ``record()``: the same dict without the
execution blocks (``ScenarioResult.EXECUTION_KEYS``).  Block key sets
are asserted against the tuples of the classes that own the counters
— adding a counter is one edit there — so an accidental rename fails
here by name instead of in a digest.
"""

import pytest

from repro import run_scenario
from repro.adversary import AdversaryConfig
from repro.core.driver import HackDriver
from repro.obs import TelemetryConfig
from repro.rohc.decompressor import Decompressor
from repro.sim.engine import SimStats
from repro.sim.units import MS
from repro.tcp.sender import TcpSender
from repro.workloads.scenarios import ScenarioResult

from tests.workloads.test_multi_cell import base_config
from tests.workloads.test_sharding import CHURN, summed_kernels

TOP_LEVEL = {
    "aggregate_goodput_mbps", "per_flow_goodput_mbps", "fairness_index",
    "medium_frames_sent", "medium_frames_collided",
    "medium_utilisation", "decompressor", "sender_counters",
    "completion_times_ns", "hack_fit_fraction", "retry_table",
    "time_breakdown_ms", "drivers", "kernel_stats", "fct",
    "udp_background_goodput_mbps", "cells", "cell_fairness_index",
    "channels", "rohc", "aqm"}
AQM = {"discipline", "drops", "dequeued", "sojourn_bins",
       "sojourn_p50_ms", "sojourn_p99_ms"}
CELL = {"label", "ap", "clients", "channel", "aggregate_goodput_mbps",
        "per_flow_goodput_mbps", "fairness_index", "carried_mbps",
        "airtime_share", "frames_sent", "frames_collided", "fct",
        "udp_background_goodput_mbps"}
CHANNEL = {"channel", "utilisation", "frames_sent", "frames_collided",
           "airtime_share_sum"}
SHARD = {"channel", "cells", "kernel_stats", "telemetry"}
TELEMETRY = {"sample_interval_ns", "samples", "metrics", "enabled",
             "spans"}


@pytest.fixture(scope="module")
def plain_result():
    return run_scenario(base_config(
        n_clients=1, duration_ns=300 * MS, warmup_ns=100 * MS))


@pytest.fixture(scope="module")
def everything_result():
    """Static flows plus churn on two channels, attacked, sampled and
    sharded: every conditional key at once."""
    cfg = base_config(
        cells=2, channels=2, n_clients=1, duration_ns=300 * MS,
        warmup_ns=100 * MS, arrivals=CHURN["arrivals"],
        adversary=AdversaryConfig(kind="mutator", intensity=0.5))
    return run_scenario(cfg, shard_jobs=1, telemetry=TelemetryConfig())


@pytest.fixture(scope="module")
def plain(plain_result):
    return plain_result.metrics_dict()


@pytest.fixture(scope="module")
def everything(everything_result):
    return everything_result.metrics_dict()


def test_top_level_keys(plain, everything):
    assert set(plain) == TOP_LEVEL
    assert set(everything) == TOP_LEVEL | {"telemetry", "shards",
                                           "adversary"}


@pytest.mark.parametrize("run", ["plain_result", "everything_result"])
def test_record_is_metrics_without_the_execution_blocks(run, request):
    result = request.getfixturevalue(run)
    metrics, record = result.metrics_dict(), result.record()
    assert list(record) == [key for key in metrics
                            if key not in ScenarioResult.EXECUTION_KEYS]
    assert record == {key: metrics[key] for key in record}


@pytest.mark.parametrize("run", ["plain", "everything"])
def test_block_keys_are_their_owners_tuples(run, request):
    metrics = request.getfixturevalue(run)
    assert tuple(metrics["decompressor"]) == Decompressor.COUNTER_KEYS
    assert tuple(metrics["rohc"]) == HackDriver.ROHC_ROBUSTNESS_KEYS \
        == Decompressor.ROBUSTNESS_KEYS + ("chain_repairs",)
    assert set(metrics["aqm"]) == AQM
    assert metrics["drivers"] and metrics["sender_counters"]
    for block in metrics["drivers"].values():
        assert tuple(block) == HackDriver.METRIC_KEYS
    for block in metrics["sender_counters"].values():
        assert tuple(block) == TcpSender.COUNTER_KEYS
    for block in metrics["cells"]:
        assert set(block) == CELL
    for block in metrics["channels"]:
        assert set(block) == CHANNEL


def test_conditional_blocks(everything):
    assert set(everything["kernel_stats"]) == set(SimStats().as_dict())
    assert set(everything["telemetry"]) == TELEMETRY
    for block in everything["shards"]:
        assert set(block) == SHARD
        assert set(block["telemetry"]) == TELEMETRY
    assert {"kind", "intensity", "frames_mutated"} \
        <= set(everything["adversary"])
    # The kernel view is the key-wise sum of the shards' counters.
    assert everything["kernel_stats"] == \
        summed_kernels(everything["shards"])
