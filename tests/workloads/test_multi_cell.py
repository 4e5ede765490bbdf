"""Multi-AP scenarios: cells axis, per-cell metrics, equivalence.

The headline oracle (the multi-AP analogue of PR 2's lazy-vs-slotted
check): a 2-cell run whose second cell carries zero traffic must be
metric-identical to the single-cell run of cell A — proof that the
multi-cell refactor is behaviour-preserving exactly where it overlaps
the paper's topologies.
"""

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.sim.units import MS
from repro.stats.fct import has_completions
from repro.traffic.arrivals import ArrivalSpec, SizeSpec
from repro.workloads import registry
from repro.workloads.scenarios import build_simulation, collect

QUICK = dict(duration_ns=900 * MS, warmup_ns=400 * MS)

CELL_KEYS = {"label", "ap", "clients", "channel",
             "aggregate_goodput_mbps",
             "per_flow_goodput_mbps", "fairness_index", "carried_mbps",
             "airtime_share", "frames_sent", "frames_collided", "fct",
             "udp_background_goodput_mbps"}


@dataclass
class CellMap(ScenarioConfig):
    """Uneven cells for the oracles: per-cell client counts and an
    explicit cell -> channel map, fed to the builder through its own
    ``cell_client_names`` / ``channel_of`` seams (None keeps the
    uniform law: ``n_clients`` everywhere, round-robin channels).  A 0
    count builds a silent BSS (AP and wired plumbing, no stations).  A
    count is at most ``n_clients``: flow ids are laid out for
    ``n_clients`` stations per cell."""

    clients: Optional[Tuple[int, ...]] = None
    channel_map: Optional[Tuple[int, ...]] = None

    def cell_client_names(self, cell: int) -> List[str]:
        names = super().cell_client_names(cell)
        if self.clients is None:
            return names
        assert self.clients[cell] <= self.n_clients
        return names[:self.clients[cell]]

    def channel_of(self, cell: int) -> int:
        if self.channel_map is None:
            return super().channel_of(cell)
        return self.channel_map[cell]


def base_config(cls=ScenarioConfig, **overrides) -> ScenarioConfig:
    fields = dict(phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
                  traffic="tcp_download",
                  policy=HackPolicy.MORE_DATA, stagger_ns=0, **QUICK)
    fields.update(overrides)
    return cls(**fields)


def normalised(metrics):
    return json.loads(json.dumps(metrics, sort_keys=True))


class TestCellValidation:
    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError, match="cells must be >= 1"):
            run_scenario(base_config(cells=0))

    def test_naming_is_unique_across_cells(self):
        cfg = base_config(CellMap, cells=3, clients=(2, 1, 2))
        names = []
        for cell in range(3):
            names.append(cfg.cell_ap_name(cell))
            names.extend(cfg.cell_client_names(cell))
        assert names == ["AP", "C1", "C2", "AP2", "C1.2",
                         "AP3", "C1.3", "C2.3"]
        assert len(set(names)) == len(names)


class TestEmptyCellEquivalence:
    """Satellite oracle: a silent second BSS changes nothing."""

    @pytest.fixture(scope="class")
    def pair(self):
        single = run_scenario(base_config())
        padded = run_scenario(base_config(CellMap, cells=2,
                                          clients=(2, 0)))
        return single, padded

    def test_metrics_identical_outside_cell_blocks(self, pair):
        single, padded = pair
        m_single = normalised(single.metrics_dict())
        m_padded = normalised(padded.metrics_dict())
        # The silent cell legitimately adds: its (all-zero) AP driver
        # entry, a second cells[] block, and the cross-cell index.
        for metrics in (m_single, m_padded):
            metrics.pop("cells")
            metrics.pop("cell_fairness_index")
        assert m_padded["drivers"].pop("AP2") is not None
        assert m_single == m_padded

    def test_cell_a_block_matches_single_cell_block(self, pair):
        single, padded = pair
        assert normalised(single.cell_blocks[0]) == \
            normalised(padded.cell_blocks[0])

    def test_silent_cell_block_is_all_zero(self, pair):
        _, padded = pair
        block = padded.cell_blocks[1]
        assert block["label"] == "cell2"
        assert block["clients"] == []
        assert block["aggregate_goodput_mbps"] == 0.0
        assert block["airtime_share"] == 0.0
        assert block["frames_sent"] == 0

    def test_churn_variant_also_equivalent(self):
        arrivals = ArrivalSpec(
            kind="poisson", rate_per_s=40.0,
            size=SizeSpec(kind="lognormal", median_bytes=50_000,
                          sigma=1.0))
        single = run_scenario(base_config(traffic="dynamic",
                                          arrivals=arrivals))
        padded = run_scenario(base_config(CellMap, traffic="dynamic",
                                          arrivals=arrivals, cells=2,
                                          clients=(2, 0)))
        m_single = normalised(single.metrics_dict())
        m_padded = normalised(padded.metrics_dict())
        assert m_single["fct"] == m_padded["fct"]
        assert m_single["per_flow_goodput_mbps"] == \
            m_padded["per_flow_goodput_mbps"]
        assert m_single["medium_utilisation"] == \
            m_padded["medium_utilisation"]


class TestContention:
    @pytest.fixture(scope="class")
    def runs(self):
        return (run_scenario(base_config()),
                run_scenario(base_config(cells=2)))

    def test_contended_cells_carry_strictly_less(self, runs):
        single, double = runs
        isolated = single.aggregate_goodput_mbps
        assert isolated > 0
        for block in double.cell_blocks:
            assert 0 < block["aggregate_goodput_mbps"] < isolated

    def test_airtime_shares_sum_at_most_one(self, runs):
        _, double = runs
        shares = [b["airtime_share"] for b in double.cell_blocks]
        assert all(0 < share < 1 for share in shares)
        assert sum(shares) <= 1.0
        # Collisions burn the rest: the busy union covers the clean
        # shares plus collided spans.
        assert double.medium_utilisation >= max(shares)

    def test_cross_cell_collisions_observed(self, runs):
        _, double = runs
        assert double.medium_frames_collided > 0
        assert sum(b["frames_collided"]
                   for b in double.cell_blocks) >= \
            double.medium_frames_collided

    def test_cell_block_schema(self, runs):
        single, double = runs
        assert len(single.cell_blocks) == 1
        assert len(double.cell_blocks) == 2
        for block in single.cell_blocks + double.cell_blocks:
            assert set(block) == CELL_KEYS
        assert [b["label"] for b in double.cell_blocks] == \
            ["cell1", "cell2"]
        assert single.cell_fairness_index == 1.0
        assert 0 < double.cell_fairness_index <= 1.0

    def test_multi_cell_deterministic(self):
        first = run_scenario(base_config(cells=2))
        second = run_scenario(base_config(cells=2))
        assert normalised(first.metrics_dict()) == \
            normalised(second.metrics_dict())


class TestMultiCellChurn:
    @pytest.fixture(scope="class")
    def world(self):
        world = build_simulation(registry.build("multi-ap-churn", **QUICK))
        world.run()
        return world

    @pytest.fixture(scope="class")
    def result(self, world):
        return collect(world)

    def test_per_cell_fct_blocks(self, result):
        assert len(result.cell_blocks) == 2
        for block in result.cell_blocks:
            assert block["fct"] is not None
            assert block["fct"]["flows_completed"] > 0
            assert "flows" not in block["fct"]   # per-cell stays light

    def test_merged_fct_is_sum_of_cells(self, result):
        merged = result.fct
        for key in ("flows_spawned", "flows_completed",
                    "flows_censored"):
            assert merged[key] == sum(b["fct"][key]
                                      for b in result.cell_blocks)
        assert merged["offered_load_mbps"] == pytest.approx(
            sum(b["fct"]["offered_load_mbps"]
                for b in result.cell_blocks))
        assert has_completions(merged["fct_ms"])

    def test_per_cell_managers_tracked(self, world):
        managers = [net.flow_manager for net in world.cells]
        assert len(managers) == 2
        # Disjoint dynamic-flow id ranges per cell.
        ids_a = {r.flow_id for r in managers[0].collector.records}
        ids_b = {r.flow_id for r in managers[1].collector.records}
        assert ids_a and ids_b
        assert not ids_a & ids_b
        # Cell ranges are strided far apart: cell A can spawn ten
        # million flows before its ids could reach cell B's base.
        assert max(ids_a) - min(ids_a) < 10_000_000
        assert min(ids_b) > 10_000_000


class TestZeroFlowChurn:
    """Regression (satellite): a churn run that completes zero flows
    must still emit the explicit zero-count fct block — never a
    missing/None distribution."""

    def test_zero_completion_block_survives_metrics_dict(self):
        cfg = base_config(
            traffic="dynamic",
            # One enormous flow arriving late: spawned, never done.
            arrivals=ArrivalSpec(
                kind="trace", trace=((700.0, 0, 50_000_000),)),
            duration_ns=800 * MS, warmup_ns=100 * MS)
        metrics = run_scenario(cfg).metrics_dict()
        fct = metrics["fct"]
        assert fct is not None
        assert fct["flows_completed"] == 0
        assert fct["fct_ms"] == {
            "p50": None, "p95": None, "p99": None, "mean": None,
            "min": None, "max": None, "flows": 0}
        assert not has_completions(fct["fct_ms"])
        # And the block round-trips through the sweep engine's JSON
        # normalisation unchanged.
        assert normalised(fct)["fct_ms"]["flows"] == 0

    def test_no_arrivals_at_all_still_explicit(self):
        cfg = base_config(
            traffic="dynamic",
            arrivals=ArrivalSpec(kind="trace", trace=()))
        fct = run_scenario(cfg).metrics_dict()["fct"]
        assert fct["flows_spawned"] == 0
        assert fct["fct_ms"]["flows"] == 0
