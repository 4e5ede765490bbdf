"""Jain-index bounds and goodput-fairness edge cases (satellite)."""

import random

import pytest

from repro.stats.fairness import goodput_fairness, jain_index


class TestJainBounds:
    def test_single_flow_is_one(self):
        assert jain_index([37.5]) == 1.0

    def test_equal_shares_are_one(self):
        assert jain_index([4.0] * 10) == pytest.approx(1.0)

    def test_one_hog_is_one_over_n(self):
        for n in (2, 5, 50):
            values = [0.0] * (n - 1) + [10.0]
            assert jain_index(values) == pytest.approx(1.0 / n)

    def test_bounds_hold_for_random_inputs(self):
        rng = random.Random(123)
        for _ in range(200):
            n = rng.randint(1, 20)
            values = [rng.uniform(0.0, 100.0) for _ in range(n)]
            index = jain_index(values)
            assert 1.0 / n - 1e-12 <= index <= 1.0 + 1e-12

    def test_empty_and_all_zero_default_to_one(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        values = [1.0, 2.0, 3.0]
        assert jain_index(values) == pytest.approx(
            jain_index([v * 1000 for v in values]))


class TestGoodputFairness:
    def test_excludes_udp_pseudo_flows(self):
        per_flow = {1: 10.0, 2: 10.0, -1: 500.0}
        assert goodput_fairness(per_flow) == pytest.approx(1.0)

    def test_only_udp_flows_defaults_to_one(self):
        assert goodput_fairness({-1: 5.0, -2: 9.0}) == 1.0
