"""Analytical capacity model vs the paper's quoted numbers."""

import pytest

from repro.analysis.capacity import hack_goodput_11a, hack_goodput_11n, \
    tcp_goodput_11a, tcp_goodput_11n

from tests.helpers import figure_1a, figure_1b, improvement


class TestFig1a:
    def test_hack_always_wins(self):
        for point in figure_1a():
            assert point.hack_goodput_mbps > point.tcp_goodput_mbps

    def test_improvement_grows_with_rate(self):
        points = figure_1a()
        imps = [improvement(p) for p in points]
        assert imps == sorted(imps)

    def test_54mbps_magnitudes(self):
        # Fig 1a at 54 Mbps: TCP ~24, HACK ~29 (paper's curves read
        # ~23 and ~27; same ballpark).
        tcp = tcp_goodput_11a(54.0)
        hack = hack_goodput_11a(54.0)
        assert 20 < tcp < 27
        assert 26 < hack < 31
        assert 0.15 < hack / tcp - 1 < 0.30

    def test_goodput_below_phy_rate(self):
        for point in figure_1a():
            assert point.tcp_goodput_mbps < point.rate_mbps


class TestFig1b:
    def test_150mbps_improvement_about_7pct(self):
        # Paper §4.3: "14%, vs. the 7% improvement predicted
        # analytically" at 150 Mbps.
        tcp = tcp_goodput_11n(150.0)
        hack = hack_goodput_11n(150.0)
        assert hack / tcp - 1 == pytest.approx(0.07, abs=0.02)

    def test_sub_100mbps_improvement_about_8pct(self):
        # Fig 1b caption: ~8% improvement on average below 100 Mbps.
        points = [p for p in figure_1b() if p.rate_mbps < 100]
        mean = sum(improvement(p) for p in points) / len(points)
        assert mean == pytest.approx(0.08, abs=0.02)

    def test_600mbps_improvement_about_20pct(self):
        # Paper §3.2: "a 20% improvement seen at 600 Mbps".
        points = {p.rate_mbps: p for p in figure_1b()}
        assert improvement(points[600.0]) == pytest.approx(0.20, abs=0.04)

    def test_aggregation_beats_11a_efficiency(self):
        # At a comparable rate, 802.11n aggregation wastes far less.
        assert tcp_goodput_11n(60.0) / 60.0 > tcp_goodput_11a(54.0) / 54.0

    def test_monotone_in_rate(self):
        points = figure_1b()
        goodputs = [p.tcp_goodput_mbps for p in points]
        assert goodputs == sorted(goodputs)

    def test_batch_size_42_at_150(self):
        # The 64 KiB A-MPDU bound yields the paper's 42-packet batches.
        from repro.analysis.capacity import _setup_11n
        from repro.phy.params import PHY_11N
        assert _setup_11n(150.0, PHY_11N)[1] == 42

    def test_txop_limits_batch_at_low_rates(self):
        from repro.analysis.capacity import _setup_11n
        from repro.phy.params import PHY_11N
        assert _setup_11n(15.0, PHY_11N)[1] < 42


class TestEdgeCases:
    def test_mean_acquisition_is_110_5us(self):
        # The introduction's EDCA number.
        from repro.analysis.capacity import _acquisition_ns
        from repro.phy.params import PHY_11N
        assert _acquisition_ns(PHY_11N) == 110_500
