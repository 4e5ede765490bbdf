"""Unit conversions and serialisation-time arithmetic."""

import pytest

from repro.sim.units import MS, NS, SEC, US, msec, throughput_mbps, \
    transmission_time_ns, usec


class TestConstants:
    def test_hierarchy(self):
        assert US == 1_000 * NS
        assert MS == 1_000 * US
        assert SEC == 1_000 * MS


class TestConversions:
    def test_usec(self):
        assert usec(16) == 16_000

    def test_usec_fractional(self):
        assert usec(3.6) == 3_600

    def test_usec_rounds(self):
        assert usec(0.0006) == 1  # rounds, not truncates

    def test_msec(self):
        assert msec(1.5) == 1_500_000


class TestTransmissionTime:
    def test_simple(self):
        # 1500 bytes at 12 Mbps = 1000 us.
        assert transmission_time_ns(1500, 12.0) == 1_000_000

    def test_ceil(self):
        # 1 byte at 1000 Mbps = 8 ns exactly.
        assert transmission_time_ns(1, 1000.0) == 8

    def test_rounds_up(self):
        # 1 byte at 3 Mbps = 2666.67 ns -> 2667.
        assert transmission_time_ns(1, 3.0) == 2667

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            transmission_time_ns(100, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            transmission_time_ns(100, -5.0)


class TestThroughput:
    def test_basic(self):
        # 1,000,000 bytes in one second = 8 Mbps.
        assert throughput_mbps(1_000_000, SEC) == pytest.approx(8.0)

    def test_zero_duration(self):
        assert throughput_mbps(100, 0) == 0.0

    def test_inverse_of_transmission_time(self):
        nbytes, rate = 12_345, 54.0
        duration = transmission_time_ns(nbytes, rate)
        assert throughput_mbps(nbytes, duration) == pytest.approx(
            rate, rel=1e-3)
