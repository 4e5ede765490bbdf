"""MacStats accounting."""

import pytest

from repro.phy.params import PHY_11A
from repro.stats.collectors import MacStats

from tests.helpers import FakePayload


class Job:
    def __init__(self, kind="data", stat_kind="tcp_ack"):
        self.kind = kind
        self.stat_kind = stat_kind


class Mpdu:
    def __init__(self, dst="C1", retry_count=0, kind="tcp_data"):
        self.dst = dst
        self.retry_count = retry_count
        self.payload = FakePayload(kind=kind)


class Frame:
    def __init__(self, kind="tcp_data"):
        self.mpdus = [Mpdu(kind=kind)]


class TestAirtimeAccounting:
    def test_tx_start_accumulates(self):
        stats = MacStats()
        stats.on_tx_start(Job(), duration=1000, wait_ns=500)
        stats.on_tx_start(Job(), duration=2000, wait_ns=700)
        assert stats.airtime_ns["tcp_ack"] == 3000
        assert stats.acquisition_wait_ns["tcp_ack"] == 1200

    def test_bar_jobs_keyed_separately(self):
        stats = MacStats()
        stats.on_tx_start(Job(kind="bar"), 100, 0)
        assert stats.airtime_ns["bar"] == 100


class TestRetryTable:
    def test_fractions(self):
        stats = MacStats()
        stats.on_mpdus_delivered([Mpdu() for _ in range(9)])
        stats.on_mpdus_delivered([Mpdu(retry_count=2)])
        table = stats.retry_table()
        assert table["C1"]["no_retries"] == pytest.approx(0.9)
        assert table["C1"]["one_or_more"] == pytest.approx(0.1)
        assert table["C1"]["total"] == 10

    def test_per_destination(self):
        stats = MacStats()
        stats.on_mpdus_delivered([Mpdu(dst="C1"),
                                  Mpdu(dst="C2", retry_count=1)])
        table = stats.retry_table()
        assert table["C1"]["no_retries"] == 1.0
        assert table["C2"]["no_retries"] == 0.0

    def test_empty(self):
        assert MacStats().retry_table() == {}

    def test_every_fate_is_booked_by_destination(self):
        stats = MacStats()
        stats.on_mpdus_delivered([Mpdu(dst="C1"),
                                  Mpdu(dst="C2", retry_count=3)])
        stats.on_mpdus_dropped([Mpdu(dst="C2", retry_count=7)])
        assert stats.delivered() == 2
        assert dict(stats.mpdus_dropped) == {"C2": 1}


class TestLlResponseAccounting:
    def test_overhead_includes_sifs_and_delay(self):
        stats = MacStats()
        stats.on_ll_response(duration=28_000,
                             stock_duration=28_000,
                             elicited_by=Frame("tcp_ack"), phy=PHY_11A,
                             extra_delay=37_000)
        expected = PHY_11A.sifs_ns + 37_000 + 28_000
        assert stats.ll_response_overhead_ns["tcp_ack"] == expected

    def test_hack_extra_airtime(self):
        stats = MacStats()
        stats.on_ll_response(duration=40_000,
                             stock_duration=28_000,
                             elicited_by=Frame(), phy=PHY_11A,
                             extra_delay=0)
        assert stats.hack_extra_airtime_ns == 12_000
        assert stats.hack_responses == 1

    def test_fit_fraction(self):
        stats = MacStats()
        # Extra airtime within AIFS: fits.
        stats.on_ll_response(30_000, 28_000, Frame(), PHY_11A, 0)
        # Extra airtime way beyond AIFS: does not fit.
        stats.on_ll_response(100_000, 28_000, Frame(), PHY_11A, 0)
        assert stats.hack_fit_fraction() == pytest.approx(0.5)

    def test_fit_fraction_empty(self):
        assert MacStats().hack_fit_fraction() == 1.0


class TestTimeBreakdown:
    def test_table3_rows(self):
        stats = MacStats()
        stats.on_tx_start(Job(stat_kind="tcp_ack"),
                          duration=2_000_000, wait_ns=5_000_000)
        stats.on_ll_response(32_000, 28_000, Frame("tcp_ack"), PHY_11A, 0)
        breakdown = stats.time_breakdown_ms()
        assert breakdown["tcp_ack_airtime"] == pytest.approx(2.0)
        assert breakdown["channel_acquisition"] == pytest.approx(5.0)
        assert breakdown["rohc_airtime"] == pytest.approx(0.004)
        assert breakdown["ll_ack_overhead"] > 0
