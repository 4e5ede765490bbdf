"""Experiment harness smoke tests.

Full experiment runs are ``python -m repro.experiments.runner`` (CI's
sweep-smoke job, gated by ``repro check``); here we verify that the
harnesses produce well-formed rows and tables on minimal settings.
"""

import pytest

from repro.experiments import ablations, common, crossval, fig01, \
    fig09, fig10, fig11, fig12, runner, table2, table3

from tests.helpers import run_experiment


class TestCommon:
    def test_seeds(self):
        assert common.seeds_for(True) == common.QUICK_SEEDS
        assert len(common.seeds_for(False)) == 5

    def test_format_table_alignment(self):
        out = common.format_table(["a", "long_header"],
                                  [["xx", "1"], ["y", "22"]],
                                  title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1


class TestFig01:
    def test_rows_cover_both_figures(self):
        rows = run_experiment(fig01)
        assert {r["figure"] for r in rows} == {"1a", "1b"}
        assert all(r["hack_mbps"] > r["tcp_mbps"] for r in rows)

    def test_format(self):
        out = fig01.format_rows(run_experiment(fig01))
        assert "Figure 1a" in out and "Figure 1b" in out


class TestSimulationHarnesses:
    """One tiny run through each sim-backed harness."""

    def test_fig11_minimal(self):
        rows = run_experiment(fig11, quick=True, snrs=(26.0,),
                              rates=(150.0,))
        assert len(rows) == 1
        row = rows[0]
        assert row["hack_envelope_mbps"] > 0
        assert row["crc_failures"] == 0
        assert "improvement" in fig11.format_rows(rows)

    def test_fig12_minimal(self):
        rows = run_experiment(fig12, quick=True, rates=(150.0,))
        assert rows[0]["sim_tcp_mbps"] <= \
            1.05 * rows[0]["theory_tcp_mbps"]
        assert "Figure 12" in fig12.format_rows(rows)

    def test_fig10_minimal(self):
        rows = run_experiment(fig10, quick=True, client_counts=(1,))
        schemes = {r["scheme"] for r in rows}
        assert len(schemes) == 4
        assert "Figure 10" in fig10.format_rows(rows)


class TestFormatters:
    """format_rows must handle synthetic rows without running sims."""

    def test_fig09_formatter(self):
        rows = [{"figure": "9", "clients": "one client",
                 "protocol": "T", "client": "C1",
                 "goodput_mbps": 19.4, "stdev": 0.5,
                 "no_retry_frac": 0.87}]
        out = fig09.format_rows(rows)
        assert "Figure 9" in out and "Table 1" in out
        assert "87%" in out

    def test_fig11_printed_mean_is_the_gated_mean(self):
        """A stock envelope of 3 Mbps is not a usable SNR: the table's
        mean and ``check_rows``' mean both leave it out."""
        rows = [{"figure": "11", "snr_db": snr, "tcp_envelope_mbps": tcp,
                 "hack_envelope_mbps": tcp * (1 + gain / 100),
                 "improvement_pct": gain, "crc_failures": 0}
                for snr, tcp, gain in ((6.0, 3.0, 60.0),
                                       (20.0, 20.0, 10.0))]
        assert "+10.0% over 1 usable SNR(s)" in fig11.check_rows(rows)
        assert "mean improvement across SNRs: +10.0%" \
            in fig11.format_rows(rows)

    def test_table2_formatter(self):
        rows = [{"table": "2", "protocol": "TCP/802.11a",
                 "ack_count": 9060, "ack_bytes": 471120,
                 "compressed_count": 0, "compressed_bytes": 0,
                 "compression_ratio": 1.0, "transfer_bytes": 25e6,
                 "completed": True},
                {"table": "2", "protocol": "TCP/HACK",
                 "ack_count": 10, "ack_bytes": 520,
                 "compressed_count": 9050, "compressed_bytes": 39478,
                 "compression_ratio": 11.9, "transfer_bytes": 25e6,
                 "completed": True}]
        out = table2.format_rows(rows)
        assert "9060" in out and "11.9" in out and "(1)" in out

    def test_table3_formatter(self):
        rows = [{"table": "3", "protocol": "TCP/802.11a",
                 "tcp_ack_airtime": 70.0, "rohc_airtime": 0.0,
                 "channel_acquisition": 1093.0,
                 "ll_ack_overhead": 456.0}]
        assert "1093.00" in table3.format_rows(rows)

    def test_crossval_formatter(self):
        rows = [{"figure": "crossval", "protocol": "TCP/HACK",
                 "loss_rate": 0.02, "ideal_mbps": 28.0,
                 "sora_mbps": 25.5}]
        out = crossval.format_rows(rows)
        assert "28.0" in out and "2%" in out

    def test_ablations_formatter(self):
        rows = [{"ablation": "policy", "variant": "MORE DATA",
                 "goodput_mbps": 129.0},
                {"ablation": "txop", "variant": "1 ms",
                 "tcp_mbps": 93.0, "hack_mbps": 114.0,
                 "improvement_pct": 22.6}]
        out = ablations.format_rows(rows)
        assert "MORE DATA" in out and "TXOP" in out


class TestRunner:
    def test_cli_fig01(self, capsys, tmp_path):
        assert runner.main(["fig01", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 1a" in out
        assert "[fig01:" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            runner.main(["nonsense"])

    def test_experiment_registry_complete(self):
        assert set(runner.EXPERIMENTS) == {
            "fig01", "fig09", "table2", "table3", "crossval",
            "fig10", "fig11", "fig12", "ablations", "fct_churn",
            "multi_ap", "city_scale", "adversarial", "aqm_pacing"}
