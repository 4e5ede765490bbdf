"""Ablation harness units (cheap synthetic-row checks plus stubbed
sweep runs exercising the declarative grid end-to-end)."""

from repro.experiments import ablations

from tests.helpers import StubSweepRunner, run_experiment


class TestFormatters:
    def test_all_sections_render(self):
        rows = [
            {"ablation": "policy", "variant": "MORE DATA",
             "goodput_mbps": 129.0},
            {"ablation": "txop", "variant": "1 ms", "tcp_mbps": 93.0,
             "hack_mbps": 114.0, "improvement_pct": 22.6},
            {"ablation": "buffer", "variant": "16 pkts",
             "tcp_mbps": 57.0, "hack_mbps": 57.0,
             "improvement_pct": 0.0},
            {"ablation": "delack", "variant": "delayed ACKs off",
             "tcp_mbps": 108.0, "hack_mbps": 130.0,
             "improvement_pct": 19.9},
        ]
        out = ablations.format_rows(rows)
        for title in ("policy", "TXOP", "AP queue", "delayed ACKs"):
            assert title in out

    def test_negative_gain_formats_with_sign(self):
        rows = [{"ablation": "buffer", "variant": "42 pkts",
                 "tcp_mbps": 81.7, "hack_mbps": 80.7,
                 "improvement_pct": -1.3}]
        assert "-1.3%" in ablations.format_rows(rows)


class TestRunAll:
    def test_run_includes_every_dimension(self):
        # Stub the sweep execution so run() is instant.
        rows = run_experiment(ablations, quick=True,
                              runner=StubSweepRunner())
        dims = {r["ablation"] for r in rows}
        assert dims == {"policy", "txop", "buffer", "delack"}
        policies = [r["variant"] for r in rows
                    if r["ablation"] == "policy"]
        assert "TS_ECHO (§5 future work)" in policies

    def test_single_dimension_runners(self):
        stub = StubSweepRunner()
        rows = run_experiment(ablations, quick=True, runner=stub,
                              groups=("txop",))
        assert {r["ablation"] for r in rows} == {"txop"}
        assert all(r["improvement_pct"] == 0.0 for r in rows)
        # One spec, tcp+hack per variant, one quick seed each.
        assert len(stub.specs) == 1
        assert len(stub.specs[0].points) == 2 * len(ablations.TXOP_VARIANTS)
