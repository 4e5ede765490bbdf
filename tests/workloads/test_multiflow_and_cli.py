"""Multi-flow scenarios and the top-level CLI."""

import dataclasses

import pytest

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.cli import _build_parser, _simulate_config, main as cli_main
from repro.experiments.runner import main as runner_main
from repro.sim.units import MS, SEC
from repro.workloads.scenarios import build_simulation


class TestFlowsPerClient:
    def test_flow_count(self):
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=2,
            flows_per_client=2, policy=HackPolicy.MORE_DATA,
            duration_ns=1500 * MS, warmup_ns=700 * MS,
            stagger_ns=20 * MS))
        assert sorted(res.per_flow_goodput_mbps) == [1, 2, 3, 4]

    def test_flows_share_capacity_fairly(self):
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
            flows_per_client=3, policy=HackPolicy.MORE_DATA,
            duration_ns=2 * SEC, warmup_ns=1 * SEC,
            stagger_ns=20 * MS))
        assert res.fairness_index > 0.8
        assert res.aggregate_goodput_mbps > 90

    def test_ap_queue_scales_with_flows(self):
        # The paper sizes the AP queue per *flow*; with three flows the
        # slow-start overshoot of one flow must not starve the others.
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
            flows_per_client=3, policy=HackPolicy.VANILLA,
            duration_ns=2 * SEC, warmup_ns=1 * SEC,
            stagger_ns=20 * MS))
        assert min(res.per_flow_goodput_mbps.values()) > 5

    def test_distinct_five_tuples(self):
        world = build_simulation(ScenarioConfig(
            phy_mode="11n", n_clients=1, flows_per_client=2,
            duration_ns=600 * MS, warmup_ns=300 * MS,
            stagger_ns=10 * MS))
        world.run()
        tuples = {f.sender.five_tuple.key() for f in world.flows}
        assert len(tuples) == 2


class TestCli:
    def test_simulate_prints_report(self, capsys):
        code = cli_main([
            "simulate", "--phy", "11n", "--rate", "150",
            "--policy", "more_data", "--duration", "1",
            "--warmup", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate goodput" in out
        assert "HACK ACKs" in out
        assert "fairness" in out

    def test_simulate_vanilla_no_hack_line(self, capsys):
        cli_main(["simulate", "--policy", "vanilla",
                  "--duration", "1", "--warmup", "0.5"])
        out = capsys.readouterr().out
        assert "HACK ACKs" not in out

    def test_simulate_with_loss(self, capsys):
        code = cli_main([
            "simulate", "--snr", "20", "--duration", "1",
            "--warmup", "0.5"])
        assert code == 0

    def test_simulate_transport_flags(self, capsys):
        code = cli_main([
            "simulate", "--cc", "cubic", "--pacing", "--qdisc",
            "codel", "--duration", "1", "--warmup", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AQM (codel" in out

    def test_simulate_default_hides_aqm_line(self, capsys):
        cli_main(["simulate", "--duration", "1", "--warmup", "0.5"])
        out = capsys.readouterr().out
        assert "AQM (" not in out       # drop-tail, zero AQM drops

    def test_scenario_transport_overrides_only_when_set(self, capsys):
        # churn-cubic-codel keeps its registered cc/qdisc under the
        # default flags, and --qdisc overrides it when given.
        code = cli_main(["simulate", "--scenario", "churn-cubic-codel",
                         "--qdisc", "fq_codel"])
        assert code == 0
        assert "AQM (fq_codel" in capsys.readouterr().out

    def test_scenario_flags_override_the_registry_entry(self, capsys):
        # Used to run quickstart untouched: one HACK client for 3 s.
        code = cli_main(["simulate", "--scenario", "quickstart",
                         "--clients", "4", "--policy", "vanilla",
                         "--duration", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("  flow ") == 4
        assert "HACK ACKs" not in out

    def test_explicit_flag_can_select_the_default_value(self, capsys):
        # Used to keep the registered cubic/codel: "reno" and
        # "droptail" were indistinguishable from flags not given.
        code = cli_main(["simulate", "--scenario", "churn-cubic-codel",
                         "--cc", "reno", "--qdisc", "droptail"])
        assert code == 0
        assert "AQM (" not in capsys.readouterr().out

    def test_simulate_config_is_base_plus_flags_given(self):
        def config(*argv):
            return _simulate_config(
                _build_parser().parse_args(["simulate", *argv]))

        ad_hoc = ScenarioConfig(
            policy=HackPolicy.MORE_DATA, duration_ns=4 * SEC,
            warmup_ns=2 * SEC, stagger_ns=50 * MS)
        assert config() == ad_hoc
        short = config("--duration", "1", "--seed", "0")
        assert (short.duration_ns, short.warmup_ns, short.seed) \
            == (1 * SEC, 500 * MS, 0)
        registered = config("--scenario", "churn-cubic-codel")
        assert (registered.cc, registered.queue_discipline) \
            == ("cubic", "codel")
        paced = config("--scenario", "churn-cubic-codel", "--pacing")
        assert paced.pacing and paced.cc == "cubic"
        assert paced.arrivals == registered.arrivals

    def test_no_simulate_flag_is_silently_ignored(self):
        """``_simulate_config`` applies every flag named after a
        ``ScenarioConfig`` field; any other flag must be one that
        ``_simulate`` consumes itself — so a field deleted while its
        flag stays fails here instead of being dropped unseen."""
        args = _build_parser().parse_args(["simulate"])
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(vars(args)) - {"command"} - fields == {
            "scenario", "shard_jobs", "uniform_loss", "snr",
            "kernel_stats", "adversary_kind",
            "adversary_intensity", "adversary_mode", "telemetry",
            "trace_export", "sample_interval"}

    @pytest.mark.parametrize("flags", [
        ["--adversary-intensity", "0.3"],
        ["--adversary-mode", "reactive"]])
    def test_adversary_knob_needs_an_attack(self, flags, capsys):
        """On a base with no adversary, neither knob names an attack
        (an intensity alone used to build an inert plan silently)."""
        assert cli_main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "--adversary" in captured.err

    def test_adversary_mode_reaches_the_jammer(self, capsys):
        argv = ["simulate", "--adversary", "jammer",
                "--adversary-mode", "reactive"]
        assert _simulate_config(_build_parser().parse_args(
            argv)).adversary.jam_mode == "reactive"
        assert cli_main([*argv, "--duration", "0.3"]) == 0
        assert "adversary         : jammer @ intensity 0.5" \
            in capsys.readouterr().out

    def test_sora_flag_keeps_the_registered_switch(self, capsys):
        """``--sora`` is a switch that defaults to "not given", so a
        base that sets it keeps it when the flag is left out."""
        def goodput(*flags):
            assert cli_main(["simulate", "--scenario", "sora-testbed",
                             "--duration", "0.6", *flags]) == 0
            return capsys.readouterr().out.splitlines()[0]

        assert _simulate_config(_build_parser().parse_args(
            ["simulate", "--scenario", "sora-testbed"])).sora
        assert goodput() == goodput("--sora")

    def test_experiments_forwarding(self, capsys, tmp_path):
        assert cli_main(["experiments", "fig01",
                         "--cache-dir", str(tmp_path)]) == 0
        assert "Figure 1a" in capsys.readouterr().out

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["bogus"])

    def test_simulate_rejects_warmup_past_duration(self, capsys):
        code = cli_main(["simulate", "--duration", "1", "--warmup", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "warmup_ns" in captured.err

    @pytest.mark.parametrize("flags, field", [
        (["--phy", "11a"], "data_rate_mbps"),   # ad-hoc rate is 150
        (["--rate", "17"], "data_rate_mbps"),
        (["--loss", "1.5"], "loss probabilities"),
        (["--loss", "-0.5"], "loss probabilities"),
        (["--clients", "-1"], "n_clients"),
        (["--flows-per-client", "0"], "flows_per_client")])
    def test_simulate_rejects_unrunnable_config(self, flags, field,
                                                capsys):
        """One ``error:`` line and exit 2, never a traceback from
        inside the event loop."""
        assert cli_main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert field in captured.err

    def test_simulate_11a_at_an_11a_rate_runs(self, capsys):
        assert cli_main(["simulate", "--phy", "11a", "--rate", "54",
                         "--duration", "0.3"]) == 0
        assert "aggregate goodput" in capsys.readouterr().out

    @pytest.mark.parametrize("main, argv", [
        (cli_main, ["simulate", "--shard-jobs", "0"])])
    def test_shard_jobs_must_be_positive(self, main, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("main, argv, expected", [
        (runner_main, ["fig01", "--quick", "--jobs", "-3"],
         "positive integer"),
        (cli_main, ["sweep", "fig01", "--quick", "--jobs", "-1"],
         "positive integer"),
        (cli_main, ["report", "run.jsonl", "--top", "0"],
         "positive integer"),
        (runner_main, ["fig01", "--quick", "--seeds", "0"],
         "positive integer"),
        (runner_main, ["fig01", "--quick", "--seeds", "0-1"],
         "positive integer"),
        (runner_main, ["fig01", "--quick", "--seeds", "3-2"],
         "range FIRST-LAST with FIRST <= LAST"),
        (runner_main, ["fig01", "--quick", "--jobs", "0"],
         "positive integer")])
    def test_counts_are_parsed_as_counts(self, main, argv, expected,
                                         capsys):
        """``--jobs -3`` ran one worker per CPU (on the runner and on
        ``repro sweep``, which forwards to it), as ``--jobs 0`` did;
        ``--top 0`` printed empty headings and ``--seeds 0`` (in the
        old generator) ran until crossval's KeyError."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: argument {argv[-2]}: must be a {expected}" \
            in err.splitlines()[-1]

    @pytest.mark.parametrize("text, seeds", [
        ("1", (1,)), ("3", (1, 2, 3)), ("2-2", (2,)), ("2-4", (2, 3, 4))])
    def test_seeds_are_a_count_or_a_range(self, text, seeds):
        """``--seeds N`` is 1..N; ``FIRST-LAST`` picks a hold-out seed
        (``2-2``) with the signature that seed always had."""
        from repro.experiments.runner import build_parser
        assert build_parser().parse_args(
            ["fig01", "--seeds", text]).seeds == seeds
