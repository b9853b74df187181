"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == "smoke"
        assert args.traffic == "uniform"
        assert args.technology == "vcsel"

    def test_run_option_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scale", "galaxy"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--optical-levels", "7"])

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "synth", "lu", "--nodes", "16", "--duration", "500"])
        assert args.benchmark == "lu"
        assert args.nodes == 16

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_convert_arguments(self):
        args = build_parser().parse_args(
            ["trace", "convert", "run.jsonl", "--format", "csv",
             "--kind", "policy"])
        assert args.trace_command == "convert"
        assert args.kind == "policy"

    def test_run_trace_arguments(self):
        args = build_parser().parse_args(
            ["run", "--trace", "out.jsonl", "--trace-kinds",
             "power,policy", "--trace-links", "0,3"])
        assert args.trace == "out.jsonl"
        assert args.trace_kinds == "power,policy"


class TestCommands:
    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "vcsel" in out
        assert "OK" in out

    def test_trace_synth_command(self, tmp_path, capsys):
        out_file = tmp_path / "lu.trace"
        code = main(["trace", "synth", "lu", "--nodes", "8",
                     "--duration", "2000", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        from repro.traffic.trace import read_trace_file

        records = read_trace_file(out_file)
        assert records

    def test_run_trace_then_convert_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(["run", "--scale", "smoke", "--rate", "0.1",
                     "--cycles", "2500", "--trace", str(trace)])
        assert code == 0
        assert trace.exists()
        code = main(["trace", "summarize", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "power" in out
        chrome = tmp_path / "run.json"
        code = main(["trace", "convert", str(trace),
                     "--out", str(chrome)])
        assert code == 0
        import json

        assert json.loads(chrome.read_text())["traceEvents"]
        csv_out = tmp_path / "power.csv"
        code = main(["trace", "convert", str(trace), "--format", "csv",
                     "--kind", "power", "--out", str(csv_out)])
        assert code == 0
        assert csv_out.read_text().startswith("cycle,watts")

    def test_run_trace_refuses_baseline(self, capsys):
        code = main(["run", "--trace", "x.jsonl", "--baseline"])
        assert code == 2
        assert "--trace" in capsys.readouterr().err

    def test_run_command_quick(self, capsys):
        code = main(["run", "--scale", "smoke", "--rate", "0.1",
                     "--cycles", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relative power" in out

    def test_run_profile_reports_control_counters(self, capsys):
        code = main(["run", "--scale", "smoke", "--rate", "0.1",
                     "--cycles", "1500", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worm streams:" in out and "power control:" in out
        for name in ("transition_events", "completions_on_read",
                     "link_windows_evaluated", "link_windows_parked"):
            assert name in out

    def test_run_with_baseline(self, capsys):
        # Longer than the smoke scale's 1500-cycle warmup, so measured
        # latencies exist on both sides of the normalisation.
        code = main(["run", "--scale", "smoke", "--rate", "0.1",
                     "--cycles", "4000", "--baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency ratio" in out

    def test_run_hotspot_traffic(self, capsys):
        code = main(["run", "--scale", "smoke", "--traffic", "hotspot",
                     "--cycles", "1200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hot-spot" in out

    def test_run_modulator_three_levels(self, capsys):
        code = main(["run", "--scale", "smoke", "--rate", "0.1",
                     "--cycles", "1200", "--technology", "modulator",
                     "--optical-levels", "3"])
        assert code == 0
        assert "modulator" in capsys.readouterr().out

    def test_run_splash_traffic(self, capsys):
        code = main(["run", "--scale", "smoke", "--traffic", "splash",
                     "--benchmark", "radix", "--cycles", "2000"])
        assert code == 0
        assert "splash/radix" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_parser(self):
        args = build_parser().parse_args(["sweep", "window"])
        assert args.kind == "window"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "everything"])

    def test_sweep_ablation_runs(self, capsys):
        # The ablation sweep is the cheapest CLI sweep; run it at smoke
        # scale with the light load baked into run_ablation's default?
        # run_ablation(load="medium") is a few seconds per variant, so
        # run only the parser-to-table plumbing with a monkeypatched
        # harness instead.
        import repro.cli as cli
        from repro.metrics.summary import RunResult

        fake = RunResult(
            label="full", cycles=100, packets_created=10,
            packets_delivered=10, mean_latency=40.0, p95_latency=60.0,
            max_latency=80.0, relative_power=0.3, accepted_rate=0.1,
        )

        import repro.experiments.ablation as ablation_module

        original = ablation_module.run_ablation
        ablation_module.run_ablation = lambda scale, seed=1: {"full": fake}
        try:
            code = main(["sweep", "ablation", "--scale", "smoke"])
        finally:
            ablation_module.run_ablation = original
        assert code == 0
        out = capsys.readouterr().out
        assert "full" in out and "rel power" in out
