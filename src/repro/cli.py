"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Simulate one configuration and print the summary (optionally next to
    the non-power-aware baseline).
``table2``
    Print the link component power budget and the paper cross-check.
``trace``
    Synthesise a SPLASH2-like traffic trace to a file.
``sweep``
    Run a Fig. 5 or fault-margin sweep through the resilient executor.
``report``
    Regenerate EXPERIMENTS.md (delegates to
    :mod:`repro.experiments.report`).
"""

from __future__ import annotations

import argparse
import sys

from repro.config import MODULATOR, VCSEL
from repro.errors import ConfigError
from repro.experiments.configs import get_scale, power_config, reference_rates
from repro.experiments.fig5 import uniform_factory
from repro.experiments.fig6 import hotspot_factory
from repro.units import gbps
from repro.experiments.runner import run_pair, run_simulation
from repro.metrics.ascii import format_table, sparkline


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="simulate one configuration and print the summary")
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "bench", "paper"])
    parser.add_argument("--traffic", default="uniform",
                        choices=["uniform", "hotspot", "splash"])
    parser.add_argument("--rate", type=float, default=None,
                        help="packets/cycle for uniform traffic "
                             "(default: the scale's 'light' reference)")
    parser.add_argument("--benchmark", default="fft",
                        choices=["fft", "lu", "radix"],
                        help="trace for --traffic splash")
    parser.add_argument("--technology", default=VCSEL,
                        choices=[VCSEL, MODULATOR])
    parser.add_argument("--optical-levels", type=int, default=1,
                        choices=[1, 3])
    parser.add_argument("--min-rate-gbps", type=float, default=5.0)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", action="store_true",
                        help="also run the non-power-aware network and "
                             "print normalised ratios")
    parser.add_argument("--profile", action="store_true",
                        help="print per-phase wall-time attribution after "
                             "the run (not combinable with --baseline)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="enable fault injection, e.g. "
                             "'rx_uw=13,retries=8,fail=16@2000' "
                             "(see docs/reliability.md)")
    parser.add_argument("--validate", action="store_true",
                        help="validate the wired topology before running")
    parser.add_argument("--trace", default=None, metavar="OUT.JSONL",
                        help="record a run trace to a JSONL file "
                             "(see docs/telemetry.md; not combinable "
                             "with --baseline)")
    parser.add_argument("--trace-kinds", default="all", metavar="K[,K...]",
                        help="event kinds to record (default: all); see "
                             "docs/telemetry.md for the schema")
    parser.add_argument("--trace-links", default=None, metavar="ID[,ID...]",
                        help="record only these link ids "
                             "(default: every link)")
    parser.add_argument("--trace-sample-every", type=int, default=1,
                        metavar="N",
                        help="record every Nth delivered packet "
                             "(default: 1 = all)")


def _add_trace_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace", help="traffic-trace synthesis and run-trace utilities")
    commands = parser.add_subparsers(dest="trace_command", required=True)

    synth = commands.add_parser(
        "synth", help="synthesise a SPLASH2-like traffic trace file")
    synth.add_argument("benchmark", choices=["fft", "lu", "radix"])
    synth.add_argument("--nodes", type=int, default=64)
    synth.add_argument("--duration", type=int, default=100_000)
    synth.add_argument("--intensity", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=1)
    synth.add_argument("--out", default=None,
                       help="output path (default: <benchmark>.trace)")

    convert = commands.add_parser(
        "convert", help="convert a run trace (JSONL) for other tools")
    convert.add_argument("input", help="JSONL trace from 'repro run --trace'")
    convert.add_argument("--format", default="chrome",
                         choices=["chrome", "csv"],
                         help="chrome = Perfetto-loadable trace-event "
                              "JSON; csv = one kind as a time series")
    convert.add_argument("--kind", default="power",
                         help="event kind for --format csv "
                              "(default: power)")
    convert.add_argument("--out", default=None,
                         help="output path (default: input + "
                              "'.json'/'.csv')")

    summarize = commands.add_parser(
        "summarize", help="print per-kind counts and spans of a run trace")
    summarize.add_argument("input",
                           help="JSONL trace from 'repro run --trace'")


def _add_sweep_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "sweep", help="run one of the Fig. 5 design-space sweeps")
    parser.add_argument("kind",
                        choices=["window", "threshold", "ablation", "faults"])
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "bench", "paper"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep points "
                             "(0 = one per CPU; results are identical "
                             "whatever the job count)")
    parser.add_argument("--journal", default=None, metavar="DB",
                        help="journal completed points to this SQLite file "
                             "so an interrupted sweep can resume "
                             "bit-identically (see docs/execution.md)")
    parser.add_argument("--resume", action="store_true",
                        help="require --journal to already exist and load "
                             "its completed points instead of re-running")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast on the first failed point "
                             "instead of reporting partial results")
    parser.add_argument("--exec-trace", default=None, metavar="OUT.JSONL",
                        help="record executor lifecycle events (point "
                             "done/cached/failed, crashes) to a "
                             "JSONL trace file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware opto-electronic networked systems "
                    "(HPCA-11 2005 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    subparsers.add_parser("table2", help="print the Table 2 power budget")
    _add_trace_parser(subparsers)
    _add_sweep_parser(subparsers)
    report = subparsers.add_parser(
        "report", help="regenerate EXPERIMENTS.md (slow)")
    report.add_argument("--scale", default="bench",
                        choices=["smoke", "bench", "paper"])
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.add_argument("--seed", type=int, default=1)
    return parser


def _command_run(args) -> int:
    if args.profile and args.baseline:
        print("error: --profile cannot be combined with --baseline",
              file=sys.stderr)
        return 2
    if args.trace is not None and args.baseline:
        print("error: --trace cannot be combined with --baseline "
              "(a single trace file cannot hold two runs)",
              file=sys.stderr)
        return 2
    scale = get_scale(args.scale)
    if args.traffic == "uniform":
        rate = args.rate if args.rate is not None else \
            reference_rates(scale.network)["light"]
        factory = uniform_factory(rate)
        workload = f"uniform @ {rate:.2f} pkt/cyc"
    elif args.traffic == "hotspot":
        factory = hotspot_factory(scale)
        workload = "time-varying hot-spot"
    else:
        from repro.experiments.fig7 import splash_factory

        factory = splash_factory(args.benchmark, scale)
        workload = f"splash/{args.benchmark} trace"
    power = power_config(
        scale, technology=args.technology,
        min_bit_rate=gbps(args.min_rate_gbps),
        optical_levels=args.optical_levels,
    )
    faults = None
    if args.faults is not None:
        from repro.reliability.config import parse_fault_spec

        faults = parse_fault_spec(args.faults)
    telemetry = None
    if args.trace is not None:
        from repro.telemetry.config import TelemetryConfig, parse_kinds

        link_ids = None
        if args.trace_links is not None:
            link_ids = tuple(
                int(part) for part in args.trace_links.split(",") if part
            )
        telemetry = TelemetryConfig(
            kinds=parse_kinds(args.trace_kinds),
            link_ids=link_ids,
            packet_sample_every=args.trace_sample_every,
            path=args.trace,
        )
    print(f"{workload} on {scale.network.mesh_width}x"
          f"{scale.network.mesh_height}x{scale.network.nodes_per_cluster} "
          f"mesh, {args.technology} links ...")
    if args.baseline:
        aware, baseline, normalised = run_pair(
            scale, power, factory, label="cli", seed=args.seed,
            cycles=args.cycles, faults=faults)
        rows = [
            ["mean latency (cyc)", f"{baseline.mean_latency:.1f}",
             f"{aware.mean_latency:.1f}"],
            ["relative power", f"{baseline.relative_power:.3f}",
             f"{aware.relative_power:.3f}"],
            ["packets delivered", baseline.packets_delivered,
             aware.packets_delivered],
        ]
        print(format_table(["metric", "baseline", "power-aware"], rows))
        print(f"\nlatency ratio {normalised.latency_ratio:.2f}, "
              f"power ratio {normalised.power_ratio:.2f}, "
              f"PLP {normalised.power_latency_product:.2f}")
    elif args.profile:
        from repro.engine import PhaseProfiler
        from repro.experiments.runner import build_simulator, collect_result

        sim = build_simulator(
            scale.network, power, factory, seed=args.seed,
            warmup_cycles=scale.warmup_cycles,
            sample_interval=scale.sample_interval,
            faults=faults, validate=args.validate, telemetry=telemetry,
        )
        profiler = PhaseProfiler().attach(sim.hooks)
        try:
            sim.run(args.cycles if args.cycles is not None
                    else scale.run_cycles)
            _print_result(collect_result(sim, "cli"))
        finally:
            # Close the sink even when the run raises, mirroring
            # run_simulation: an unclosed JSONL sink truncates the trace.
            if sim.telemetry is not None:
                sim.telemetry.close()
        print("\nwall-time by phase:")
        print(profiler.report())
        print("\nworm streams:")
        for name, value in sim.stream_counters().items():
            print(f"  {name:<22} {value}")
        control = sim.control_counters()
        if control:
            print("\npower control:")
            for name, value in control.items():
                print(f"  {name:<22} {value}")
    else:
        result = run_simulation(scale, power, factory, label="cli",
                                seed=args.seed, cycles=args.cycles,
                                faults=faults, validate=args.validate,
                                telemetry=telemetry)
        _print_result(result)
    if args.trace is not None:
        print(f"\ntrace written to {args.trace}")
    return 0


def _print_result(result) -> None:
    """Print one run's summary table and power sparkline."""
    rows = [[key, value] for key, value in (
        ("cycles", result.cycles),
        ("packets delivered", result.packets_delivered),
        ("mean latency (cyc)", f"{result.mean_latency:.1f}"),
        ("p95 latency (cyc)", f"{result.p95_latency:.1f}"),
        ("relative power", f"{result.relative_power:.3f}"),
        ("transitions up/down",
         f"{result.transitions_up}/{result.transitions_down}"),
    )]
    print(format_table(["metric", "value"], rows))
    if result.reliability is not None:
        from repro.metrics.reliability import format_reliability

        print("\nreliability:")
        print(format_table(["metric", "value"],
                           format_reliability(result.reliability)))
    if result.power_series:
        print("\nrelative power over time:")
        baseline_watts = result.power_series[0][1]
        series = [w / baseline_watts for _, w in result.power_series]
        print("  " + sparkline(series))


def _command_table2() -> int:
    from repro.experiments.table2 import (
        link_totals,
        trend_model_rows,
        verify_against_paper,
    )

    rows = [[r["component"], r["power_mw"], r["trend"]]
            for r in trend_model_rows()]
    print(format_table(["component", "power @10G (mW)", "trend"], rows))
    totals = link_totals()
    print(f"\nVCSEL link: {totals['vcsel_at_10g_mw']:.0f} mW @10G -> "
          f"{totals['vcsel_at_5g_mw']:.0f} mW @5G "
          f"({100 * totals['vcsel_savings_at_5g']:.0f}% saving)")
    problems = verify_against_paper()
    print("paper cross-check:", "OK" if not problems else problems)
    return 0 if not problems else 1


def _command_trace(args) -> int:
    if args.trace_command == "synth":
        from repro.traffic.splash import generate_splash_trace, mean_packet_size
        from repro.traffic.trace import write_trace_file

        records = generate_splash_trace(
            args.benchmark, args.nodes, args.duration,
            seed=args.seed, intensity=args.intensity,
        )
        out = args.out or f"{args.benchmark}.trace"
        count = write_trace_file(records, out)
        print(f"wrote {count} records to {out} "
              f"(mean packet {mean_packet_size(records):.1f} flits)")
        return 0
    if args.trace_command == "convert":
        from repro.telemetry.export import iter_trace, to_csv, \
            write_chrome_trace

        if args.format == "chrome":
            out = args.out or f"{args.input}.json"
            count = write_chrome_trace(iter_trace(args.input), out)
            print(f"wrote {count} trace events to {out} "
                  f"(open at https://ui.perfetto.dev)")
        else:
            out = args.out or f"{args.input}.{args.kind}.csv"
            count = to_csv(iter_trace(args.input), args.kind, out)
            print(f"wrote {count} {args.kind} rows to {out}")
        return 0
    if args.trace_command == "summarize":
        from repro.telemetry.export import iter_trace, summarize_trace

        summary = summarize_trace(iter_trace(args.input))
        rows = [["events", summary["events"]],
                ["first cycle", summary["first_cycle"]],
                ["last cycle", summary["last_cycle"]],
                ["links seen", summary["links_seen"]]]
        for kind, count in sorted(summary["counts"].items()):
            rows.append([f"  {kind}", count])
        for key in ("power_min_w", "power_mean_w", "power_max_w",
                    "packet_mean_latency"):
            if key in summary:
                rows.append([key, f"{summary[key]:.3f}"])
        print(format_table(["metric", "value"], rows))
        power_series = [
            record["watts"] for record in iter_trace(args.input)
            if record.get("kind") == "power"
        ]
        if power_series:
            print("\npower over time:")
            print("  " + sparkline(power_series))
        return 0
    raise AssertionError(
        f"unhandled trace command {args.trace_command!r}")


def _execution_plan(args):
    """The :class:`ExecutionPlan` the sweep flags describe, or ``None``
    when no execution flag was given (the historical fail-fast path)."""
    if (args.journal is None and not args.resume and not args.strict
            and args.exec_trace is None):
        return None
    from repro.experiments.executor import ExecutionPlan

    return ExecutionPlan(
        journal=args.journal, resume=args.resume, strict=args.strict,
        trace_path=args.exec_trace,
    )


def _print_journal_report(journal_path) -> None:
    """Summarise what the journal holds after a (possibly partial) sweep."""
    from repro.experiments.journal import SweepJournal

    with SweepJournal(journal_path) as journal:
        counts = journal.counts()
        failures = journal.failures()
    done = counts.get("done", 0)
    failed = counts.get("failed", 0)
    print(f"\njournal {journal_path}: {done} point(s) done, "
          f"{failed} failed")
    for failure in failures:
        print(f"  FAILED {failure['label']} in {failure['elapsed']:.1f}s — "
              f"{failure['error']}")


def _command_sweep(args) -> int:
    scale = get_scale(args.scale)
    if args.jobs < 0:
        print(f"error: --jobs must be >= 0, got {args.jobs}",
              file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs > 0 else None
    plan = _execution_plan(args)
    if args.kind == "ablation":
        from repro.experiments.ablation import ablation_table, run_ablation

        if plan is not None:
            print("note: the ablation sweep runs through its own harness; "
                  "the execution flags are ignored", file=sys.stderr)
        print(ablation_table(run_ablation(scale, seed=args.seed)))
        return 0
    if args.kind == "faults":
        from repro.experiments.faultsweep import (
            margin_sweep_table,
            run_margin_sweep,
        )

        results = run_margin_sweep(scale, seed=args.seed, max_workers=jobs,
                                   execution=plan)
        print(margin_sweep_table(results))
    else:
        from repro.experiments import fig5

        if args.kind == "window":
            sweeps = fig5.window_size_sweep(scale, seed=args.seed,
                                            max_workers=jobs,
                                            execution=plan)
            x_label = "Tw"
        else:
            sweeps = fig5.threshold_sweep(scale, seed=args.seed,
                                          max_workers=jobs, execution=plan)
            x_label = "avg threshold"
        for load, series in sweeps.items():
            print(f"\nload: {load}")
            rows = [
                [x, f"{r.latency_ratio:.2f}", f"{r.power_ratio:.3f}",
                 f"{r.power_latency_product:.3f}"]
                for x, r in zip(series.x_values, series.results)
            ]
            print(format_table([x_label, "latency x", "power x", "PLP"],
                               rows))
    if plan is not None and plan.journal is not None:
        _print_journal_report(plan.journal)
    if plan is not None and plan.trace_path is not None:
        print(f"\nexecutor trace written to {plan.trace_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "table2":
            return _command_table2()
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "report":
            from repro.experiments.report import main as report_main

            return report_main(["--scale", args.scale, "--out", args.out,
                                "--seed", str(args.seed)])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
