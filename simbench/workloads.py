"""The benchmark's workloads.

Each workload is a batch job: a fixed amount of simulated work built from
the run's seed, executed serially in this process through the simulator's
public harness functions, and checked after every repetition.  A
repetition returns a :class:`Rep`; one run or sweep point is one
operation, and an operation whose check fails counts as failed.

Run cost must not depend on the seed, or runs with different seeds would
spread for reasons that have nothing to do with the code under test.
The long ``uniform_heavy`` run draws tens of thousands of packets, so its
volume is steady by itself.  The SPLASH-like traces draw a few dozen
geometric bursts per benchmark: between trace seeds their flit volume
varies by ~20% and their drained length by ~8%, and host time follows
the volume (~37 us per flit on a 2-CPU x86 host, with almost nothing per
idle cycle) while ``sim_cycles_per_s`` also follows the length.  So
``splash_trace`` keeps the most typical of ``SPLASH_CANDIDATES``
seed-derived trace seeds (see :func:`splash_trace_seed`), and
``figure_sweep``, whose short points replay one uniform stream per load,
the most typical of ``SWEEP_CANDIDATES`` sweep seeds (see
:func:`sweep_seed`).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.experiments import faultsweep, fig5, fig7, runner, warm
from repro.experiments.configs import (
    ExperimentScale,
    get_scale,
    power_config,
    reference_rates,
)
from repro.experiments.executor import ExecutionPlan
from repro.experiments.table3 import shape_check
from repro.metrics.io import result_to_dict
from repro.traffic.splash import (
    BENCHMARKS,
    CONTROL_FLITS,
    DATA_FLITS,
    DATA_FRACTION,
    envelope_for,
    generate_splash_trace,
)
from repro.traffic.trace import TraceRecord

#: Opens a named span around a call into a layer (a no-op when untraced).
SpanFactory = Callable[[str], AbstractContextManager]

#: All three workloads run on the smoke-scale 4x4 mesh of 8-node racks.
SMOKE = get_scale("smoke")

#: Seed-derived trace seeds the most typical one is chosen from.
SPLASH_CANDIDATES = 64
#: Source send rate (flits/cycle) whose queue-drain estimate best tracks
#: the power-aware run's drained length: correlation 0.98 over 30 trace
#: seeds, against 0.85 at the full rate, as its links idle at low rates.
AWARE_DRAIN_RATE = 0.4
#: Median, over 600 trace seeds, of a trace seed's drained-length estimate
#: summed over the three benchmarks at both rates (smoke scale).  With the
#: analytic flit volume it is the target the chosen trace seed matches.
TYPICAL_DRAIN_LENGTH = 83_300

#: Cycles of the single ``uniform_heavy`` run.
HEAVY_CYCLES = 12_000
#: Smallest delivered fraction a heavy run may report.
HEAVY_MIN_DELIVERED = 0.95

#: Cycles per ``figure_sweep`` point.  Short on purpose: construction,
#: reset, collection, journal commits and reliability carry these points.
SWEEP_POINT_CYCLES = 200
#: Seed-derived sweep seeds the most typical one is chosen from.
SWEEP_CANDIDATES = 32


@dataclass
class Rep:
    """What one repetition of a workload produced."""

    #: Operations attempted (runs or sweep points).
    operations: int
    #: One line per failed operation.
    failures: list[str] = field(default_factory=list)
    #: Simulated router cycles of every returned result.
    sim_cycles: int = 0
    #: Runs or sweep points returned.
    points: int = 0
    #: Canonical simulated statistics of every returned result.
    stats: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        """SHA-256 of the simulated statistics (identical for equal work)."""
        text = json.dumps(self.stats, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """A workload's inputs plus the job that runs them."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        #: Sweep journal, emptied before every repetition.
        self.journal = out_dir / f"journal-{os.getpid()}.sqlite"

    def run_once(self, span: SpanFactory) -> Rep:
        raise NotImplementedError

    @property
    def operations(self) -> int:
        """Operations one repetition attempts (charged in full on a raise)."""
        raise NotImplementedError

    def fresh_plan(self) -> ExecutionPlan:
        """A degraded-mode plan on an empty journal: a failed point comes
        back as a gap, which the workload's check counts."""
        self.close()
        return ExecutionPlan(journal=self.journal)

    def close(self) -> None:
        """Remove the journal the workload left in the checkout."""
        for suffix in ("", "-journal"):
            Path(f"{self.journal}{suffix}").unlink(missing_ok=True)


def drain_estimate(records: list[TraceRecord], flits_per_cycle: float) -> float:
    """The cycle by which every source's queue would have drained, if each
    source sent ``flits_per_cycle``.  At 1.0 this tracks the full-power
    run's drained length to within one 512-cycle drain poll; at
    ``AWARE_DRAIN_RATE`` it tracks the power-aware run's."""
    free_at: dict[int, float] = {}
    for record in records:
        free_at[record.src] = (max(free_at.get(record.src, 0), record.cycle)
                               + record.size / flits_per_cycle)
    return max(free_at.values(), default=0.0)


def splash_trace_seed(seed: int) -> int:
    """The one of the seed's candidate trace seeds whose flit volume and
    drained-length estimate come closest to a typical trace seed's."""
    factories = [fig7.splash_factory(name, SMOKE) for name in BENCHMARKS]
    mean_flits = DATA_FRACTION * DATA_FLITS + (1 - DATA_FRACTION) * CONTROL_FLITS
    expected_flits = sum(
        mean_flits * float(envelope_for(f.benchmark, f.span, f.intensity).sum())
        for f in factories
    )

    def distance(trace_seed: int) -> float:
        traces = [generate_splash_trace(f.benchmark, f.active, f.span,
                                        seed=trace_seed, intensity=f.intensity)
                  for f in factories]
        flits = sum(r.size for trace in traces for r in trace)
        length = sum(drain_estimate(trace, 1.0)
                     + drain_estimate(trace, AWARE_DRAIN_RATE)
                     for trace in traces)
        return (abs(flits / expected_flits - 1.0)
                + abs(length / TYPICAL_DRAIN_LENGTH - 1.0))

    return min((runner.derive_seed(seed, "splash_trace", index)
                for index in range(SPLASH_CANDIDATES)), key=distance)


class SplashTrace(Workload):
    """Fig. 7 / Table 3: FFT, LU and Radix trace replay, drained."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(out_dir)
        self.trace_seed = splash_trace_seed(seed)

    @property
    def operations(self) -> int:
        return 2 * len(BENCHMARKS)

    def run_once(self, span: SpanFactory) -> Rep:
        rep = Rep(operations=self.operations)
        with span("harness:fig7.run_all_benchmarks"):
            data = fig7.run_all_benchmarks(SMOKE, seed=self.trace_seed,
                                           max_workers=1,
                                           execution=self.fresh_plan())
        rows = {str(row["trace"]): row for row in fig7.table3_rows(data)}
        for name in BENCHMARKS:
            if name not in data:
                rep.failures += [f"{name}: missing"] * 2
                continue
            pair = (data[name]["aware"], data[name]["baseline"])
            # Table 3's claims that hold at smoke length for every seed:
            # most link power saved, power-latency product improved.  Its
            # latency claims (ratio < 2.5, FFT lowest) fail for some seeds
            # at this length, so each row is checked alone and
            # latency-ratio findings are dropped.
            problems = [p for p in shape_check([rows[name.upper()]])
                        if "latency ratio" not in p]
            problems += [f"{r.label} did not drain" for r in pair
                         if r.packets_delivered != r.packets_created]
            for result in pair:
                rep.sim_cycles += result.cycles
                rep.points += 1
                rep.stats.append(result_to_dict(result))
                if problems:
                    rep.failures.append(
                        f"{result.label}: {'; '.join(problems)}")
        return rep


class UniformHeavy(Workload):
    """One long power-aware run at 0.65 of uniform saturation."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(out_dir)
        self.seed = runner.derive_seed(seed, "uniform_heavy")
        self.power = power_config(SMOKE)
        self.factory = fig5.uniform_factory(
            reference_rates(SMOKE.network)["heavy"])

    @property
    def operations(self) -> int:
        return 1

    def run_once(self, span: SpanFactory) -> Rep:
        rep = Rep(operations=1)
        with span("point:uniform_heavy"):
            sim = runner.build_simulator(
                SMOKE.network, self.power, self.factory, seed=self.seed,
                warmup_cycles=SMOKE.warmup_cycles,
                sample_interval=SMOKE.sample_interval)
            sim.run(HEAVY_CYCLES)
            result = runner.collect_result(sim, "uniform_heavy")
        rep.sim_cycles = result.cycles
        rep.points = 1
        rep.stats.append(result_to_dict(result))
        if not result.delivery_fraction >= HEAVY_MIN_DELIVERED:
            rep.failures.append(
                f"delivered fraction {result.delivery_fraction:.4f} "
                f"< {HEAVY_MIN_DELIVERED}")
        if not 0.0 < result.relative_power < 1.0:
            rep.failures.append(
                f"relative power {result.relative_power!r} outside (0, 1)")
        return rep


def sweep_seed(seed: int, scale: ExperimentScale) -> int:
    """The one of the seed's candidate sweep seeds whose uniform traffic
    comes closest to the expected packet count at every load.

    Every point of a load replays the same stream (the margin points the
    light one), so one stream's Poisson draw of a 200-cycle point, ~5-9%
    at one standard deviation, would move the whole sweep's cost.
    """
    rates = reference_rates(scale.network).values()

    def distance(candidate: int) -> float:
        total = 0.0
        for rate in rates:
            source = fig5.uniform_factory(rate)(scale.network.num_nodes,
                                                candidate)
            packets = sum(len(source.generate(now))
                          for now in range(scale.run_cycles))
            total += abs(packets / (rate * scale.run_cycles) - 1.0)
        return total

    return min((runner.derive_seed(seed, "figure_sweep", index)
                for index in range(SWEEP_CANDIDATES)), key=distance)


class FigureSweep(Workload):
    """Fig. 5 window and threshold sweeps plus the receiver-margin sweep,
    serial, warm, sharing one journal that starts empty."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(out_dir)
        self.scale = replace(SMOKE, name="sweep",
                             run_cycles=SWEEP_POINT_CYCLES,
                             warmup_cycles=SWEEP_POINT_CYCLES // 5)
        self.seed = sweep_seed(seed, self.scale)
        self.loads = tuple(reference_rates(self.scale.network))
        self.windows = fig5.windows_for_scale(self.scale)
        self.thresholds = fig5.DEFAULT_THRESHOLDS
        self.received = faultsweep.DEFAULT_RECEIVED_POWERS_UW

    @property
    def operations(self) -> int:
        per_load = len(self.windows) + len(self.thresholds) + 2
        return len(self.loads) * per_load + len(self.received)

    def run_once(self, span: SpanFactory) -> Rep:
        plan = self.fresh_plan()
        rep = Rep(operations=self.operations)
        with span("harness:fig5.window_size_sweep"):
            window = fig5.window_size_sweep(
                self.scale, windows=self.windows, seed=self.seed,
                max_workers=1, execution=plan)
        with span("harness:fig5.threshold_sweep"):
            threshold = fig5.threshold_sweep(
                self.scale, averages=self.thresholds, seed=self.seed,
                max_workers=1, execution=plan)
        with span("harness:faultsweep.run_margin_sweep"):
            margin = faultsweep.run_margin_sweep(
                self.scale, seed=self.seed, received_powers_uw=self.received,
                max_workers=1, execution=plan)
        for sweep, xs in ((window, self.windows),
                          (threshold, self.thresholds)):
            for load in self.loads:
                series = sweep.get(load)
                got = list(series.x_values) if series is not None else []
                # The per-load baseline anchors the series: it returned
                # iff any point of the series did.
                returned = len(got) + (1 if got else 0)
                rep.failures += [f"{load}: sweep point missing"] * (
                    len(xs) + 1 - returned)
                rep.points += returned
                rep.sim_cycles += returned * self.scale.run_cycles
                rep.stats.append({"load": load, "x": got, "results": [
                    asdict(r) for r in series.results] if series else []})
        rep.failures += ["margin point missing"] * (
            len(self.received) - len(margin))
        previous = None
        for rx_uw, result in margin:
            rep.points += 1
            rep.sim_cycles += result.cycles
            rep.stats.append(result_to_dict(result))
            goodput = result.reliability.effective_goodput
            if previous is not None and goodput > previous:
                rep.failures.append(
                    f"goodput rose to {goodput:.6f} at {rx_uw:g} uW")
            previous = goodput
        return rep


#: Workload name -> class; each is built from (seed, out_dir).
WORKLOADS = {
    "splash_trace": SplashTrace,
    "uniform_heavy": UniformHeavy,
    "figure_sweep": FigureSweep,
}


def build(name: str, seed: int, *, out_dir: Path) -> Workload:
    """Build a workload's inputs from the run's seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {tuple(WORKLOADS)}")
    return WORKLOADS[name](seed, out_dir)


def prepare() -> None:
    """Start a repetition the way a fresh sweep process starts: with an
    empty warm-worker cache (construction memos below it stay warm)."""
    warm.clear_cache()

