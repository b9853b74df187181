"""Figure 5 harnesses: uniform random traffic sweeps.

* (a)(b)(c) — latency / power / power-latency product versus the policy's
  sampling window size ``Tw`` at light, medium and heavy load;
* (d)(e)(f) — the same metrics versus the average link-utilisation
  threshold with TH - TL fixed at 0.1;
* (g) — latency versus injection rate for the non-power-aware network, the
  5-10 Gb/s and 3.3-10 Gb/s power-aware networks, and a static 3.3 Gb/s
  network;
* (h) — relative power versus injection rate for VCSEL and modulator
  systems on both ladders.

Each public function returns plain data structures (series of
(x, metric) points) so benchmarks and the report generator can render them
without re-running simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import MODULATOR, PolicyConfig, VCSEL
from repro.experiments.configs import (
    ExperimentScale,
    power_config,
    reference_rates,
    static_rate_config,
    uniform_saturation_packets,
)
from repro.experiments.runner import SweepPoint, run_sweep
from repro.metrics.summary import RunResult, SweepSeries, normalise
from repro.traffic.uniform import UniformRandomTraffic

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.experiments.executor import ExecutionPlan

#: Tw values of the paper's sweep (100 .. 10000 cycles at paper scale);
#: scaled presets sweep the same 0.1x .. 10x multiples of their own
#: default window so every point still sees many windows per run.
PAPER_WINDOWS = (100, 300, 1000, 3000, 10_000)
WINDOW_MULTIPLES = (0.1, 0.3, 1.0, 3.0, 10.0)


def windows_for_scale(scale: ExperimentScale) -> tuple[int, ...]:
    """The Tw sweep values appropriate to an experiment scale."""
    return tuple(
        max(10, round(multiple * scale.policy_window_cycles))
        for multiple in WINDOW_MULTIPLES
    )

#: Average-threshold values of the Fig. 5(d-f) sweep.
DEFAULT_THRESHOLDS = (0.45, 0.50, 0.55, 0.60, 0.65)


@dataclass(frozen=True)
class UniformFactory:
    """A picklable :data:`~repro.experiments.runner.TrafficFactory` for
    uniform random load (a dataclass callable, not a closure, so sweep
    points carrying it can cross process boundaries)."""

    rate: float
    packet_size: int = 5

    def __call__(self, num_nodes: int, seed: int) -> UniformRandomTraffic:
        return UniformRandomTraffic(num_nodes, self.rate,
                                    self.packet_size, seed)


def uniform_factory(rate: float, packet_size: int = 5) -> UniformFactory:
    """A :data:`~repro.experiments.runner.TrafficFactory` for uniform load."""
    return UniformFactory(rate, packet_size)


def _baseline_points(scale: ExperimentScale, loads: dict[str, float],
                     seed: int) -> list[SweepPoint]:
    """One non-power-aware point per load (shared across sweep points)."""
    return [
        SweepPoint(label=f"baseline/{name}", scale=scale, power=None,
                   traffic_factory=uniform_factory(rate), seed=seed)
        for name, rate in loads.items()
    ]


def _policy_sweep(scale: ExperimentScale, loads: dict[str, float],
                  x_label: str, x_values, make_label, make_policy,
                  technology: str, seed: int,
                  max_workers: int | None,
                  execution: "ExecutionPlan | None" = None
                  ) -> dict[str, SweepSeries]:
    """Shared machinery of the Tw and threshold sweeps.

    Builds every (load, x) point plus the per-load baselines, dispatches
    them through :func:`~repro.experiments.runner.run_sweep` (serial or
    process-parallel — bit-identical either way) and folds the results
    into per-load :class:`~repro.metrics.summary.SweepSeries`.

    Under a degraded (non-strict) execution plan a failed point — or a
    failed per-load baseline, which anchors a whole series — leaves a gap
    in the returned series instead of aborting the sweep.
    """
    points = _baseline_points(scale, loads, seed)
    for load_name, rate in loads.items():
        for x in x_values:
            power = power_config(scale, technology=technology,
                                 policy=make_policy(x))
            points.append(SweepPoint(
                label=make_label(x, load_name), scale=scale, power=power,
                traffic_factory=uniform_factory(rate), seed=seed,
            ))
    results = run_sweep(points, max_workers=max_workers,
                        execution=execution)
    baselines = dict(zip(loads, results[:len(loads)]))
    aware_iter = iter(results[len(loads):])
    sweeps: dict[str, SweepSeries] = {}
    for load_name in loads:
        series = SweepSeries(name=load_name, x_label=x_label)
        for x in x_values:
            aware = next(aware_iter)
            baseline = baselines[load_name]
            if aware is None or baseline is None:
                continue
            series.append(x, normalise(aware, baseline))
        sweeps[load_name] = series
    return sweeps


def window_size_sweep(scale: ExperimentScale,
                      windows: tuple[int, ...] | None = None,
                      technology: str = MODULATOR,
                      seed: int = 1, *,
                      max_workers: int | None = 1,
                      execution: "ExecutionPlan | None" = None
                      ) -> dict[str, SweepSeries]:
    """Fig. 5(a)(b)(c): sweep the sampling window Tw at three loads.

    The paper runs this on the modulator-based network and notes identical
    trends for VCSELs.
    """
    windows = windows or windows_for_scale(scale)
    return _policy_sweep(
        scale, reference_rates(scale.network),
        "window_cycles", windows,
        lambda window, load: f"Tw={window}/{load}",
        lambda window: PolicyConfig(window_cycles=window),
        technology, seed, max_workers, execution,
    )


def threshold_sweep(scale: ExperimentScale,
                    averages: tuple[float, ...] = DEFAULT_THRESHOLDS,
                    technology: str = MODULATOR,
                    seed: int = 1, *,
                    max_workers: int | None = 1,
                    execution: "ExecutionPlan | None" = None
                    ) -> dict[str, SweepSeries]:
    """Fig. 5(d)(e)(f): sweep the average link-utilisation threshold.

    TH - TL stays fixed at 0.1 ("simulations show better
    power-performance"); the congested thresholds shift with the average.
    Every point keeps the scale's policy window, like every other
    experiment at that scale.
    """
    return _policy_sweep(
        scale, reference_rates(scale.network),
        "average_threshold", averages,
        lambda average, load: f"T={average}/{load}",
        lambda average: scale.default_policy().with_average_threshold(
            average),
        technology, seed, max_workers, execution,
    )


def ladder_configurations(scale: ExperimentScale) -> dict[str, object]:
    """The network variants compared in Fig. 5(g)(h).

    Returns a name -> PowerAwareConfig-or-None mapping; ``None`` is the
    non-power-aware network.
    """
    return {
        "baseline": None,
        "vcsel_5_10": power_config(scale, technology=VCSEL, min_bit_rate=5e9),
        "vcsel_3.3_10": power_config(scale, technology=VCSEL,
                                     min_bit_rate=3.3e9),
        "modulator_5_10": power_config(scale, technology=MODULATOR,
                                       min_bit_rate=5e9),
        "modulator_3.3_10": power_config(scale, technology=MODULATOR,
                                         min_bit_rate=3.3e9),
        "static_3.3": static_rate_config(scale, 3.3e9),
    }


def injection_rate_fractions() -> tuple[float, ...]:
    """Saturation fractions swept in Fig. 5(g)(h)."""
    return (0.15, 0.30, 0.45, 0.60, 0.70, 0.78, 0.88)


def injection_sweep(scale: ExperimentScale,
                    configurations: dict[str, object] | None = None,
                    fractions: tuple[float, ...] | None = None,
                    seed: int = 1, *, max_workers: int | None = 1,
                    execution: "ExecutionPlan | None" = None
                    ) -> dict[str, list[tuple[float, RunResult]]]:
    """Fig. 5(g)(h): sweep injection rate for every network variant.

    Returns, per variant, a list of (injection rate, RunResult); latency
    curves feed (g) and relative-power curves feed (h).  Under a degraded
    execution plan, failed points are dropped from their variant's curve.
    """
    configurations = configurations or ladder_configurations(scale)
    fractions = fractions or injection_rate_fractions()
    saturation = uniform_saturation_packets(scale.network)
    rates = [fraction * saturation for fraction in fractions]
    points = [
        SweepPoint(label=f"{name}@{fraction:.2f}", scale=scale, power=power,
                   traffic_factory=uniform_factory(rate), seed=seed)
        for name, power in configurations.items()
        for fraction, rate in zip(fractions, rates)
    ]
    results = iter(run_sweep(points, max_workers=max_workers,
                             execution=execution))
    curves: dict[str, list[tuple[float, RunResult]]] = {}
    for name in configurations:
        curve = []
        for rate in rates:
            result = next(results)
            if result is not None:
                curve.append((rate, result))
        curves[name] = curve
    return curves


def throughput_of_curve(points: list[tuple[float, RunResult]],
                        zero_load_latency: float) -> float:
    """Saturation throughput per the paper's 2x-zero-load criterion.

    Works on an already-computed injection sweep: returns the highest
    swept rate whose latency stays below twice the zero-load latency
    (0.0 if even the lightest point exceeds it).
    """
    threshold = 2.0 * zero_load_latency
    best = 0.0
    for rate, result in points:
        latency = result.mean_latency
        if latency == latency and latency <= threshold:
            best = max(best, rate)
    return best
