"""Experiment runner: build, run and summarise simulations.

Every figure/table harness funnels through :func:`run_simulation` (one
configured run -> :class:`~repro.metrics.summary.RunResult`) and
:func:`run_pair` (power-aware + matched non-power-aware baseline ->
:class:`~repro.metrics.summary.NormalisedResult`), so normalisation is
applied uniformly and deterministically (same traffic seed on both sides).

Sweeps go through :class:`SweepPoint` + :func:`run_sweep`: each point is a
frozen, picklable description of one run carrying its own explicit seed,
so a sweep executed across a process pool is bit-identical, point for
point, to the same sweep executed serially — parallelism only reorders
wall-clock, never results.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import (
    NetworkConfig,
    PowerAwareConfig,
    SimulationConfig,
)
from repro.errors import ConfigError
from repro.experiments import chaos
from repro.experiments.configs import ExperimentScale
from repro.metrics.summary import NormalisedResult, RunResult, normalise
from repro.network.simulator import Simulator
from repro.reliability.config import FaultConfig
from repro.telemetry.config import TelemetryConfig
from repro.traffic.base import TrafficSource

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.experiments.executor import ExecutionPlan

#: Builds a fresh traffic source: (num_nodes, seed) -> source.  Sources are
#: stateful, so every run needs its own instance.  Factories handed to
#: :func:`run_sweep` must be picklable (the figure harnesses use frozen
#: dataclass callables, not closures).
TrafficFactory = Callable[[int, int], TrafficSource]


def build_simulator(network: NetworkConfig,
                    power: PowerAwareConfig | None,
                    traffic_factory: TrafficFactory,
                    *, seed: int, warmup_cycles: int,
                    sample_interval: int,
                    faults: FaultConfig | None = None,
                    validate: bool = False,
                    telemetry: TelemetryConfig | None = None) -> Simulator:
    """Construct a ready-to-run simulator."""
    config = SimulationConfig(
        network=network,
        power=power,
        seed=seed,
        warmup_cycles=warmup_cycles,
        sample_interval=sample_interval,
        faults=faults,
        validate_topology=validate,
        telemetry=telemetry,
    )
    traffic = traffic_factory(network.num_nodes, seed)
    return Simulator(config, traffic)


def collect_result(sim: Simulator, label: str) -> RunResult:
    """Freeze a finished simulator's metrics into a :class:`RunResult`."""
    sim.finalize()
    cycles = max(1, sim.cycle)
    stats = sim.stats
    power = sim.power
    return RunResult(
        label=label,
        cycles=cycles,
        packets_created=stats.packets_created,
        packets_delivered=stats.packets_delivered,
        mean_latency=stats.mean_latency,
        p95_latency=stats.latency_percentile(0.95),
        max_latency=stats.latency_max,
        relative_power=sim.relative_power(),
        accepted_rate=stats.accepted_rate(cycles),
        transitions_up=(power.transition_totals()["up"] if power else 0),
        transitions_down=(power.transition_totals()["down"] if power else 0),
        power_series=tuple(power.power_series) if power else (),
        injection_series=tuple(stats.injection_series()),
        level_histogram=tuple(power.level_histogram()) if power else (),
        reliability=(sim.reliability.report()
                     if sim.reliability is not None else None),
    )


def run_simulation(scale: ExperimentScale,
                   power: PowerAwareConfig | None,
                   traffic_factory: TrafficFactory,
                   *, label: str, seed: int = 1,
                   cycles: int | None = None,
                   drain: bool = False,
                   faults: FaultConfig | None = None,
                   validate: bool = False,
                   telemetry: TelemetryConfig | None = None) -> RunResult:
    """One configured run at an experiment scale."""
    sim = build_simulator(
        scale.network, power, traffic_factory,
        seed=seed, warmup_cycles=scale.warmup_cycles,
        sample_interval=scale.sample_interval,
        faults=faults, validate=validate, telemetry=telemetry,
    )
    budget = cycles if cycles is not None else scale.run_cycles
    try:
        if drain:
            sim.run_until_drained(budget)
        else:
            sim.run(budget)
        return collect_result(sim, label)
    finally:
        # Telemetry sinks buffer; close them even when the run (or result
        # collection) raises, or a failing sweep point leaks file handles
        # and truncates the trace that would explain the failure.
        if sim.telemetry is not None:
            sim.telemetry.close()


def run_pair(scale: ExperimentScale, power: PowerAwareConfig,
             traffic_factory: TrafficFactory, *, label: str, seed: int = 1,
             cycles: int | None = None, drain: bool = False,
             faults: FaultConfig | None = None
             ) -> tuple[RunResult, RunResult, NormalisedResult]:
    """A power-aware run plus its matched non-power-aware baseline.

    Both runs use the same traffic seed, so they see the identical packet
    stream; the normalised result is therefore a pure policy effect.  A
    fault config applies to *both* sides, so the comparison stays a policy
    effect under the same fault environment.

    The two sides also share the per-process immutable construction
    artifacts (topology instance, pristine route tables, operating-point
    table) through the memos :mod:`repro.experiments.warm` relies on —
    results are bit-identical to fully cold construction, regression-
    tested against a pristine subprocess in
    ``tests/unit/experiments/test_warm.py``.
    """
    aware = run_simulation(
        scale, power, traffic_factory,
        label=label, seed=seed, cycles=cycles, drain=drain, faults=faults,
    )
    baseline = run_simulation(
        scale, None, traffic_factory,
        label=f"{label}/baseline", seed=seed, cycles=cycles, drain=drain,
        faults=faults,
    )
    return aware, baseline, normalise(aware, baseline)


# -- sweeps ------------------------------------------------------------------


def derive_seed(base: int, *components: object) -> int:
    """A stable per-point seed from a base seed and identifying components.

    Hash-based (sha256), so the seed of one sweep point depends only on
    its own identity — never on how many other points the sweep has or in
    what order they run.  Use for new sweeps whose points need distinct
    streams; the figure harnesses keep their historical seed-sharing so
    published outputs are unchanged.
    """
    if base < 0:
        raise ConfigError(f"base seed must be >= 0, got {base!r}")
    payload = ":".join([str(base), *(str(c) for c in components)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**32)


@dataclass(frozen=True)
class SweepPoint:
    """One run of a sweep: a self-contained, picklable work item.

    The explicit per-point ``seed`` is what makes parallel execution
    trivially deterministic — no RNG state is shared between points.
    """

    label: str
    scale: ExperimentScale
    power: PowerAwareConfig | None
    traffic_factory: TrafficFactory
    seed: int
    cycles: int | None = None
    drain: bool = False
    faults: FaultConfig | None = None


def run_point(point: SweepPoint, attempt: int = 1) -> RunResult:
    """Execute one sweep point (module-level, so process pools can map it).

    ``attempt`` is threaded in by the resilient executor so the chaos
    harness can sabotage specific attempts; direct callers can ignore it.
    """
    chaos.maybe_inject(point.label, attempt)
    return run_simulation(
        point.scale, point.power, point.traffic_factory,
        label=point.label, seed=point.seed,
        cycles=point.cycles, drain=point.drain, faults=point.faults,
    )


def run_sweep(points: Iterable[SweepPoint], *,
              max_workers: int | None = 1,
              execution: "ExecutionPlan | None" = None
              ) -> list[RunResult | None]:
    """Run every point, returning results in point order.

    ``max_workers=1`` (the default) runs in-process; ``None`` uses one
    worker per CPU; any other value caps the pool size.  Because every
    point carries its own seed and runs in a fresh simulator, the results
    are bit-identical whatever ``max_workers`` is — parallelism is purely
    a wall-clock optimisation.

    All execution goes through :mod:`repro.experiments.executor` futures,
    so one worker's crash or exception never discards sibling results.
    Without an ``execution`` plan, behaviour is the historical fail-fast:
    no journal, no retries, and the first failing point's exception is
    re-raised (a :class:`~repro.errors.ConfigError` is re-raised with the
    offending point's label prepended).  Pass an
    :class:`~repro.experiments.executor.ExecutionPlan` for journaling,
    timeouts, retries, or degraded completion — under a degraded
    (non-strict) plan, failed points come back as ``None`` entries.
    """
    from repro.experiments.executor import ExecutionPlan, execute_sweep

    if max_workers is not None and max_workers < 1:
        raise ConfigError(
            f"max_workers must be >= 1 or None, got {max_workers!r}"
        )
    plan = execution if execution is not None else ExecutionPlan(strict=True)
    outcome = execute_sweep(points, max_workers=max_workers, plan=plan)
    return outcome.results


def run_pairs(points: Sequence[SweepPoint], *, max_workers: int | None = 1,
              execution: "ExecutionPlan | None" = None
              ) -> list[tuple[RunResult, RunResult, NormalisedResult] | None]:
    """Run (power-aware, baseline) pairs built with :func:`pair_points`.

    ``points`` must alternate aware/baseline, as :func:`pair_points`
    produces; the whole flat list is dispatched through :func:`run_sweep`
    so pairs from different pairs interleave across workers.  Under a
    degraded execution plan a pair with either side missing becomes a
    ``None`` entry (a normalised ratio against a failed run would be
    meaningless).
    """
    if len(points) % 2:
        raise ConfigError("run_pairs needs an even number of points")
    results = run_sweep(points, max_workers=max_workers,
                        execution=execution)
    pairs: list[tuple[RunResult, RunResult, NormalisedResult] | None] = []
    for aware, baseline in zip(results[::2], results[1::2]):
        if aware is None or baseline is None:
            pairs.append(None)
        else:
            pairs.append((aware, baseline, normalise(aware, baseline)))
    return pairs


def pair_points(scale: ExperimentScale, power: PowerAwareConfig,
                traffic_factory: TrafficFactory, *, label: str,
                seed: int = 1, cycles: int | None = None,
                drain: bool = False) -> tuple[SweepPoint, SweepPoint]:
    """The (power-aware, baseline) point pair matching :func:`run_pair`."""
    aware = SweepPoint(label=label, scale=scale, power=power,
                       traffic_factory=traffic_factory, seed=seed,
                       cycles=cycles, drain=drain)
    baseline = SweepPoint(label=f"{label}/baseline", scale=scale, power=None,
                          traffic_factory=traffic_factory, seed=seed,
                          cycles=cycles, drain=drain)
    return aware, baseline
