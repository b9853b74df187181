"""Persistent performance benchmarking: the ``repro bench`` trajectory.

Every perf-focused PR records a machine-readable snapshot of simulator
throughput (``BENCH_<pr>.json``) so later work has a baseline to compare
against instead of a number in a commit message.  The snapshot holds
cycles/second at three canonical injection loads, peak RSS, a per-phase
time profile, and a calibration score for the machine that produced it.

Methodology notes (learned the hard way):

- **CPU time, not wall clock.**  Wall-clock throughput on a shared or
  thermally-throttled machine swings by 2x between runs; ``process_time``
  best-of-``repeats`` is stable to a few percent.  Speedup claims between
  snapshots should only ever be made on ``cycles_per_sec_cpu``.
- **Calibration.**  ``calibrate()`` scores a fixed arithmetic loop on the
  current interpreter/machine.  Comparing two snapshots from different
  machines, normalise each throughput by its calibration score first —
  that is what :func:`compare` does.
- **Determinism is asserted, not assumed.**  Each datapoint runs the same
  configuration ``repeats`` times and requires every repeat's
  :meth:`~repro.network.simulator.Simulator.summary` to be bit-identical
  before timing is trusted.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any

from repro.config import NetworkConfig, PowerAwareConfig, SimulationConfig
from repro.errors import ConfigError

#: Canonical injection loads (network-wide packets/cycle), shared with
#: ``benchmarks/bench_simulator.py``.
RATES: dict[str, float] = {
    "light": 0.02,
    "moderate": 0.25,
    "heavy": 0.8,
}

#: Traffic seed shared with the benchmark suite.
BENCH_SEED = 3

SCHEMA_VERSION = 1


def bench_config(topology: str = "mesh") -> SimulationConfig:
    """The benchmark network: 4x4 grid, 4 nodes/cluster, power-aware."""
    network = NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=4,
                            topology=topology)
    return SimulationConfig(network=network, power=PowerAwareConfig(),
                            sample_interval=1000)


def make_bench_sim(rate: float, topology: str = "mesh"):
    """Build one benchmark simulator at ``rate`` (fresh every call)."""
    from repro.network.simulator import Simulator
    from repro.traffic.uniform import UniformRandomTraffic

    config = bench_config(topology)
    traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                   seed=BENCH_SEED)
    return Simulator(config, traffic)


def _calibration_round() -> float:
    """One timed pass of the fixed arithmetic loop (CPU seconds)."""
    t0 = time.process_time()
    acc = 0.0
    n = 1
    for i in range(200_000):
        n = (n * 29 + i) & 0xFFFF
        acc += n * 0.5
        if acc > 1e9:
            acc *= 0.5
    return time.process_time() - t0


def calibrate(rounds: int = 5) -> float:
    """Score this machine/interpreter with a fixed arithmetic loop.

    Returns loop iterations per CPU-second, as the *median* of ``rounds``
    timed passes after one discarded warm-up pass.  Best-of was used
    through PR 7 but proved unstable across sessions (PR 6 had to
    re-baseline after a ~0.85x drift); the warm-up absorbs cold-start
    effects (allocator, frequency scaling kicking in) and the median is
    robust to a single descheduled round in either direction.  The loop
    mixes integer and float work roughly like the simulator hot path
    does; the absolute number is meaningless, only ratios between
    machines are.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds!r}")
    _calibration_round()  # warm-up, discarded
    timings = sorted(_calibration_round() for _ in range(rounds))
    mid = len(timings) // 2
    if len(timings) % 2:
        median = timings[mid]
    else:
        median = (timings[mid - 1] + timings[mid]) / 2.0
    if median <= 0:  # pragma: no cover - degenerate clock resolution
        raise ConfigError("calibration loop measured zero CPU time")
    return 200_000 / median


def _peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if platform.system() == "Darwin":  # pragma: no cover - linux CI
        return int(usage // 1024)
    return int(usage)


def _phase_profile(rate: float, cycles: int,
                   topology: str = "mesh") -> dict[str, float]:
    """Fraction of simulated CPU time per phase (instrumented run).

    Uses a separate, shorter run: attaching the profiler switches the step
    loop to its instrumented form, which must never contaminate the timed
    datapoint runs.
    """
    from repro.engine import PhaseProfiler

    sim = make_bench_sim(rate, topology)
    profiler = PhaseProfiler(clock=time.process_time).attach(sim.hooks)
    sim.run(cycles)
    grand = profiler.total_seconds
    if grand <= 0:  # pragma: no cover - degenerate clock resolution
        return {}
    return {name: round(spent / grand, 4)
            for name, spent in sorted(profiler.seconds.items())}


@dataclass
class Datapoint:
    """One measured load point."""

    label: str
    injection_rate: float
    cycles: int
    repeats: int
    cycles_per_sec_cpu: float
    summary: dict[str, Any]
    phase_profile: dict[str, float] = field(default_factory=dict)
    #: Calibration probe taken right beside this datapoint's timed runs,
    #: so :func:`compare` can normalise per point and
    #: :func:`calibration_warnings` can detect intra-session drift.
    calibration_ops_per_sec: float | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "injection_rate": self.injection_rate,
            "cycles": self.cycles,
            "repeats": self.repeats,
            "cycles_per_sec_cpu": round(self.cycles_per_sec_cpu, 1),
            "summary": self.summary,
            "phase_profile": self.phase_profile,
            "calibration_ops_per_sec": (
                round(self.calibration_ops_per_sec, 1)
                if self.calibration_ops_per_sec else None
            ),
        }


def measure_rate(label: str, rate: float, cycles: int,
                 repeats: int = 3, profile: bool = True,
                 topology: str = "mesh") -> Datapoint:
    """Benchmark one injection load: best-of CPU time + determinism check.

    Raises :class:`~repro.errors.ConfigError` if the repeated runs are not
    bit-identical — a nondeterministic simulator makes every performance
    number meaningless, so the benchmark refuses to report one.
    """
    best: float | None = None
    reference: dict[str, Any] | None = None
    for _ in range(repeats):
        sim = make_bench_sim(rate, topology)
        t0 = time.process_time()
        sim.run(cycles)
        elapsed = time.process_time() - t0
        summary = sim.summary()
        if reference is None:
            reference = summary
        elif summary != reference:
            raise ConfigError(
                f"benchmark run at rate {rate} was not bit-identical "
                f"across repeats: {summary!r} != {reference!r}"
            )
        if elapsed > 0 and (best is None or elapsed < best):
            best = elapsed
    if best is None:  # pragma: no cover - degenerate clock resolution
        raise ConfigError("benchmark run measured zero CPU time")
    assert reference is not None
    return Datapoint(
        label=label,
        injection_rate=rate,
        cycles=cycles,
        repeats=repeats,
        cycles_per_sec_cpu=cycles / best,
        summary=reference,
        phase_profile=_phase_profile(rate, max(cycles // 4, 500), topology)
        if profile else {},
        calibration_ops_per_sec=calibrate(rounds=3),
    )


def run_benchmarks(quick: bool = False, pr: int | None = None,
                   profile: bool = True,
                   topology: str = "mesh") -> dict[str, Any]:
    """Run the full trajectory and return the snapshot document.

    ``topology`` selects the base substrate.  Non-mesh base runs prefix
    their datapoint labels with the topology name so :func:`compare`
    against a mesh baseline skips them instead of comparing unlike
    substrates.  A ``torus_moderate`` datapoint always rides along (unless
    the base already is torus), recording the table-driven torus hot path
    on the same trajectory as the mesh.
    """
    cycles = 1500 if quick else 4000
    repeats = 2 if quick else 3
    prefix = "" if topology == "mesh" else f"{topology}_"
    points = [
        measure_rate(f"{prefix}{label}", rate, cycles, repeats,
                     profile=profile, topology=topology)
        for label, rate in RATES.items()
    ]
    if topology != "torus":
        points.append(
            measure_rate("torus_moderate", RATES["moderate"], cycles,
                         repeats, profile=profile, topology="torus")
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "pr": pr,
        "quick": quick,
        "topology": topology,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "calibration_ops_per_sec": round(calibrate(), 1),
        "peak_rss_kb": _peak_rss_kb(),
        "datapoints": [point.to_json() for point in points],
    }


# -- sweep throughput benches -------------------------------------------------
#
# ``repro bench --sweep``: points/sec through the resilient executor, warm
# (construction-cached, reset-in-place) vs cold (fresh simulator per
# point).  Short points are construction-dominated — the warm-worker
# machinery's target; long points are run-dominated and document honestly
# how the benefit amortises away.  Variant parameters are identical in
# quick and full mode (the sweeps are cheap; keeping them fixed is what
# makes points/sec comparable across snapshots — unlike cycles/sec,
# points/sec is *not* invariant to the per-point cycle budget).

#: Sweep-bench variants: points, cycles/point, warmup, injection rates.
SWEEP_VARIANTS: dict[str, dict[str, Any]] = {
    "short": {"points": 24, "cycles": 200, "warmup": 50,
              "rates": (0.02, 0.05)},
    "long": {"points": 6, "cycles": 2000, "warmup": 200,
             "rates": (0.02, 0.25)},
}

#: Grid for the sweep benches: bigger than the single-run bench network,
#: so construction cost is realistic for a design-space study.
SWEEP_BENCH_WIDTH = 6
SWEEP_BENCH_NODES = 4


def sweep_bench_points(variant: str) -> list[Any]:
    """The canonical sweep for one variant (fresh point objects)."""
    from repro.experiments.configs import ExperimentScale
    from repro.experiments.fig5 import uniform_factory
    from repro.experiments.runner import SweepPoint

    try:
        spec = SWEEP_VARIANTS[variant]
    except KeyError:
        raise ConfigError(
            f"unknown sweep variant {variant!r}; known: "
            f"{', '.join(sorted(SWEEP_VARIANTS))}"
        ) from None
    network = NetworkConfig(mesh_width=SWEEP_BENCH_WIDTH,
                            mesh_height=SWEEP_BENCH_WIDTH,
                            nodes_per_cluster=SWEEP_BENCH_NODES)
    scale = ExperimentScale(
        name=f"bench-sweep-{variant}", network=network,
        run_cycles=spec["cycles"], slow_constant_divisor=25,
        warmup_cycles=spec["warmup"], sample_interval=100,
        policy_window_cycles=100,
    )
    rates = spec["rates"]
    return [
        SweepPoint(label=f"{variant}-{index}", scale=scale,
                   power=PowerAwareConfig(),
                   traffic_factory=uniform_factory(rates[index % len(rates)]),
                   seed=BENCH_SEED + index, cycles=spec["cycles"])
        for index in range(spec["points"])
    ]


def _result_fingerprint(results: list) -> list[str]:
    """Bit-identity fingerprint of a sweep trajectory.

    ``RunResult == RunResult`` is False whenever a latency field is NaN
    (too few delivered packets to sample), even for byte-identical runs —
    except when both sides happen to hold the *same* float object, which
    same-process results do (the ``math.nan`` singleton) and unpickled
    parallel results do not.  ``repr`` round-trips every float and
    renders NaN stably, so comparing reprs is the NaN-proof equivalent
    of the intended bit-identity check.
    """
    return [repr(result) for result in results]


def measure_sweep(variant: str, *, warm: bool, jobs: int = 1,
                  repeats: int = 2) -> dict[str, Any]:
    """Benchmark one sweep variant: points/sec + determinism gate.

    Serial sweeps time CPU (``process_time``, best-of-``repeats``) like
    every other datapoint; parallel sweeps must time wall clock (child
    CPU is invisible to the parent) and say so in ``clock``.  Repeats
    must be bit-identical or the measurement is refused.  A warm serial
    sweep gets one untimed priming pass so the timed passes measure the
    steady state (the state a long sweep spends its life in); the cache
    then stays warm across repeats.  Returns the sweep datapoint dict
    plus the run results under ``"results"`` (popped before snapshotting)
    so callers can gate warm-vs-cold identity.
    """
    from repro.experiments.executor import ExecutionPlan, execute_sweep
    from repro.experiments.warm import clear_cache

    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats!r}")
    points = sweep_bench_points(variant)
    plan = ExecutionPlan(warm=warm)
    clock = time.process_time if jobs == 1 else time.perf_counter
    if jobs == 1:
        clear_cache()
        if warm:
            execute_sweep(points, max_workers=1, plan=plan)  # priming pass
    best: float | None = None
    reference = None
    for _ in range(repeats):
        t0 = clock()
        outcome = execute_sweep(points, max_workers=jobs, plan=plan)
        elapsed = clock() - t0
        if not outcome.complete:
            raise ConfigError(
                f"sweep benchmark {variant!r} lost points: "
                f"{outcome.report.summary()}"
            )
        if reference is None:
            reference = outcome.results
        elif _result_fingerprint(outcome.results) != _result_fingerprint(
                reference):
            raise ConfigError(
                f"sweep benchmark {variant!r} was not bit-identical "
                f"across repeats (warm={warm}, jobs={jobs})"
            )
        if elapsed > 0 and (best is None or elapsed < best):
            best = elapsed
    if best is None:  # pragma: no cover - degenerate clock resolution
        raise ConfigError("sweep benchmark measured zero time")
    spec = SWEEP_VARIANTS[variant]
    mode = "warm" if warm else "cold"
    suffix = "" if jobs == 1 else f"_j{jobs}"
    return {
        "label": f"sweep_{variant}_{mode}{suffix}",
        "variant": variant,
        "points": spec["points"],
        "cycles_per_point": spec["cycles"],
        "warm": warm,
        "jobs": jobs,
        "clock": "cpu" if jobs == 1 else "wall",
        "points_per_sec": round(spec["points"] / best, 2),
        "calibration_ops_per_sec": round(calibrate(rounds=3), 1),
        "results": reference,
    }


def run_sweep_benchmarks(quick: bool = False,
                         jobs: tuple[int, ...] = (2,)) -> dict[str, Any]:
    """The ``--sweep`` family: warm vs cold points/sec, serial and parallel.

    Quick mode runs only the short-point serial pair (the pair the
    warm-speedup gate reads); full mode adds the long-point pair and a
    warm parallel sweep per entry of ``jobs``.  Warm and cold results
    are asserted bit-identical — the warm-worker identity contract,
    enforced on the recorded trajectory itself.  Returns the keys to
    merge into a benchmark snapshot: ``sweep_datapoints`` and
    ``sweep_speedups`` (per-variant warm/cold serial points/sec ratio —
    same session and clock, so no calibration normalisation is needed).
    """
    variants = ["short"] if quick else list(SWEEP_VARIANTS)
    datapoints: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    for variant in variants:
        cold = measure_sweep(variant, warm=False)
        warm = measure_sweep(variant, warm=True)
        if (_result_fingerprint(warm.pop("results"))
                != _result_fingerprint(cold.pop("results"))):
            raise ConfigError(
                f"warm sweep {variant!r} diverged from cold execution — "
                "the construction cache broke bit-identity"
            )
        datapoints.extend([cold, warm])
        speedups[variant] = round(
            warm["points_per_sec"] / cold["points_per_sec"], 3)
    if not quick:
        for n in jobs:
            parallel = measure_sweep("short", warm=True, jobs=n)
            parallel.pop("results")
            datapoints.append(parallel)
    return {"sweep_datapoints": datapoints, "sweep_speedups": speedups}


def sweep_snapshot(quick: bool = False, pr: int | None = None,
                   jobs: tuple[int, ...] = (2,)) -> dict[str, Any]:
    """A sweep-only snapshot document (``repro bench --sweep-only``).

    Same envelope as :func:`run_benchmarks` — schema version, machine
    identity, calibration — with an empty single-run ``datapoints`` list,
    so :func:`compare` passes vacuously and :func:`compare_sweeps` does
    the work.  The fast CI smoke uses this to gate sweep throughput
    without re-running the single-run trajectory.
    """
    snapshot: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "pr": pr,
        "quick": quick,
        "topology": "mesh",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "calibration_ops_per_sec": round(calibrate(), 1),
        "peak_rss_kb": _peak_rss_kb(),
        "datapoints": [],
    }
    snapshot.update(run_sweep_benchmarks(quick=quick, jobs=jobs))
    return snapshot


def compare_sweeps(current: dict[str, Any], baseline: dict[str, Any],
                   tolerance: float = 0.15) -> list[str]:
    """Compare two snapshots' sweep sections, calibration-normalised.

    Labels compare only when their geometry matches (same point count,
    cycle budget, job count and clock) — points/sec is meaningless
    across different sweep shapes.  Parallel (wall-clock) sweeps are
    normalised too: the calibration probe runs in the supervisor, which
    shares the machine with the workers.  Snapshots without sweep
    sections compare vacuously (the standard gate covers them).
    """
    if not 0.0 < tolerance < 1.0:
        raise ConfigError(f"tolerance must be in (0, 1), got {tolerance!r}")
    baseline_points = {
        point["label"]: point
        for point in baseline.get("sweep_datapoints", [])
    }
    regressions: list[str] = []
    for point in current.get("sweep_datapoints", []):
        base = baseline_points.get(point["label"])
        if base is None:
            continue
        if any(point.get(k) != base.get(k)
               for k in ("points", "cycles_per_point", "jobs", "clock")):
            continue
        cur_cal = point.get("calibration_ops_per_sec") \
            or current.get("calibration_ops_per_sec")
        base_cal = base.get("calibration_ops_per_sec") \
            or baseline.get("calibration_ops_per_sec")
        if not cur_cal or not base_cal:
            raise ConfigError("both sweep snapshots need calibration scores")
        ratio = (point["points_per_sec"] / cur_cal) \
            / (base["points_per_sec"] / base_cal)
        if ratio < 1.0 - tolerance:
            regressions.append(
                f"{point['label']}: normalised sweep throughput fell to "
                f"{ratio:.2f}x of baseline ({point['points_per_sec']:,.1f} "
                f"vs {base['points_per_sec']:,.1f} points/s raw)"
            )
    return regressions


def format_sweeps(snapshot: dict[str, Any]) -> str:
    """Human-readable rendering of a snapshot's sweep section."""
    lines = []
    for point in snapshot.get("sweep_datapoints", []):
        lines.append(
            f"  {point['label']:>18}: {point['points_per_sec']:>8,.1f} "
            f"points/s ({point['clock']}) over {point['points']} points x "
            f"{point['cycles_per_point']} cycles"
        )
    for variant, speedup in snapshot.get("sweep_speedups", {}).items():
        lines.append(f"  warm speedup ({variant}, serial): {speedup:.2f}x")
    return "\n".join(lines)


def write_snapshot(snapshot: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_snapshot(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read benchmark snapshot {path}: "
                          f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed benchmark snapshot {path}: "
                          f"{exc}") from exc
    if snapshot.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported benchmark snapshot schema "
            f"{snapshot.get('schema_version')!r} in {path}"
        )
    return snapshot


def compare(current: dict[str, Any], baseline: dict[str, Any],
            tolerance: float = 0.15) -> list[str]:
    """Compare two snapshots, calibration-normalised.

    Returns a list of human-readable regression descriptions (empty when
    the current snapshot is within ``tolerance`` of the baseline at every
    shared load point).  Throughputs are divided by each snapshot's
    calibration score first, so a slower CI machine does not read as a
    code regression.

    Each side normalises by its *per-point* calibration probe when both
    snapshots recorded one for the label (probes taken beside the timed
    runs track intra-session machine drift); snapshots from before the
    probes (schema with point-level probes absent) fall back to the
    snapshot-level score.
    """
    if not 0.0 < tolerance < 1.0:
        raise ConfigError(f"tolerance must be in (0, 1), got {tolerance!r}")
    cur_cal = current.get("calibration_ops_per_sec")
    base_cal = baseline.get("calibration_ops_per_sec")
    if not cur_cal or not base_cal:
        raise ConfigError("both snapshots need a calibration score")
    baseline_points = {
        point["label"]: point for point in baseline.get("datapoints", [])
    }
    regressions: list[str] = []
    for point in current.get("datapoints", []):
        label = point["label"]
        base = baseline_points.get(label)
        if base is None:
            continue
        cur_point_cal = point.get("calibration_ops_per_sec")
        base_point_cal = base.get("calibration_ops_per_sec")
        if cur_point_cal and base_point_cal:
            cur_norm = point["cycles_per_sec_cpu"] / cur_point_cal
            base_norm = base["cycles_per_sec_cpu"] / base_point_cal
        else:
            cur_norm = point["cycles_per_sec_cpu"] / cur_cal
            base_norm = base["cycles_per_sec_cpu"] / base_cal
        ratio = cur_norm / base_norm
        if ratio < 1.0 - tolerance:
            regressions.append(
                f"{label}: normalised throughput fell to {ratio:.2f}x of "
                f"baseline ({point['cycles_per_sec_cpu']:,.0f} vs "
                f"{base['cycles_per_sec_cpu']:,.0f} cyc/s raw, calibration "
                f"{cur_cal:,.0f} vs {base_cal:,.0f})"
            )
    return regressions


#: Per-point probes deviating more than this from their snapshot's score
#: mean the machine's speed moved *during* the benchmark session.
_DRIFT_TOLERANCE = 0.20


def calibration_warnings(current: dict[str, Any],
                         baseline: dict[str, Any]) -> list[str]:
    """Explicit drift diagnostics for a snapshot comparison.

    PR 6 had to re-baseline because the calibration score silently
    drifted ~0.85x between sessions on the same machine, turning the
    normalised compare into noise.  This surfaces that state instead:

    * a per-point probe far from its own snapshot's score means the
      machine's speed moved *during* a session (thermal throttling, a
      noisy neighbour) — every ratio involving that point is suspect;
    * two snapshots from an identical machine/interpreter whose scores
      still disagree materially mean the probe itself was unstable.

    Returns human-readable warnings (empty when calibration is clean);
    callers print them alongside :func:`compare` results — they flag the
    comparison as unreliable but are not regressions themselves.
    """
    warnings: list[str] = []
    for name, snapshot in (("current", current), ("baseline", baseline)):
        cal = snapshot.get("calibration_ops_per_sec")
        if not cal:
            continue
        for point in snapshot.get("datapoints", []):
            probe = point.get("calibration_ops_per_sec")
            if not probe:
                continue
            deviation = probe / cal
            if abs(deviation - 1.0) > _DRIFT_TOLERANCE:
                warnings.append(
                    f"calibration drifted during the {name} snapshot run: "
                    f"probe beside {point['label']!r} scored "
                    f"{probe:,.0f} ops/s vs the snapshot's {cal:,.0f} "
                    f"({deviation:.2f}x) — comparison unreliable"
                )
    cur_cal = current.get("calibration_ops_per_sec")
    base_cal = baseline.get("calibration_ops_per_sec")
    same_machine = all(
        current.get(key) == baseline.get(key)
        for key in ("machine", "implementation", "python")
    )
    if cur_cal and base_cal and same_machine:
        shift = cur_cal / base_cal
        if abs(shift - 1.0) > _DRIFT_TOLERANCE:
            warnings.append(
                f"calibration drifted between snapshots on an identical "
                f"machine/interpreter: {cur_cal:,.0f} vs {base_cal:,.0f} "
                f"ops/s ({shift:.2f}x) — comparison unreliable"
            )
    return warnings


def format_snapshot(snapshot: dict[str, Any]) -> str:
    """Human-readable one-screen rendering of a snapshot."""
    lines = [
        f"python {snapshot['python']} ({snapshot['implementation']}, "
        f"{snapshot['machine']}), calibration "
        f"{snapshot['calibration_ops_per_sec']:,.0f} ops/s, peak RSS "
        f"{snapshot.get('peak_rss_kb') or '?'} KiB",
    ]
    for point in snapshot["datapoints"]:
        lines.append(
            f"  {point['label']:>8} (rate {point['injection_rate']:.2f}): "
            f"{point['cycles_per_sec_cpu']:>12,.0f} cyc/s CPU over "
            f"{point['cycles']} cycles x {point['repeats']}"
        )
        profile = point.get("phase_profile")
        if profile:
            shares = ", ".join(
                f"{name} {share:.0%}" for name, share in profile.items()
            )
            lines.append(f"           phases: {shares}")
    return "\n".join(lines)
