"""Experiment harnesses regenerating every table and figure of the paper.

* :mod:`~repro.experiments.table2` — component power budget (analytic);
* :mod:`~repro.experiments.fig5` — uniform-random sweeps (window size,
  thresholds, injection rate);
* :mod:`~repro.experiments.fig6` — time-varying hot-spot experiments
  (transition-delay ablation, optical levels, VCSEL vs modulator);
* :mod:`~repro.experiments.fig7` — SPLASH2-like trace replays;
* :mod:`~repro.experiments.table3` — normalised power-performance table;
* :mod:`~repro.experiments.report` — ``python -m repro.experiments.report``
  regenerates EXPERIMENTS.md.

Shared machinery: :mod:`~repro.experiments.configs` (scales, reference
rates), :mod:`~repro.experiments.runner` (run + normalise) and
:mod:`~repro.experiments.executor` (sweep execution, one attempt per
point: journaled resume, worker-crash isolation, degraded reports —
see docs/execution.md).
"""

from repro.experiments.configs import (
    SCALES,
    ExperimentScale,
    get_scale,
    power_config,
    reference_rates,
    static_rate_config,
    uniform_saturation_packets,
)
from repro.experiments.executor import (
    ExecutionPlan,
    ExecutorStats,
    PointFailure,
    SweepFailureReport,
    SweepOutcome,
    execute_sweep,
)
from repro.experiments.journal import SweepJournal, point_key
from repro.experiments.runner import (
    TrafficFactory,
    build_simulator,
    collect_result,
    run_pair,
    run_simulation,
)

__all__ = [
    "ExecutionPlan",
    "ExecutorStats",
    "ExperimentScale",
    "PointFailure",
    "SCALES",
    "SweepFailureReport",
    "SweepJournal",
    "SweepOutcome",
    "TrafficFactory",
    "build_simulator",
    "collect_result",
    "execute_sweep",
    "get_scale",
    "point_key",
    "power_config",
    "reference_rates",
    "run_pair",
    "run_simulation",
    "static_rate_config",
    "uniform_saturation_packets",
]
