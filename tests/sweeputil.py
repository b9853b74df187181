"""Shared sweep fixtures for the executor/journal/chaos test modules.

A deliberately tiny scale (2x2 mesh, 2 nodes per cluster, short runs) so
fault-tolerance tests — which run whole sweeps many times over — stay
fast.  At 1200 cycles with rate 0.05 the network delivers plenty of
packets, so latency statistics are real numbers and bit-identity
comparisons are meaningful (a NaN latency would compare unequal to
itself and mask genuine divergence).
"""

from repro.config import NetworkConfig
from repro.experiments.configs import ExperimentScale
from repro.experiments.fig5 import uniform_factory
from repro.experiments.runner import SweepPoint, run_simulation

TINY = ExperimentScale(
    name="tiny",
    network=NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                          buffer_depth=8, num_vcs=2),
    run_cycles=1_500,
    slow_constant_divisor=25,
    warmup_cycles=100,
    sample_interval=100,
    policy_window_cycles=100,
)


def tiny_point(label="p", seed=1, cycles=1_200, rate=0.05):
    """One fast, deterministic, picklable sweep point."""
    return SweepPoint(label=label, scale=TINY, power=None,
                      traffic_factory=uniform_factory(rate), seed=seed,
                      cycles=cycles)


def run_fresh(point):
    """``point`` run on a freshly built simulator: the reference a warm
    (reset) rerun must equal bit for bit."""
    return run_simulation(
        point.scale, point.power, point.traffic_factory,
        label=point.label, seed=point.seed, cycles=point.cycles,
        drain=point.drain, faults=point.faults,
    )
