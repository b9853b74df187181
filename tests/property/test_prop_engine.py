"""Property tests: caches and process pools change wall-clock, never results.

* a run billed through the shared operating-point table is bit-identical
  to one billed through freshly evaluated per-link rows;
* a sweep dispatched over a process pool is point-for-point identical to
  the same sweep run serially.

Equivalence of the engine with its own earlier behaviour is pinned by the
digest corpus in ``tests/integration/test_golden_corpus.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.simulator import Simulator
from repro.traffic.uniform import UniformRandomTraffic

NETWORK = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                        buffer_depth=8, num_vcs=2)


def make_power() -> PowerAwareConfig:
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=60, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )


class TestTableDrivenEquivalence:
    """The shared operating-point table must be a pure cache: a run billed
    through per-link, freshly evaluated analytical rows is bit-identical
    to the same run billed through the one table row every link shares."""

    @settings(max_examples=8, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fresh_analytic_rows_match_the_shared_table(self, rate, seed):
        def run(detach_table: bool):
            config = SimulationConfig(
                network=NETWORK, power=make_power(), sample_interval=50,
                stall_limit_cycles=50_000,
            )
            traffic = UniformRandomTraffic(NETWORK.num_nodes, rate,
                                           seed=seed)
            sim = Simulator(config, traffic)
            if detach_table:
                manager = sim.power
                for pal in manager.links:
                    assert pal.level_powers is manager.table.level_powers
                    pal.level_powers = tuple(
                        manager.power_model.power(r)
                        for r in manager.ladder.rates
                    )
            sim.run(700)
            return (sim.summary(), tuple(sim.power.power_series),
                    tuple(sim.power.level_histogram()))

        assert run(detach_table=False) == run(detach_table=True)


class TestSweepEquivalence:
    def test_parallel_sweep_matches_serial(self):
        from repro.experiments.configs import ExperimentScale
        from repro.experiments.fig5 import uniform_factory
        from repro.experiments.runner import SweepPoint, run_sweep

        scale = ExperimentScale(
            name="prop", network=NETWORK, run_cycles=800,
            slow_constant_divisor=1, warmup_cycles=0, sample_interval=50,
            policy_window_cycles=60,
        )
        points = [
            SweepPoint(label=f"p{i}", scale=scale,
                       power=make_power() if i % 2 else None,
                       traffic_factory=uniform_factory(0.05 * (i + 1)),
                       seed=100 + i)
            for i in range(4)
        ]
        serial = run_sweep(points, max_workers=1)
        parallel = run_sweep(points, max_workers=2)
        assert serial == parallel
