"""Unit tests for the warm-worker construction cache (experiments.warm)."""

import pickle
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.config import (
    MODULATOR,
    VCSEL,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    TransitionConfig,
)
from repro.experiments import warm
from repro.experiments.configs import ExperimentScale
from repro.experiments.fig5 import uniform_factory
from repro.experiments.fig6 import hotspot_factory
from repro.experiments.fig7 import splash_factory
from repro.experiments.journal import point_key
from repro.experiments.runner import SweepPoint, run_pair
from repro.experiments.warm import (
    cache_info,
    clear_cache,
    run_point_warm,
    structural_key,
)
from tests.sweeputil import TINY, run_fresh, tiny_point


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestStructuralKey:
    def test_key_is_the_network_config(self):
        point = tiny_point()
        assert structural_key(point) == TINY.network

    def test_seed_rate_and_power_do_not_change_the_key(self):
        base = tiny_point(seed=1)
        other = SweepPoint(label="q", scale=TINY, power=PowerAwareConfig(),
                           traffic_factory=base.traffic_factory, seed=9,
                           cycles=300)
        assert structural_key(base) == structural_key(other)


class TestWarmExecution:
    def test_bit_identical_to_cold(self):
        points = [tiny_point(label=f"p{i}", seed=i + 1) for i in range(3)]
        cold = [run_fresh(p) for p in points]
        assert [run_point_warm(p) for p in points] == cold

    def test_cache_hits_after_first_point(self):
        points = [tiny_point(label=f"p{i}", seed=i + 1) for i in range(3)]
        for point in points:
            run_point_warm(point)
        info = cache_info()
        assert info == {"hits": 2, "misses": 1, "size": 1}

    def test_power_toggle_reuses_the_fabric(self):
        baseline = tiny_point(label="b", seed=4)
        aware = SweepPoint(label="a", scale=TINY, power=PowerAwareConfig(),
                           traffic_factory=baseline.traffic_factory, seed=4,
                           cycles=1_200)
        cold = [run_fresh(aware), run_fresh(baseline)]
        assert [run_point_warm(aware), run_point_warm(baseline)] == cold
        assert cache_info()["misses"] == 1

    def test_failed_point_evicts_its_simulator(self):
        good = tiny_point(label="good", seed=2)
        run_point_warm(good)
        assert cache_info()["size"] == 1

        class Boom(RuntimeError):
            pass

        def exploding_run(cycles):
            raise Boom("mid-run death")

        bad = tiny_point(label="bad", seed=3)
        original = warm._acquire

        def sabotaged(config, traffic):
            sim = original(config, traffic)
            sim.run = exploding_run
            return sim

        warm._acquire = sabotaged
        try:
            with pytest.raises(Boom):
                run_point_warm(bad)
        finally:
            warm._acquire = original
        assert cache_info()["size"] == 0
        # And the next warm run rebuilds cold, correctly.
        assert run_point_warm(good) == run_fresh(good)

    def test_cache_is_bounded(self):
        for width in (2, 3):
            from dataclasses import replace

            from repro.config import NetworkConfig
            scale = replace(TINY, name=f"t{width}",
                            network=NetworkConfig(
                                mesh_width=width, mesh_height=2,
                                nodes_per_cluster=2, buffer_depth=8,
                                num_vcs=2))
            point = SweepPoint(label=f"w{width}", scale=scale, power=None,
                               traffic_factory=tiny_point().traffic_factory,
                               seed=1, cycles=400)
            run_point_warm(point)
        assert cache_info()["size"] <= warm._CACHE_MAX


class TestRunPairSharing:
    def test_run_pair_is_bit_identical_with_cold_memos(self):
        # run_pair's two sides share the per-process immutable artifacts
        # (topology memo, route-table cache, operating-point table); the
        # regression gate is that results equal a run with every memo
        # cold, computed in a pristine subprocess.
        from repro.experiments.fig5 import uniform_factory

        aware, baseline, norm = run_pair(
            TINY, PowerAwareConfig(), uniform_factory(0.05),
            label="pair", seed=5, cycles=900)
        script = (
            "import json\n"
            "from tests.sweeputil import TINY\n"
            "from repro.config import PowerAwareConfig\n"
            "from repro.experiments.fig5 import uniform_factory\n"
            "from repro.experiments.runner import run_pair\n"
            "aware, baseline, norm = run_pair(TINY, PowerAwareConfig(),\n"
            "    uniform_factory(0.05), label='pair', seed=5, cycles=900)\n"
            "print(json.dumps([aware.mean_latency, aware.relative_power,\n"
            "    baseline.mean_latency, norm.latency_ratio]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        import json

        assert json.loads(out.stdout) == [
            aware.mean_latency, aware.relative_power,
            baseline.mean_latency, norm.latency_ratio,
        ]


class TestPointKeyCache:
    def test_cached_key_matches_recomputation(self):
        point = tiny_point(label="k", seed=7)
        first = point_key(point)
        assert point.__dict__["_point_key"] == first
        assert point_key(point) == first

    def test_cache_is_invisible_to_hashing_and_equality(self):
        a = tiny_point(label="k", seed=7)
        b = tiny_point(label="k", seed=7)
        point_key(a)  # a now carries the cache, b does not
        assert a == b
        assert point_key(b) == point_key(a)

    def test_key_is_stable_across_processes(self):
        point = tiny_point(label="x", seed=11)
        local = point_key(point)
        # Ship the point (cache already populated) to a fresh process
        # and have it recompute from scratch there.
        payload = pickle.dumps(point)
        script = (
            "import pickle, sys\n"
            "from repro.experiments.journal import point_key\n"
            "point = pickle.loads(sys.stdin.buffer.read())\n"
            "object.__delattr__(point, '_point_key') if '_point_key' in "
            "point.__dict__ else None\n"
            "print(point_key(point))\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             input=payload, capture_output=True, check=True)
        assert out.stdout.decode().strip() == local


class TestExecutorIntegration:
    def test_execute_sweep_warm_matches_cold(self):
        from repro.experiments.executor import ExecutionPlan, execute_sweep

        points = [tiny_point(label=f"e{i}", seed=i + 1) for i in range(4)]
        cold = [run_fresh(p) for p in points]
        clear_cache()
        hot = execute_sweep(points, max_workers=1, plan=ExecutionPlan())
        assert hot.results == cold
        assert cache_info()["hits"] == 3


class TestAcquireFallback:
    def test_reset_failure_falls_back_to_cold_construction(self):
        point = tiny_point(label="f", seed=1)
        expected = run_fresh(point)
        run_point_warm(point)
        # Corrupt the cached simulator so its next reset raises.
        (cached,) = warm._CACHE.values()
        cached.reset = None  # type: ignore[assignment]
        result = run_point_warm(point)
        assert result == expected
        info = cache_info()
        assert info["misses"] == 2  # cold build replaced the corpse


def test_structural_key_raises_nothing_on_faulted_points():
    from repro.reliability import FaultConfig

    point = SweepPoint(label="f", scale=TINY, power=None,
                       traffic_factory=tiny_point().traffic_factory,
                       seed=1, cycles=400,
                       faults=FaultConfig(seed=3, received_power_w=13e-6))
    assert structural_key(point) == TINY.network


def test_warm_and_cold_agree_on_faulted_points():
    from repro.reliability import FaultConfig

    factory = tiny_point().traffic_factory
    faulted = SweepPoint(label="f", scale=TINY, power=PowerAwareConfig(),
                         traffic_factory=factory, seed=1, cycles=900,
                         faults=FaultConfig(seed=3, received_power_w=13e-6))
    clean = SweepPoint(label="c", scale=TINY, power=PowerAwareConfig(),
                       traffic_factory=factory, seed=1, cycles=900)
    cold = [run_fresh(faulted), run_fresh(clean), run_fresh(faulted)]
    assert [run_point_warm(faulted), run_point_warm(clean),
            run_point_warm(faulted)] == cold


@pytest.mark.parametrize("change", [
    {"technology": VCSEL},
    {"min_bit_rate": 6e9},
    {"num_levels": 4},
    {"optical_levels": 3},
], ids=lambda change: "+".join(change))
def test_warm_and_cold_agree_when_the_power_structure_changes(change):
    # A warm reset may only absorb a point whose ladder, power model,
    # table and bands match the simulator's; any other point is built
    # cold, so the sequence equals cold runs.  Short windows and laser
    # epochs under the bursty Fig. 6 load make every change visible.
    transitions = TransitionConfig(
        bit_rate_transition_cycles=2, voltage_transition_cycles=10,
        optical_transition_cycles=100, laser_epoch_cycles=200)
    power = PowerAwareConfig(technology=MODULATOR,
                             policy=PolicyConfig(window_cycles=100),
                             transitions=transitions)
    base = SweepPoint(label="b", scale=TINY, power=power,
                      traffic_factory=hotspot_factory(TINY), seed=1,
                      cycles=1_500)
    variant = replace(base, power=replace(power, **change))
    cold = [run_fresh(base), run_fresh(variant)]
    assert cold[0] != cold[1]
    assert [run_point_warm(base), run_point_warm(variant)] == cold


def test_warm_and_cold_agree_on_drained_points():
    # A drained point stops once its finite trace is delivered, well
    # before its cycle budget; the warm runner must honour ``drain``.
    factory = splash_factory("fft", TINY, duration=400)
    drained = SweepPoint(label="d", scale=TINY, power=PowerAwareConfig(),
                         traffic_factory=factory, seed=1, cycles=3_000,
                         drain=True)
    cold = run_fresh(drained)
    assert cold.cycles < drained.cycles
    assert run_point_warm(drained) == cold


def _short_sweep() -> list[SweepPoint]:
    """24 construction-dominated points: 200 cycles on a 6x6x4 mesh."""
    network = NetworkConfig(mesh_width=6, mesh_height=6, nodes_per_cluster=4)
    scale = ExperimentScale(name="short-sweep", network=network,
                            run_cycles=200, slow_constant_divisor=25,
                            warmup_cycles=50, sample_interval=100,
                            policy_window_cycles=100)
    rates = (0.02, 0.05)
    return [SweepPoint(label=f"short-{index}", scale=scale,
                       power=PowerAwareConfig(),
                       traffic_factory=uniform_factory(rates[index % 2]),
                       seed=3 + index, cycles=200)
            for index in range(24)]


def test_warm_sweep_beats_cold_by_the_floor():
    # Short points spend most of their time building the fabric, which
    # warm workers reset in place instead.  Cold empties the cache before
    # every point, so each one builds its simulator; warm keeps it, after
    # an untimed pass that fills it.  Serial, so process_time covers all
    # the work; best of two passes.
    points = _short_sweep()

    def timed(cold):
        best = float("inf")
        for _ in range(2):
            results = []
            start = time.process_time()
            for point in points:
                if cold:
                    clear_cache()
                results.append(run_point_warm(point))
            best = min(best, time.process_time() - start)
        return best, results

    cold_s, cold = timed(cold=True)
    for point in points:
        run_point_warm(point)
    warm_s, hot = timed(cold=False)
    # repr, not ==: a NaN latency compares unequal to itself.
    assert [repr(r) for r in hot] == [repr(r) for r in cold]
    assert cold_s / warm_s >= 1.2, (cold_s, warm_s)
