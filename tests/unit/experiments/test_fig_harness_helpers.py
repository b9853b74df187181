"""Unit tests for the pure helper functions of the figure harnesses.

The simulation-heavy paths are covered by the benchmarks; these tests pin
the cheap, deterministic pieces: schedules, node placement, intensity
calibration, configuration sets and curve post-processing.
"""

import pytest

from repro.config import NetworkConfig
from repro.experiments import fig5, fig6, fig7
from repro.experiments.configs import get_scale
from repro.metrics.summary import RunResult


def result_with(latency: float, rate: float = 0.5) -> RunResult:
    return RunResult(
        label="x", cycles=1000, packets_created=10, packets_delivered=10,
        mean_latency=latency, p95_latency=latency, max_latency=latency,
        relative_power=0.5, accepted_rate=rate,
    )


class TestFig5Helpers:
    def test_uniform_factory_builds_fresh_sources(self):
        factory = fig5.uniform_factory(0.5)
        a = factory(16, seed=1)
        b = factory(16, seed=1)
        assert a is not b
        assert a.injection_rate == 0.5

    def test_ladder_configurations_cover_paper_variants(self):
        scale = get_scale("smoke")
        configs = fig5.ladder_configurations(scale)
        assert configs["baseline"] is None
        assert configs["vcsel_5_10"].min_bit_rate == 5e9
        assert configs["vcsel_3.3_10"].min_bit_rate == pytest.approx(3.3e9)
        assert configs["static_3.3"].num_levels == 1

    def test_throughput_of_curve(self):
        points = [
            (0.5, result_with(40.0)),
            (1.0, result_with(55.0)),
            (1.5, result_with(300.0)),   # above 2 x zero-load
        ]
        assert fig5.throughput_of_curve(points, zero_load_latency=30.0) == 1.0

    def test_throughput_of_curve_all_saturated(self):
        points = [(0.5, result_with(500.0))]
        assert fig5.throughput_of_curve(points, 30.0) == 0.0

    def test_throughput_of_curve_ignores_nan(self):
        points = [(0.5, result_with(40.0)),
                  (1.0, result_with(float("nan")))]
        assert fig5.throughput_of_curve(points, 30.0) == 0.5


class TestFig6Helpers:
    def test_schedule_fits_run_budget(self):
        scale = get_scale("smoke")
        schedule = fig6.schedule_for_scale(scale)
        assert schedule[0].start_cycle == 0
        assert schedule[-1].start_cycle < scale.run_cycles

    def test_schedule_rates_scaled_by_capacity(self):
        smoke = get_scale("smoke")
        paper = get_scale("paper")
        smoke_schedule = fig6.schedule_for_scale(smoke)
        paper_schedule = fig6.schedule_for_scale(paper)
        # 4x4 has half the bisection of 8x8 -> half the rates.
        assert smoke_schedule[0].injection_rate == pytest.approx(
            paper_schedule[0].injection_rate / 2
        )

    def test_default_hotspot_node_paper_scale(self):
        network = NetworkConfig()  # 8x8x8
        node = fig6.default_hotspot_node(network)
        # Paper: node 4 in rack(3,5) -> router 5*8+3 = 43, local 4.
        assert node == 43 * 8 + 4

    def test_default_hotspot_node_in_range(self):
        for w, h, n in ((2, 2, 2), (4, 4, 8), (5, 3, 4)):
            network = NetworkConfig(mesh_width=w, mesh_height=h,
                                    nodes_per_cluster=n)
            node = fig6.default_hotspot_node(network)
            assert 0 <= node < network.num_nodes


class TestFig7Helpers:
    def test_active_nodes_is_first_row(self):
        assert fig7.active_nodes_for(NetworkConfig()) == 64  # paper: 8 racks
        assert fig7.active_nodes_for(
            NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=8)
        ) == 32

    def test_intensity_independent_of_mesh(self):
        # The calibration targets the active row's centre-link utilisation,
        # which is size-independent by construction.
        a = fig7.splash_intensity(NetworkConfig())
        b = fig7.splash_intensity(
            NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=8))
        assert a == pytest.approx(b)

    def test_factory_traces_stay_on_active_nodes(self):
        scale = get_scale("smoke")
        factory = fig7.splash_factory("radix", scale)
        source = factory(scale.network.num_nodes, seed=1)
        active = fig7.active_nodes_for(scale.network)
        assert all(r.src < active and r.dst < active
                   for r in source.records)

    def test_table3_rows_structure(self):
        fake = {
            "fft": {"normalised": _normalised(1.5, 0.25)},
            "lu": {"normalised": _normalised(1.8, 0.26)},
        }
        rows = fig7.table3_rows(fake)
        assert rows[0]["trace"] == "FFT"
        assert rows[0]["power_latency_product"] == pytest.approx(0.375)

    def test_mean_power_savings(self):
        fake = {
            "fft": {"normalised": _normalised(1.0, 0.2)},
            "lu": {"normalised": _normalised(1.0, 0.3)},
        }
        assert fig7.mean_power_savings(fake) == pytest.approx(0.75)


def _normalised(latency_ratio: float, power_ratio: float):
    from repro.metrics.summary import NormalisedResult

    return NormalisedResult("x", latency_ratio, power_ratio, 100.0,
                            100.0 * latency_ratio)


class TestWindowSweepScaling:
    def test_windows_for_scale_multiples(self):
        from repro.experiments.fig5 import WINDOW_MULTIPLES, windows_for_scale

        scale = get_scale("paper")
        assert windows_for_scale(scale) == (100, 300, 1000, 3000, 10_000)
        smoke = get_scale("smoke")
        expected = tuple(round(m * smoke.policy_window_cycles)
                         for m in WINDOW_MULTIPLES)
        assert windows_for_scale(smoke) == expected

    def test_windows_never_below_floor(self):
        from repro.experiments.configs import ExperimentScale
        from repro.experiments.fig5 import windows_for_scale

        tiny = ExperimentScale(
            name="tiny", network=NetworkConfig(mesh_width=2, mesh_height=2),
            run_cycles=1000, slow_constant_divisor=100, warmup_cycles=0,
            sample_interval=100, policy_window_cycles=50,
        )
        assert min(windows_for_scale(tiny)) >= 10


class TestThresholdSweepPolicy:
    def test_points_keep_the_scale_window(self, monkeypatch):
        # Fig. 5(d-f) points must run the scale's policy window (whose
        # transition delays the scale sizes), not the paper's Tw=1000.
        captured = []

        def fake_run_sweep(points, **kwargs):
            captured.extend(points)
            return [None] * len(points)

        monkeypatch.setattr(fig5, "run_sweep", fake_run_sweep)
        scale = get_scale("smoke")
        fig5.threshold_sweep(scale, averages=(0.45, 0.65))
        aware = [p for p in captured if p.power is not None]
        assert len(aware) == 2 * len(fig5.reference_rates(scale.network))
        for point in aware:
            policy = point.power.policy
            assert policy.window_cycles == scale.policy_window_cycles
            assert policy.threshold_high_uncongested \
                - policy.threshold_low_uncongested == pytest.approx(0.1)

