"""Unit tests for the measured (test-chip) power model plug-in."""

import pytest

from repro.errors import ConfigError
from repro.photonics.measured import MeasuredLinkPowerModel
from repro.photonics.power_model import LinkPowerModel
from repro.units import mw


@pytest.fixture
def model() -> MeasuredLinkPowerModel:
    return MeasuredLinkPowerModel(samples=(
        (5e9, mw(60.0)), (7e9, mw(130.0)), (10e9, mw(290.0)),
    ))


class TestConstruction:
    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            MeasuredLinkPowerModel(samples=((10e9, 0.29),))

    def test_rates_must_ascend(self):
        with pytest.raises(ConfigError):
            MeasuredLinkPowerModel(samples=((10e9, 0.29), (5e9, 0.06)))

    def test_duplicate_rates_rejected(self):
        with pytest.raises(ConfigError):
            MeasuredLinkPowerModel(samples=((5e9, 0.06), (5e9, 0.07)))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ConfigError):
            MeasuredLinkPowerModel(samples=((5e9, 0.0), (10e9, 0.29)))


class TestInterpolation:
    def test_exact_sample_points(self, model):
        assert model.power(5e9) == pytest.approx(mw(60.0))
        assert model.power(10e9) == pytest.approx(mw(290.0))

    def test_midpoint_interpolation(self, model):
        assert model.power(6e9) == pytest.approx(mw(95.0))

    def test_out_of_range_refused(self, model):
        with pytest.raises(ConfigError):
            model.power(4e9)
        with pytest.raises(ConfigError):
            model.power(11e9)

    def test_vdd_argument_ignored(self, model):
        assert model.power(7e9, vdd=0.9) == model.power(7e9)

    def test_monotone_between_samples(self, model):
        rates = [5e9 + i * 0.5e9 for i in range(11)]
        powers = [model.power(r) for r in rates]
        assert powers == sorted(powers)

    def test_savings_fraction(self, model):
        assert model.savings_fraction(5e9) == pytest.approx(1 - 60 / 290)


class TestAnalyticSampling:
    def test_from_analytic_matches_at_samples(self):
        analytic = LinkPowerModel.vcsel_link()
        rates = (5e9, 6e9, 8e9, 10e9)
        measured = MeasuredLinkPowerModel.from_analytic(analytic, rates)
        for rate in rates:
            assert measured.power(rate) == pytest.approx(analytic.power(rate))

    def test_chords_lie_above_convex_curve(self):
        # Linear interpolation of the (convex) analytic curve is an upper
        # bound — the conservative direction for power estimates.
        analytic = LinkPowerModel.vcsel_link()
        measured = MeasuredLinkPowerModel.from_analytic(
            analytic, (5e9, 10e9))
        for rate in (6e9, 7e9, 8e9, 9e9):
            assert measured.power(rate) >= analytic.power(rate) - 1e-12


class TestManagerIntegration:
    def test_power_aware_link_accepts_measured_model(self):
        from repro.config import PolicyConfig, TransitionConfig
        from repro.core.levels import BitRateLadder
        from repro.core.power_link import PowerAwareLink
        from repro.network.links import MESH, Link

        ladder = BitRateLadder.paper_default()
        measured = MeasuredLinkPowerModel(samples=(
            (5e9, mw(55.0)), (10e9, mw(280.0)),
        ))
        pal = PowerAwareLink(
            link=Link(0, MESH),
            ladder=ladder,
            power_model=measured,
            policy_config=PolicyConfig(window_cycles=100),
            transition_config=TransitionConfig(),
            service_times=tuple(ladder.max_rate / rate
                                for rate in ladder.rates),
            downstream_buffer=None,
        )
        assert pal.level_powers[0] == pytest.approx(mw(55.0))
        assert pal.level_powers[-1] == pytest.approx(mw(280.0))
        pal.finalize(100.0)
        assert pal.energy_watt_cycles == pytest.approx(mw(280.0) * 100.0)
