"""Unit tests for the electrical DVS link comparison model."""

import pytest

from repro.errors import ConfigError
from repro.photonics.constants import MAX_BIT_RATE
from repro.photonics.electrical import (
    ElectricalLinkModel,
    compare_technologies,
)
from repro.units import mw, to_mw


@pytest.fixture
def link() -> ElectricalLinkModel:
    return ElectricalLinkModel()


class TestModel:
    def test_default_max_power_in_expected_band(self, link):
        # Calibrated to be comparable to the 290 mW opto link at 10 Gb/s.
        assert 200.0 < to_mw(link.max_power) < 350.0

    def test_equalisation_scales_with_reach(self):
        short = ElectricalLinkModel(reach_loss_db=5.0)
        long = ElectricalLinkModel(reach_loss_db=25.0)
        assert long.max_power > short.max_power

    def test_zero_reach_allowed(self):
        link = ElectricalLinkModel(reach_loss_db=0.0)
        assert link.equalisation_power == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ElectricalLinkModel(driver_power=0.0)
        with pytest.raises(ConfigError):
            ElectricalLinkModel(reach_loss_db=-1.0)


class TestPowerModelInterface:
    def test_components_present(self, link):
        model = link.as_power_model()
        names = set(model.component_powers(MAX_BIT_RATE))
        assert names == {"driver", "termination", "equalisation",
                         "receiver_cdr"}

    def test_monotone_in_rate(self, link):
        powers = [link.power(r) for r in (3e9, 5e9, 8e9, 10e9)]
        assert powers == sorted(powers)

    def test_dvs_scaling_beats_linear(self, link):
        # Every electrical term carries at least one Vdd factor, so the
        # 10G -> 5G saving exceeds the 50% a pure-BR model would give.
        assert link.power(5e9) < 0.5 * link.power(10e9)

    def test_manager_accepts_electrical_model(self, link):
        from repro.config import PolicyConfig, TransitionConfig
        from repro.core.levels import BitRateLadder
        from repro.core.power_link import PowerAwareLink
        from repro.network.links import MESH, Link

        ladder = BitRateLadder.paper_default()
        pal = PowerAwareLink(
            link=Link(0, MESH),
            ladder=ladder,
            power_model=link.as_power_model(),
            policy_config=PolicyConfig(window_cycles=100),
            transition_config=TransitionConfig(),
            service_times=tuple(ladder.max_rate / rate
                                for rate in ladder.rates),
            downstream_buffer=None,
        )
        assert pal.level_powers[-1] == pytest.approx(link.max_power)


class TestComparison:
    def test_rows_cover_requested_rates(self):
        rows = compare_technologies((5e9, 10e9))
        assert [row["bit_rate"] for row in rows] == [5e9, 10e9]

    def test_opto_technologies_close_at_max(self):
        rows = compare_technologies((10e9,))
        assert rows[0]["vcsel"] == pytest.approx(mw(290.0))
        assert rows[0]["modulator"] == pytest.approx(mw(290.0))

    def test_electrical_scales_deepest(self):
        """At the ladder bottom the electrical link saves the largest
        fraction (no bias floor, everything voltage-scaled)."""
        rows = compare_technologies((5e9, 10e9))
        by_rate = {row["bit_rate"]: row for row in rows}

        def saving(tech):
            return 1 - by_rate[5e9][tech] / by_rate[10e9][tech]

        assert saving("electrical") >= saving("vcsel") - 1e-9
        assert saving("vcsel") >= saving("modulator") - 1e-9

    def test_empty_rates_rejected(self):
        with pytest.raises(ConfigError):
            compare_technologies(())
