"""Unit tests for bit-rate ladders and optical bands."""

import pytest

from repro.core.levels import BitRateLadder, OpticalBands
from repro.errors import ConfigError
from repro.photonics.constants import NOMINAL_VDD


class TestLadderConstruction:
    def test_paper_default_levels(self):
        ladder = BitRateLadder.paper_default()
        assert ladder.num_levels == 6
        assert ladder.min_rate == 5e9
        assert ladder.max_rate == 10e9
        assert ladder.rates == (5e9, 6e9, 7e9, 8e9, 9e9, 10e9)

    def test_paper_wide_bottom(self):
        assert BitRateLadder.paper_wide().min_rate == pytest.approx(3.3e9)

    def test_single_level(self):
        ladder = BitRateLadder.linear(10e9, 10e9, 1)
        assert ladder.rates == (10e9,)

    def test_single_level_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BitRateLadder.linear(5e9, 10e9, 1)

    def test_descending_rejected(self):
        with pytest.raises(ConfigError):
            BitRateLadder(rates=(10e9, 5e9))

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            BitRateLadder(rates=(5e9, 5e9))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            BitRateLadder(rates=())


class TestLadderQueries:
    @pytest.fixture
    def ladder(self):
        return BitRateLadder.paper_default()

    def test_rate_lookup(self, ladder):
        assert ladder.rate(0) == 5e9
        assert ladder.rate(ladder.top_level) == 10e9

    def test_rate_out_of_range(self, ladder):
        with pytest.raises(ConfigError):
            ladder.rate(6)
        with pytest.raises(ConfigError):
            ladder.rate(-1)

    def test_vdd_linear_scaling(self, ladder):
        assert ladder.vdd(ladder.top_level) == NOMINAL_VDD
        assert ladder.vdd(0) == pytest.approx(0.9)

    def test_clamp(self, ladder):
        assert ladder.clamp(-3) == 0
        assert ladder.clamp(99) == ladder.top_level
        assert ladder.clamp(2) == 2

    def test_level_for_rate(self, ladder):
        assert ladder.level_for_rate(5e9) == 0
        assert ladder.level_for_rate(5.5e9) == 1
        assert ladder.level_for_rate(10e9) == 5
        assert ladder.level_for_rate(99e9) == 5


    def test_down_ratios_match_the_rate_quotients(self, ladder):
        # Bit-identical to dividing the rates per window, as before.
        assert ladder.down_ratios[0] == 1.0
        for level in range(1, ladder.num_levels):
            assert ladder.down_ratios[level] == \
                ladder.rate(level) / ladder.rate(level - 1)
        wide = BitRateLadder.paper_wide()
        assert wide.down_ratios[1] == wide.rate(1) / wide.rate(0)

    def test_down_ratios_stay_out_of_equality(self, ladder):
        assert ladder == BitRateLadder.paper_default()
        assert "down_ratios" not in repr(ladder)


class TestOpticalBands:
    def test_paper_three_level(self):
        bands = OpticalBands.paper_three_level()
        assert bands.num_bands == 3
        assert bands.power_fractions == (0.25, 0.5, 1.0)

    def test_band_for_rate_boundaries(self):
        bands = OpticalBands.paper_three_level()
        assert bands.band_for_rate(3.9e9) == 0
        assert bands.band_for_rate(4e9) == 1    # inclusive low boundary
        assert bands.band_for_rate(5.9e9) == 1
        assert bands.band_for_rate(6e9) == 2
        assert bands.band_for_rate(10e9) == 2

    def test_single_band(self):
        bands = OpticalBands.single()
        assert bands.num_bands == 1
        assert bands.band_for_rate(1e9) == 0
        assert bands.band_for_rate(10e9) == 0

    def test_attenuations_are_halving_steps(self):
        bands = OpticalBands.paper_three_level()
        assert bands.attenuation_db(2) == pytest.approx(0.0)
        assert bands.attenuation_db(1) == pytest.approx(3.0103, rel=1e-3)
        assert bands.attenuation_db(0) == pytest.approx(6.0206, rel=1e-3)

    def test_attenuation_out_of_range(self):
        with pytest.raises(ConfigError):
            OpticalBands.paper_three_level().attenuation_db(3)

    def test_fraction_count_must_match(self):
        with pytest.raises(ConfigError):
            OpticalBands(upper_rates=(4e9,), power_fractions=(1.0,))

    def test_top_fraction_must_be_one(self):
        with pytest.raises(ConfigError):
            OpticalBands(upper_rates=(4e9,), power_fractions=(0.25, 0.5))
