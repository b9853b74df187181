"""Bit-rate/voltage ladders and optical power bands (paper Section 3.2).

A power-aware link operates at one of a small number of discrete *levels*;
each level is a bit rate with an associated supply voltage (linear scaling,
1.8 V at 10 Gb/s).  The paper's default ladder has six levels from 5 to
10 Gb/s; the alternative 3.3-10 Gb/s ladder trades throughput for deeper
savings (Fig. 5(g)(h)).

For modulator-based systems, bit rates are additionally grouped into
*optical power bands* served by the external laser through per-fiber
attenuators: Plow (< 4 Gb/s), Pmid (4-6 Gb/s) and Phigh (6-10 Gb/s), with
Plow = 0.5 Pmid = 0.25 Phigh.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.photonics.constants import MAX_BIT_RATE, NOMINAL_VDD
from repro.units import require_positive


@dataclass(frozen=True)
class BitRateLadder:
    """An ascending tuple of selectable link bit rates."""

    rates: tuple[float, ...]
    #: ``rates[l] / rates[l - 1]`` per level (1.0 at level 0): the
    #: utilisation growth a one-level down-step projects, which the
    #: policy's headroom check reads every window.  Derived once here.
    down_ratios: tuple[float, ...] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if not self.rates:
            raise ConfigError("a ladder needs at least one rate")
        if list(self.rates) != sorted(self.rates):
            raise ConfigError(f"rates must be ascending, got {self.rates!r}")
        if len(set(self.rates)) != len(self.rates):
            raise ConfigError(f"rates must be distinct, got {self.rates!r}")
        for rate in self.rates:
            require_positive("rate", rate)
        rates = self.rates
        object.__setattr__(self, "down_ratios", (1.0,) + tuple(
            rates[level] / rates[level - 1]
            for level in range(1, len(rates))
        ))

    @classmethod
    def linear(cls, min_rate: float, max_rate: float,
               num_levels: int) -> "BitRateLadder":
        """Evenly spaced levels from ``min_rate`` to ``max_rate`` inclusive."""
        require_positive("min_rate", min_rate)
        require_positive("max_rate", max_rate)
        if num_levels < 1:
            raise ConfigError(f"num_levels must be >= 1, got {num_levels!r}")
        if num_levels == 1:
            if min_rate != max_rate:
                raise ConfigError("a one-level ladder needs min == max")
            return cls(rates=(max_rate,))
        if min_rate >= max_rate:
            raise ConfigError("need min_rate < max_rate for multiple levels")
        step = (max_rate - min_rate) / (num_levels - 1)
        rates = [min_rate + i * step for i in range(num_levels - 1)]
        rates.append(max_rate)  # exact top rung, no accumulation error
        return cls(rates=tuple(rates))

    @classmethod
    def paper_default(cls) -> "BitRateLadder":
        """Six levels, 5-10 Gb/s (the paper's preferred configuration)."""
        return cls.linear(5e9, MAX_BIT_RATE, 6)

    @classmethod
    def paper_wide(cls) -> "BitRateLadder":
        """Six levels, 3.3-10 Gb/s (the deeper-savings alternative)."""
        return cls.linear(3.3e9, MAX_BIT_RATE, 6)

    @property
    def num_levels(self) -> int:
        return len(self.rates)

    @property
    def max_rate(self) -> float:
        return self.rates[-1]

    @property
    def min_rate(self) -> float:
        return self.rates[0]

    @property
    def top_level(self) -> int:
        return len(self.rates) - 1

    def rate(self, level: int) -> float:
        """Bit rate at a ladder level (0 = slowest)."""
        self._check_level(level)
        return self.rates[level]

    def vdd(self, level: int) -> float:
        """Supply voltage at a level under linear voltage/rate scaling."""
        return NOMINAL_VDD * self.rate(level) / self.max_rate

    def clamp(self, level: int) -> int:
        """Clamp an arbitrary integer onto the ladder."""
        return min(max(level, 0), self.top_level)

    def level_for_rate(self, rate: float) -> int:
        """Lowest level whose rate is >= ``rate`` (top level if none)."""
        require_positive("rate", rate)
        index = bisect.bisect_left(self.rates, rate)
        return min(index, self.top_level)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < len(self.rates):
            raise ConfigError(
                f"level must be in [0, {len(self.rates)}), got {level!r}"
            )


@dataclass(frozen=True)
class OpticalBands:
    """Quantised optical power bands for modulator-based links.

    ``upper_rates`` holds the exclusive upper bit-rate bound of every band
    except the last (which extends to the maximum rate);
    ``power_fractions`` holds each band's optical power relative to the
    highest band.
    """

    upper_rates: tuple[float, ...] = (4e9, 6e9)
    power_fractions: tuple[float, ...] = (0.25, 0.5, 1.0)

    def __post_init__(self) -> None:
        if len(self.power_fractions) != len(self.upper_rates) + 1:
            raise ConfigError(
                "power_fractions must have one more entry than upper_rates"
            )
        if list(self.upper_rates) != sorted(self.upper_rates):
            raise ConfigError("upper_rates must be ascending")
        if list(self.power_fractions) != sorted(self.power_fractions):
            raise ConfigError("power_fractions must be ascending")
        for fraction in self.power_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigError(
                    f"power fractions must lie in (0, 1], got {fraction!r}"
                )
        if self.power_fractions[-1] != 1.0:
            raise ConfigError("the highest band's power fraction must be 1.0")

    @classmethod
    def single(cls) -> "OpticalBands":
        """One fixed optical level (no external laser controller needed)."""
        return cls(upper_rates=(), power_fractions=(1.0,))

    @classmethod
    def paper_three_level(cls) -> "OpticalBands":
        """Plow < 4 Gb/s, Pmid 4-6 Gb/s, Phigh 6-10 Gb/s; halving steps."""
        return cls(upper_rates=(4e9, 6e9), power_fractions=(0.25, 0.5, 1.0))

    @property
    def num_bands(self) -> int:
        return len(self.power_fractions)

    @property
    def top_band(self) -> int:
        return self.num_bands - 1

    def band_for_rate(self, rate: float) -> int:
        """The band required to support a bit rate.

        Band boundaries are inclusive on the low side: exactly 4 Gb/s needs
        the middle band, exactly 6 Gb/s the high band (paper Section 3.2.2).
        """
        require_positive("rate", rate)
        return bisect.bisect_right(self.upper_rates, rate)

    def fraction(self, band: int) -> float:
        """Optical supply of a band as a fraction of the highest band."""
        if not 0 <= band < self.num_bands:
            raise ConfigError(
                f"band must be in [0, {self.num_bands}), got {band!r}"
            )
        return self.power_fractions[band]

    def attenuation_db(self, band: int) -> float:
        """VOA attenuation relative to the highest band, dB."""
        return -10.0 * math.log10(self.fraction(band))
