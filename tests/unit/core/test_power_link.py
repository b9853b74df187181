"""Unit tests for the power-aware link binding."""

import pytest

from repro.config import PolicyConfig, TransitionConfig
from repro.core.laser_policy import OpticalPowerController
from repro.core.levels import BitRateLadder, OpticalBands
from repro.core.power_link import PowerAwareLink
from repro.network.buffers import InputBuffer
from repro.network.links import MESH, Link
from repro.photonics.power_model import LinkPowerModel

TV = 10
TBR = 2
WINDOW = 100.0


def make_pal(optical=False, initial_level=None):
    link = Link(0, MESH)
    ladder = BitRateLadder.paper_default()
    transitions = TransitionConfig(
        bit_rate_transition_cycles=TBR,
        voltage_transition_cycles=TV,
        optical_transition_cycles=300,
        laser_epoch_cycles=600,
    )
    controller = None
    if optical:
        controller = OpticalPowerController(
            OpticalBands.paper_three_level(), transitions, initial_band=0
        )
    buffer = InputBuffer(16)
    pal = PowerAwareLink(
        link=link,
        ladder=ladder,
        power_model=LinkPowerModel.vcsel_link(),
        policy_config=PolicyConfig(window_cycles=int(WINDOW),
                                   history_windows=1),
        transition_config=transitions,
        service_times=tuple(ladder.max_rate / rate for rate in ladder.rates),
        downstream_buffer=(buffer,),
        optical=controller,
        initial_level=initial_level,
    )
    return pal, link, buffer


class TestEnergyAccounting:
    def test_constant_level_energy(self):
        pal, _, _ = make_pal()
        pal.finalize(1000.0)
        expected = pal.level_powers[5] * 1000.0
        assert pal.energy_watt_cycles == pytest.approx(expected)

    def test_average_power(self):
        pal, _, _ = make_pal(initial_level=0)
        pal.finalize(500.0)
        assert pal.average_power(500.0) == pytest.approx(pal.level_powers[0])

    def test_energy_across_one_down_step(self):
        pal, link, _ = make_pal()
        # Idle window -> step down; billing stays at the old level until
        # the voltage ramp completes.
        pal.on_window(0.0, WINDOW)
        assert pal.engine.in_transition
        for t in range(int(WINDOW), int(WINDOW) + TV + TBR + 2):
            pal.advance(float(t))
        pal.finalize(2 * WINDOW)
        high, low = pal.level_powers[5], pal.level_powers[4]
        transition_end = WINDOW + TBR + TV
        expected = high * transition_end + low * (2 * WINDOW - transition_end)
        assert pal.energy_watt_cycles == pytest.approx(expected, rel=1e-6)

    def test_current_power_tracks_billing(self):
        pal, _, _ = make_pal(initial_level=3)
        assert pal.current_power() == pal.level_powers[3]


class TestWindowDecisions:
    def test_idle_link_descends(self):
        pal, _, _ = make_pal()
        start = 0.0
        for i in range(20):
            end = start + WINDOW
            pal.on_window(start, end)
            for t in range(int(end), int(end) + TV + TBR + 2):
                pal.advance(float(t))
            start = end
        assert pal.level == 0

    def test_busy_link_climbs(self):
        pal, link, _ = make_pal(initial_level=0)
        start = 0.0
        for i in range(20):
            end = start + WINDOW
            link.busy_accum = WINDOW  # fully busy window
            pal.on_window(start, end)
            for t in range(int(end), int(end) + TV + TBR + 2):
                pal.advance(float(t))
            start = end
        assert pal.level == 5

    def test_bu_read_from_downstream_buffers(self):
        pal, link, buffer = make_pal()
        from repro.network.packet import Packet

        flit = Packet(1, 0, 1, 1, 0).make_flits()[0]
        buffer.push(flit, 0.0)  # occupies 1/16 for the window
        link.busy_accum = WINDOW * 0.5
        pal.on_window(0.0, WINDOW)
        assert pal.policy.last_sample[1] == pytest.approx(1 / 16)

    def test_windows_observed_counter(self):
        pal, _, _ = make_pal()
        pal.on_window(0.0, WINDOW)
        pal.on_window(WINDOW, 2 * WINDOW)
        assert pal.windows_observed == 2


class TestOpticalGating:
    def test_up_step_waits_for_light(self):
        pal, link, _ = make_pal(optical=True, initial_level=0)
        # Level 0 = 5 Gb/s needs band 1; the controller starts at band 0,
        # so even the first up-step (to 6 Gb/s = band 2) must wait.
        link.busy_accum = WINDOW
        pal.on_window(0.0, WINDOW)
        assert pal.pending_up
        assert not pal.engine.in_transition
        assert pal.optical.in_transition

    def test_up_step_proceeds_once_light_settles(self):
        pal, link, _ = make_pal(optical=True, initial_level=0)
        link.busy_accum = WINDOW
        pal.on_window(0.0, WINDOW)          # requests Pinc (settle 300)
        link.busy_accum = WINDOW
        pal.on_window(WINDOW, 2 * WINDOW)   # still settling
        assert pal.pending_up
        link.busy_accum = WINDOW
        pal.on_window(3 * WINDOW, 4 * WINDOW)  # 400 > 300: light is there
        assert not pal.pending_up
        assert pal.engine.in_transition

    def test_rate_usage_noted_for_epochs(self):
        pal, link, _ = make_pal(optical=True, initial_level=0)
        pal.on_window(0.0, WINDOW)
        assert pal.optical.max_band_needed == \
            pal.optical.bands.band_for_rate(5e9)


class TestReporting:
    def test_bit_rate_property(self):
        pal, _, _ = make_pal(initial_level=2)
        assert pal.bit_rate == 7e9

    def test_transition_counts(self):
        pal, _, _ = make_pal()
        pal.on_window(0.0, WINDOW)
        assert pal.transition_counts() == {"up": 0, "down": 1}
