"""Unit tests for the link transition state machine (paper Section 3.2)."""

import pytest

from repro.config import TransitionConfig
from repro.core.levels import BitRateLadder
from repro.core.transitions import LinkTransitionEngine, TransitionState
from repro.errors import LinkStateError
from repro.network.links import MESH, Link

TV = 100
TBR = 20


def make_engine(initial_level=None, tv=TV, tbr=TBR):
    link = Link(0, MESH)
    ladder = BitRateLadder.paper_default()
    config = TransitionConfig(bit_rate_transition_cycles=tbr,
                              voltage_transition_cycles=tv)

    service_times = tuple(ladder.max_rate / rate for rate in ladder.rates)
    engine = LinkTransitionEngine(link, ladder, config, service_times,
                                  initial_level)
    return engine, link


class TestInitialState:
    def test_starts_at_top_by_default(self):
        engine, link = make_engine()
        assert engine.level == 5
        assert link.service_time == pytest.approx(1.0)

    def test_explicit_initial_level(self):
        engine, link = make_engine(initial_level=0)
        assert engine.level == 0
        assert link.service_time == pytest.approx(2.0)

    def test_stable_initially(self):
        engine, _ = make_engine()
        assert not engine.in_transition


class TestStepDown:
    def test_sequence(self):
        engine, link = make_engine()
        assert engine.request_step(-1, now=1000.0)
        # Frequency switches first: link disabled for T_br, new service
        # time already configured.
        assert engine.state is TransitionState.RELOCK
        assert link.disabled_until == 1000.0 + TBR
        assert link.service_time == pytest.approx(10.0 / 9.0)
        # After relock: voltage ramps down in the background (link live).
        engine.advance(1000.0 + TBR)
        assert engine.state is TransitionState.VOLTAGE_RAMP_DOWN
        assert link.can_accept(1000.0 + TBR)
        # After the ramp: stable at the lower level.
        engine.advance(1000.0 + TBR + TV)
        assert engine.state is TransitionState.STABLE
        assert engine.level == 4

    def test_billing_stays_high_during_down(self):
        engine, _ = make_engine()
        engine.request_step(-1, now=0.0)
        assert engine.billing_level == 5
        engine.advance(TBR)
        assert engine.billing_level == 5  # voltage still ramping down
        engine.advance(TBR + TV)
        assert engine.billing_level == 4

    def test_step_down_at_bottom_refused(self):
        engine, _ = make_engine(initial_level=0)
        assert not engine.request_step(-1, now=0.0)


class TestStepUp:
    def test_sequence(self):
        engine, link = make_engine(initial_level=0)
        assert engine.request_step(1, now=0.0)
        # Voltage rises first; link keeps running at the old rate.
        assert engine.state is TransitionState.VOLTAGE_RAMP_UP
        assert link.can_accept(10.0)
        assert link.service_time == pytest.approx(2.0)
        # Then the frequency hop disables the link for T_br.
        engine.advance(float(TV))
        assert engine.state is TransitionState.RELOCK
        assert not link.can_accept(TV + TBR - 1.0)
        assert link.service_time == pytest.approx(10e9 / 6e9)
        engine.advance(float(TV + TBR))
        assert engine.state is TransitionState.STABLE
        assert engine.level == 1

    def test_billing_jumps_to_target_on_up(self):
        engine, _ = make_engine(initial_level=0)
        engine.request_step(1, now=0.0)
        assert engine.billing_level == 1

    def test_step_up_at_top_refused(self):
        engine, _ = make_engine()
        assert not engine.request_step(1, now=0.0)

    def test_request_during_transition_refused(self):
        engine, _ = make_engine(initial_level=0)
        assert engine.request_step(1, now=0.0)
        assert not engine.request_step(1, now=10.0)
        assert not engine.request_step(-1, now=10.0)

    def test_operating_rate_during_phases(self):
        engine, _ = make_engine(initial_level=0)
        engine.request_step(1, now=0.0)
        assert engine.operating_rate == 5e9      # still old during ramp
        engine.advance(float(TV))
        assert engine.operating_rate == 6e9      # switched at relock


class TestZeroDelay:
    def test_instant_completion(self):
        engine, link = make_engine(initial_level=0, tv=0, tbr=0)
        assert engine.request_step(1, now=0.0)
        assert engine.state is TransitionState.STABLE
        assert engine.level == 1
        assert link.can_accept(0.0)


class TestBookkeeping:
    def test_counters(self):
        engine, _ = make_engine(initial_level=2)
        engine.request_step(1, now=0.0)
        engine.advance(1000.0)
        engine.request_step(-1, now=2000.0)
        engine.advance(5000.0)
        assert engine.steps_up == 1
        assert engine.steps_down == 1
        assert engine.disabled_cycles == 2 * TBR

    def test_billing_listener_called_with_event_times(self):
        engine, _ = make_engine(initial_level=0)
        times = []
        engine.billing_listener = times.append
        engine.request_step(1, now=7.0)
        engine.advance(1000.0)
        assert times[0] == 7.0                 # request time
        assert times[-1] == 7.0 + TV + TBR     # completion time

    def test_invalid_direction_rejected(self):
        engine, _ = make_engine()
        with pytest.raises(LinkStateError):
            engine.request_step(2, now=0.0)
