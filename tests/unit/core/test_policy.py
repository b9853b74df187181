"""Unit tests for the link policy controller (paper Section 3.3, Table 1)."""

import pytest

from repro.config import PolicyConfig
from repro.core.policy import HOLD, STEP_DOWN, STEP_UP, LinkPolicyController
from repro.errors import ConfigError


def make_controller(**overrides) -> LinkPolicyController:
    return LinkPolicyController(PolicyConfig(**overrides))


class TestThresholdSelection:
    """Table 1's (TL, TH) pair, read off the decisions at its edges (one
    window of history, so the Eq. 11 average is the sample itself)."""

    @staticmethod
    def decide(lu, bu, **overrides):
        return make_controller(history_windows=1, **overrides).observe(lu, bu)

    def test_uncongested_pair(self):
        # (0.4, 0.6) below Bu_con.
        assert self.decide(0.39, 0.2) == STEP_DOWN
        assert self.decide(0.4, 0.2) == HOLD
        assert self.decide(0.6, 0.2) == HOLD
        assert self.decide(0.61, 0.2) == STEP_UP

    def test_congested_pair_at_bu_con(self):
        # Table 1 switches to (0.6, 0.7) at Bu >= 0.5.
        assert self.decide(
            0.59, 0.5, congestion_inhibits_downscale=False) == STEP_DOWN
        assert self.decide(
            0.6, 0.5, congestion_inhibits_downscale=False) == HOLD
        assert self.decide(0.7, 0.5) == HOLD
        assert self.decide(0.71, 0.5) == STEP_UP

    def test_invalid_bu_rejected(self):
        with pytest.raises(ConfigError):
            make_controller().observe(lu=0.5, bu=1.5)


class TestBasicDecisions:
    def test_high_utilisation_steps_up(self):
        controller = make_controller(history_windows=1)
        assert controller.observe(lu=0.9, bu=0.0) == STEP_UP

    def test_low_utilisation_steps_down(self):
        controller = make_controller(history_windows=1)
        assert controller.observe(lu=0.1, bu=0.0) == STEP_DOWN

    def test_in_band_holds(self):
        controller = make_controller(history_windows=1)
        assert controller.observe(lu=0.5, bu=0.0) == HOLD

    def test_invalid_lu_rejected(self):
        with pytest.raises(ConfigError):
            make_controller().observe(lu=1.5, bu=0.0)

    def test_decision_counters(self):
        controller = make_controller(history_windows=1)
        controller.observe(0.9, 0.0)
        controller.observe(0.1, 0.0)
        controller.observe(0.5, 0.0)
        assert controller.decisions == {STEP_UP: 1, STEP_DOWN: 1, HOLD: 1}


class TestSlidingWindow:
    def test_average_over_history(self):
        controller = make_controller(history_windows=3)
        controller.observe(0.9, 0.0)
        controller.observe(0.9, 0.0)
        controller.observe(0.3, 0.0)
        # Eq. 11: (0.9 + 0.9 + 0.3) / 3 = 0.7.
        assert controller.averaged_utilisation == pytest.approx(0.7)

    def test_history_is_bounded(self):
        controller = make_controller(history_windows=2)
        for lu in (0.9, 0.1, 0.1):
            controller.observe(lu, 0.0)
        assert controller.averaged_utilisation == pytest.approx(0.1)

    def test_one_spike_does_not_trigger_with_history(self):
        controller = make_controller(history_windows=4)
        for _ in range(3):
            controller.observe(0.5, 0.0)
        # A single 1.0 spike averages to 0.625 < 0.7... but above 0.6:
        # with uncongested thresholds it *does* exceed TH=0.6, so use a
        # smaller spike to show smoothing.
        assert controller.observe(0.65, 0.0) == HOLD

    def test_reset_clears_history(self):
        controller = make_controller(history_windows=3)
        controller.observe(0.9, 0.0)
        controller.reset()
        assert controller.averaged_utilisation == 0.0

    def test_reset_restores_fresh_state(self):
        # Regression: reset() used to clear only the history, leaving the
        # decision counters and last (Lu, Bu) sample from the previous run
        # to leak into warm-reused controllers (RC001).
        controller = make_controller(history_windows=3)
        for lu in (0.9, 0.9, 0.1, 0.5):
            controller.observe(lu, 0.8)
        controller.reset()
        fresh = make_controller(history_windows=3)
        assert controller.decisions == fresh.decisions
        assert controller.last_sample == fresh.last_sample == (0.0, 0.0)
        assert controller.averaged_utilisation == fresh.averaged_utilisation

    def test_reset_controller_decides_like_fresh(self):
        controller = make_controller(history_windows=2)
        for lu in (0.95, 0.95, 0.95):
            controller.observe(lu, 0.9)
        controller.reset()
        fresh = make_controller(history_windows=2)
        trace = [(0.7, 0.2), (0.1, 0.0), (0.5, 0.95)]
        for lu, bu in trace:
            assert controller.observe(lu, bu) == fresh.observe(lu, bu)
        assert controller.decisions == fresh.decisions

    def test_last_sample_exposed(self):
        controller = make_controller()
        controller.observe(0.3, 0.7)
        assert controller.last_sample == (0.3, 0.7)


class TestCongestedBehaviour:
    def test_congested_raises_bar_for_up(self):
        # Lu 0.65 steps up when uncongested (TH 0.6) but holds when
        # congested (TH 0.7) — the paper's "more aggressive" saving.
        uncongested = make_controller(history_windows=1)
        congested = make_controller(history_windows=1)
        assert uncongested.observe(0.65, bu=0.0) == STEP_UP
        assert congested.observe(0.65, bu=0.6) == HOLD

    def test_guard_blocks_down_when_congested(self):
        controller = make_controller(history_windows=1)
        # Lu below congested TL=0.6 would step down per Table 1; the
        # stability guard holds instead (starved-link reading).
        assert controller.observe(0.3, bu=0.6) == HOLD

    def test_paper_literal_mode_steps_down_when_congested(self):
        controller = make_controller(history_windows=1,
                                     congestion_inhibits_downscale=False)
        assert controller.observe(0.3, bu=0.6) == STEP_DOWN

    def test_rescue_fires_on_very_full_buffer(self):
        controller = make_controller(history_windows=1)
        # Even with Lu near zero (credit starvation), a nearly full
        # downstream buffer forces an up-step.
        assert controller.observe(0.05, bu=0.8) == STEP_UP

    def test_rescue_disabled_when_threshold_above_one(self):
        controller = make_controller(history_windows=1, rescue_threshold=1.1)
        assert controller.observe(0.05, bu=0.85) == HOLD  # guard holds it

    def test_rescue_threshold_must_exceed_congestion(self):
        with pytest.raises(ConfigError):
            PolicyConfig(rescue_threshold=0.3, congestion_threshold=0.5)


class TestHeadroomCheck:
    def test_headroom_blocks_marginal_down(self):
        # Uncongested: Lu_a = 0.39 < TL=0.4 wants DOWN, but at a 2x slower
        # level the projected 0.78 > TH=0.6 -> hold.
        controller = make_controller(history_windows=1)
        assert controller.observe(0.39, bu=0.0, down_ratio=2.0) == HOLD

    def test_down_allowed_with_headroom(self):
        controller = make_controller(history_windows=1)
        assert controller.observe(0.2, bu=0.0, down_ratio=1.2) == STEP_DOWN

    def test_headroom_check_can_be_disabled(self):
        controller = make_controller(history_windows=1,
                                     downscale_headroom_check=False)
        assert controller.observe(0.39, bu=0.0, down_ratio=2.0) == STEP_DOWN

    def test_invalid_down_ratio_rejected(self):
        with pytest.raises(ConfigError):
            make_controller().observe(0.5, 0.0, down_ratio=0.5)


class TestThresholdSweepHelper:
    def test_with_average_threshold(self):
        config = PolicyConfig().with_average_threshold(0.55)
        assert config.threshold_low_uncongested == pytest.approx(0.5)
        assert config.threshold_high_uncongested == pytest.approx(0.6)
        # Congested pair shifts by the same offset.
        assert config.threshold_low_congested == pytest.approx(0.65)

    def test_out_of_range_average_rejected(self):
        with pytest.raises(ConfigError):
            PolicyConfig().with_average_threshold(0.02)
