"""Power-aware link: transport + ladder + policy + transitions + energy.

This is where the paper's pieces meet: a :class:`PowerAwareLink` binds one
transport :class:`~repro.network.links.Link` to

* a :class:`~repro.core.levels.BitRateLadder` and the per-level power drawn
  from a :class:`~repro.photonics.power_model.LinkPowerModel`,
* a :class:`~repro.core.policy.LinkPolicyController` making window-boundary
  decisions from the link's Lu/Bu counters,
* a :class:`~repro.core.transitions.LinkTransitionEngine` executing those
  decisions with realistic delays, and
* (modulator systems with multiple optical levels) an
  :class:`~repro.core.laser_policy.OpticalPowerController` gating upward
  bit-rate steps on external light availability.

Energy accounting is exact and O(state changes): the link is billed at its
current level's power between billing events; the transition engine reports
every billing change with its precise timestamp.
"""

from __future__ import annotations

import math

from repro.config import PolicyConfig, TransitionConfig
from repro.core.laser_policy import OpticalPowerController
from repro.core.levels import BitRateLadder
from repro.core.policy import HOLD, STEP_DOWN, STEP_UP, LinkPolicyController
from repro.core.transitions import LinkTransitionEngine, TransitionState
from repro.network.buffers import InputBuffer
from repro.network.links import Link
from repro.photonics.power_model import LinkPowerModel


class PowerAwareLink:
    """One link under run-time power control."""

    __slots__ = (
        "link", "ladder", "engine", "policy", "optical", "downstream_buffer",
        "level_powers", "energy_watt_cycles", "_last_charge", "pending_up",
        "windows_observed", "step_down_guard", "guard_holds",
        "last_lu", "last_bu", "last_step_accepted", "parked_flits",
    )

    def __init__(self, link: Link, ladder: BitRateLadder,
                 power_model: LinkPowerModel, policy_config: PolicyConfig,
                 transition_config: TransitionConfig,
                 service_time_fn,
                 downstream_buffer: tuple[InputBuffer, ...] | None,
                 optical: OpticalPowerController | None = None,
                 initial_level: int | None = None,
                 level_powers: tuple[float, ...] | None = None):
        self.link = link
        self.ladder = ladder
        #: Power (watts) per ladder level.  The manager passes in one shared
        #: :class:`~repro.core.tables.OperatingPointTable` row so the model
        #: is evaluated once per network, not once per link; standalone
        #: construction (unit tests) falls back to evaluating the model.
        if level_powers is None:
            level_powers = tuple(power_model.power(r) for r in ladder.rates)
        self.level_powers = level_powers
        self.policy = LinkPolicyController(policy_config)
        self.engine = LinkTransitionEngine(
            link, ladder, transition_config, service_time_fn, initial_level
        )
        self.engine.billing_listener = self._charge
        self.optical = optical
        self.downstream_buffer = downstream_buffer
        self.energy_watt_cycles = 0.0
        self._last_charge = 0.0
        self.pending_up = False
        self.windows_observed = 0
        #: Optional BER margin guard (assigned by the reliability manager):
        #: ``guard(target_level, now) -> bool`` — False vetoes a policy
        #: STEP_DOWN whose target level would violate the BER margin.
        self.step_down_guard = None
        #: Down-steps vetoed by the margin guard.
        self.guard_holds = 0
        #: Most recent window's utilisation readings (telemetry ``policy``
        #: hook payload; NaN until the first window closes).
        self.last_lu = math.nan
        self.last_bu = math.nan
        #: Whether this window's step request was accepted by the
        #: transition engine (False for holds, deferred/rejected steps and
        #: ladder-end no-ops) — telemetry ``transition`` hook payload.
        self.last_step_accepted = False
        #: ``link.flits_carried`` when the last window *parked* this link
        #: (see :meth:`_park`), or -1.  While the link carries no
        #: new flit and sees no demand pressure, its next window repeats
        #: the last one exactly, and the manager closes it in O(1)
        #: (a zero ``Lu`` in the policy history and one more STEP_DOWN)
        #: instead of calling :meth:`on_window`.
        self.parked_flits = -1

    def reset(self, policy_config: PolicyConfig,
              transition_config: TransitionConfig,
              optical: OpticalPowerController | None) -> None:
        """Rebind this link's control stack for a warm rerun.

        The structural pieces (transport link, ladder, billing table)
        survive; the policy controller, transition engine and optical
        controller are rebuilt *fresh* from the new point's configs —
        construction is cheap and makes bit-identity with a freshly
        built :class:`PowerAwareLink` hold trivially.
        """
        self.policy = LinkPolicyController(policy_config)
        self.engine = LinkTransitionEngine(
            self.link, self.ladder, transition_config,
            self.engine.service_time_fn,
        )
        self.engine.billing_listener = self._charge
        self.optical = optical
        self.energy_watt_cycles = 0.0
        self._last_charge = 0.0
        self.pending_up = False
        self.windows_observed = 0
        self.step_down_guard = None
        self.guard_holds = 0
        self.last_lu = math.nan
        self.last_bu = math.nan
        self.last_step_accepted = False
        self.parked_flits = -1

    # -- energy accounting ----------------------------------------------------

    def _charge(self, now: float) -> None:
        """Bill the current level's power up to ``now``."""
        elapsed = now - self._last_charge
        if elapsed > 0.0:
            self.energy_watt_cycles += (
                self.level_powers[self.engine.billing_level] * elapsed
            )
            self._last_charge = now

    def current_power(self) -> float:
        """Instantaneous billed power, watts."""
        return self.level_powers[self.engine.billing_level]

    def finalize(self, now: float) -> None:
        """Flush the energy integral at the end of a run."""
        self._charge(now)

    def average_power(self, total_cycles: float) -> float:
        """Mean power over a run of ``total_cycles``, watts."""
        return self.energy_watt_cycles / total_cycles

    # -- control --------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Progress any in-flight transition (cheap no-op guard)."""
        engine = self.engine
        if engine.in_transition and now >= engine.next_event:
            engine.advance(now)

    def on_window(self, start: float, end: float) -> int:
        """Window-boundary policy evaluation; returns the decision taken.

        Also parks the link when the outcome is a fixed point that the
        following windows will repeat (see :meth:`_park`).
        """
        decision = self._evaluate(start, end)
        self._park(decision, end)
        return decision

    def _park(self, decision: int, end: float) -> None:
        """Park this link if the window it just closed is a fixed point.

        That is the case when the window read ``Lu`` = ``Bu`` = 0, took
        no step (so ``last_step_accepted`` stays False) and left the
        link stable at the ladder floor after a rejected STEP_DOWN.
        Later all-zero windows repeat that STEP_DOWN: appending a zero
        never raises the Eq. 11 average (float sums of non-negative
        terms are monotone), every other input is unchanged, and
        STEP_DOWN only needs the average to stay below TL.

        The next window repeats this one as long as nothing feeds the
        link activity.  Here that means no flit in flight at ``end``,
        ejection run flits included (so the serialiser is free too),
        empty downstream buffers, no fault state (retransmissions add
        busy time without a new flit) and no optical controller (its
        epochs move on their own).  The manager checks the rest, no new
        flit and no demand pressure, before it closes a parked window in
        closed form.
        """
        self.parked_flits = -1
        engine = self.engine
        if decision != STEP_DOWN or engine.level != 0 \
                or engine.state is not TransitionState.STABLE:
            return
        if self.last_lu != 0.0 or self.last_bu != 0.0 \
                or self.last_step_accepted or self.optical is not None:
            return
        link = self.link
        if link.faults is not None or link.in_flight_at(end):
            return
        buffers = self.downstream_buffer
        if buffers:
            for buffer in buffers:
                if not buffer.is_empty:
                    return
        self.parked_flits = link.flits_carried

    def _evaluate(self, start: float, end: float) -> int:
        self.windows_observed += 1
        window = end - start
        # Pass the window end so serialisation time straddling the boundary
        # is carried into the next window (exact per-window Lu).
        busy = self.link.take_busy_time(end)
        pressure = self.link.take_pressure_time()
        if self.policy.config.pressure_aware_utilisation:
            busy = max(busy, pressure)
        lu = min(1.0, busy / window)
        buffers = self.downstream_buffer
        if buffers:
            bu = sum(
                b.mean_utilisation(start, end) for b in buffers
            ) / len(buffers)
        else:
            bu = 0.0
        self.last_lu = lu
        self.last_bu = bu
        self.last_step_accepted = False
        decision = self.policy.observe(
            lu, bu, self.ladder.down_ratios[self.engine.level])

        if self.optical is not None:
            self.optical.note_rate(self.engine.operating_rate)

        if self.pending_up:
            # Holding the electrical rate until the external light settles.
            target_rate = self.ladder.rate(
                self.ladder.clamp(self.engine.level + 1)
            )
            if self.optical.can_support(target_rate, end):
                self.pending_up = False
                self.last_step_accepted = \
                    self.engine.request_step(STEP_UP, end)
            return decision

        if decision == STEP_UP:
            if self.engine.level < self.ladder.top_level:
                target_rate = self.ladder.rate(self.engine.level + 1)
                if self.optical is not None and not self.optical.can_support(
                        target_rate, end):
                    self.optical.request_increase(target_rate, end)
                    self.pending_up = True
                else:
                    self.last_step_accepted = \
                        self.engine.request_step(STEP_UP, end)
        elif decision == STEP_DOWN:
            guard = self.step_down_guard
            if guard is not None and self.engine.level > 0 \
                    and not guard(self.engine.level - 1, end):
                # Margin guard: the lower level's projected BER violates
                # the reliability target — hold the line (and report HOLD
                # so transition hooks stay silent).
                self.guard_holds += 1
                decision = HOLD
            else:
                self.last_step_accepted = \
                    self.engine.request_step(STEP_DOWN, end)
        return decision

    # -- reporting ------------------------------------------------------------

    @property
    def level(self) -> int:
        """Committed ladder level."""
        return self.engine.level

    @property
    def bit_rate(self) -> float:
        """Committed bit rate, bits per second."""
        return self.ladder.rate(self.engine.level)

    def transition_counts(self) -> dict[str, int]:
        return {
            "up": self.engine.steps_up,
            "down": self.engine.steps_down,
        }
