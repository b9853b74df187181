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

A policy window costs a few calls per evaluated link:
:meth:`PowerAwareLink.on_window` reads Lu and Bu from the link's and the
downstream port's counters, asks the policy controller for the decision
and the transition engine for the step (see its docstring).
"""

from __future__ import annotations

import math

from repro.config import PolicyConfig, TransitionConfig
from repro.core.laser_policy import OpticalPowerController
from repro.core.levels import BitRateLadder
from repro.core.policy import HOLD, STEP_DOWN, STEP_UP, LinkPolicyController
from repro.core.transitions import STABLE, LinkTransitionEngine
from repro.network.buffers import InputBuffer, mean_utilisation
from repro.network.links import Link
from repro.photonics.power_model import LinkPowerModel


class PowerAwareLink:
    """One link under run-time power control."""

    __slots__ = (
        "link", "ladder", "engine", "policy", "optical", "downstream_buffer",
        "level_powers", "energy_watt_cycles", "_last_charge", "pending_up",
        "windows_observed", "step_down_guard", "guard_holds",
        "last_lu", "last_bu", "last_step_accepted", "parked_flits",
        "completions_on_read",
    )

    def __init__(self, link: Link, ladder: BitRateLadder,
                 power_model: LinkPowerModel, policy_config: PolicyConfig,
                 transition_config: TransitionConfig,
                 service_times: tuple[float, ...],
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
        #: ``service_times`` (router cycles per flit, per ladder level) is
        #: shared the same way: the manager computes it once.
        self.engine = LinkTransitionEngine(
            link, ladder, transition_config, service_times, initial_level
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
        #: (see :meth:`on_window`), or -1.  While the link carries no
        #: new flit and sees no demand pressure, its next window repeats
        #: the last one exactly, and the manager closes it in O(1)
        #: (a zero ``Lu`` in the policy history and one more STEP_DOWN)
        #: instead of calling :meth:`on_window`.
        self.parked_flits = -1
        #: Transition phase completions applied by :meth:`advance`, that
        #: is, by a reader catching the link up rather than by an event.
        self.completions_on_read = 0

    def reset(self, policy_config: PolicyConfig,
              transition_config: TransitionConfig,
              optical: OpticalPowerController | None) -> None:
        """Restore this link's control stack for a warm rerun, in place.

        The structural pieces (transport link, ladder, billing table)
        survive; the policy controller and transition engine are reset
        to their freshly built state under the new point's configs, and
        the optical controller is the one the manager passes in.
        """
        self.policy.reset(policy_config)
        self.engine.reset(transition_config)
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
        self.completions_on_read = 0

    # -- energy accounting ----------------------------------------------------

    def _charge(self, now: float) -> None:
        """Bill the current level's power up to ``now``."""
        elapsed = now - self._last_charge
        if elapsed > 0.0:
            engine = self.engine
            # engine.billing_level, without the property call: this is
            # the engine's billing listener.
            self.energy_watt_cycles += (
                self.level_powers[max(engine.level, engine.target)] * elapsed
            )
            self._last_charge = now

    def current_power(self) -> float:
        """Instantaneous billed power, watts, as of the last catch-up
        (:meth:`advance`)."""
        return self.level_powers[self.engine.billing_level]

    def finalize(self, now: float) -> None:
        """Flush the energy integral at the end of a run."""
        self._charge(now)

    def average_power(self, total_cycles: float) -> float:
        """Mean power over a run of ``total_cycles``, watts."""
        return self.energy_watt_cycles / total_cycles

    # -- control --------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Catch up: apply every transition completion due by ``now``.

        Completions that change only the billed level are not events;
        whoever reads the level applies them first (see
        :meth:`~repro.core.manager.NetworkPowerManager.catch_up`).
        """
        engine = self.engine
        if engine.state is not STABLE and now >= engine.next_event:
            self.completions_on_read += engine.advance(now)

    def on_window(self, start: float, end: float) -> int:
        """Close the policy window ``[start, end]``; returns the decision.

        The caller has applied every transition completion due by
        ``end``.  Lu comes from :meth:`Link.take_counters(end)
        <repro.network.links.Link.take_counters>`, Bu from the downstream
        port's :func:`~repro.network.buffers.mean_utilisation`, the
        decision from :meth:`LinkPolicyController.observe
        <repro.core.policy.LinkPolicyController.observe>` and the step
        from :meth:`LinkTransitionEngine.request_step
        <repro.core.transitions.LinkTransitionEngine.request_step>`: one
        call each.  The optical controller's and the margin guard's
        branches have their own methods.

        Last, the link is *parked* when the window is a fixed point: it
        read ``Lu`` = ``Bu`` = 0, took no step (so ``last_step_accepted``
        stays False) and left the link stable at the ladder floor after a
        rejected STEP_DOWN.  Later all-zero windows repeat that
        STEP_DOWN: appending a zero never raises the Eq. 11 average
        (float sums of non-negative terms are monotone), every other
        input is unchanged, and STEP_DOWN only needs the average to stay
        below TL.  The next window repeats this one as long as nothing
        feeds the link activity.  Here that means no flit in flight at
        ``end``, ejection run flits included (so the serialiser is free
        too), empty downstream buffers, no fault state (retransmissions
        add busy time without a new flit) and no optical controller (its
        epochs move on their own).  The manager checks the rest, no new
        flit and no demand pressure, before it closes a parked window in
        closed form.
        """
        self.windows_observed += 1
        link = self.link
        # Serialisation time straddling the boundary is carried into the
        # next window (exact per-window Lu).
        busy, pressure = link.take_counters(end)
        policy = self.policy
        if policy.config.pressure_aware_utilisation:
            busy = max(busy, pressure)
        lu = min(1.0, busy / (end - start))
        buffers = self.downstream_buffer
        bu = mean_utilisation(buffers, start, end) if buffers else 0.0
        self.last_lu = lu
        self.last_bu = bu
        self.last_step_accepted = False
        engine = self.engine
        decision = policy.observe(lu, bu, self.ladder.down_ratios[engine.level])
        self.parked_flits = -1
        if self.optical is not None:
            return self._optical_window(decision, end)
        if decision == STEP_UP:
            self.last_step_accepted = engine.request_step(STEP_UP, end)
        elif decision == STEP_DOWN:
            if engine.level == 0:
                # At the floor there is no step to ask for (nor a guard to
                # consult); an idle link there is at a fixed point.
                if lu == 0.0 and bu == 0.0 and engine.state is STABLE \
                        and link.faults is None and not link._in_flight \
                        and link.last_arrival <= end \
                        and not (buffers and any(map(len, buffers))):
                    self.parked_flits = link.flits_carried
            elif self.step_down_guard is not None:
                return self._step_down(end)
            else:
                self.last_step_accepted = engine.request_step(STEP_DOWN, end)
        return decision

    def _step_down(self, end: float) -> int:
        """A STEP_DOWN through the margin guard; returns the decision.

        The guard vetoes a step whose lower level's projected BER
        violates the reliability target: the link holds the line (and
        reports HOLD, so transition hooks stay silent).
        """
        engine = self.engine
        guard = self.step_down_guard
        if guard is not None and engine.level > 0 \
                and not guard(engine.level - 1, end):
            self.guard_holds += 1
            return HOLD
        self.last_step_accepted = engine.request_step(STEP_DOWN, end)
        return STEP_DOWN

    def _optical_window(self, decision: int, end: float) -> int:
        """The step half of :meth:`on_window` under an optical controller:
        up-steps wait for the external light; returns the decision."""
        optical = self.optical
        engine = self.engine
        optical.note_rate(engine.operating_rate)
        if self.pending_up:
            # Holding the electrical rate until the external light settles.
            target_rate = self.ladder.rate(self.ladder.clamp(engine.level + 1))
            if optical.can_support(target_rate, end):
                self.pending_up = False
                self.last_step_accepted = engine.request_step(STEP_UP, end)
            return decision
        if decision == STEP_UP:
            if engine.level < self.ladder.top_level:
                target_rate = self.ladder.rate(engine.level + 1)
                if not optical.can_support(target_rate, end):
                    optical.request_increase(target_rate, end)
                    self.pending_up = True
                else:
                    self.last_step_accepted = \
                        engine.request_step(STEP_UP, end)
        elif decision == STEP_DOWN:
            decision = self._step_down(end)
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
