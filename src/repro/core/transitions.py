"""Per-link transition state machine (paper Sections 3.2.1 and 4.1).

Changing a link's operating level is not free:

* **Voltage transitions** are slow (T_v = 100 cycles) but non-blocking —
  the link keeps running while the supply ramps, because the control policy
  orders the ramp so performance constraints always hold: *up* before a
  frequency increase, *down* after a frequency decrease.
* **Frequency (bit-rate) transitions** disable the link for T_br = 20
  cycles while the receiver CDR re-locks.

So a *step up* is: ramp voltage (T_v, link live at the old rate) ->
switch frequency (T_br, link disabled) -> stable at the new level.  A
*step down* is: switch frequency (T_br, disabled) -> ramp voltage down
(T_v, link live at the new rate) -> stable.

Energy accounting is conservative: while any transition is in flight the
link is billed at the *higher* of the old and new levels (the supply is at
or moving through the higher voltage for most of the transition).

The engine never initiates anything by itself — the policy calls
:meth:`LinkTransitionEngine.request_step`; the power manager calls
:meth:`~LinkTransitionEngine.advance` as simulation time passes.  A
``billing_listener`` callback is invoked with the exact event timestamp
right before the billed level changes, so the energy integrator can flush
precisely.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.config import TransitionConfig
from repro.core.levels import BitRateLadder
from repro.errors import LinkStateError
from repro.network.links import Link


class TransitionState(enum.Enum):
    """Phase of the per-link transition state machine."""

    STABLE = "stable"
    VOLTAGE_RAMP_UP = "voltage_ramp_up"
    RELOCK = "relock"
    VOLTAGE_RAMP_DOWN = "voltage_ramp_down"


class LinkTransitionEngine:
    """Drives one link through level changes with realistic delays."""

    __slots__ = (
        "link", "ladder", "config", "service_time_fn", "level", "target",
        "state", "next_event", "steps_up", "steps_down", "disabled_cycles",
        "billing_listener",
    )

    def __init__(self, link: Link, ladder: BitRateLadder,
                 config: TransitionConfig,
                 service_time_fn: Callable[[int], float],
                 initial_level: int | None = None):
        self.link = link
        self.ladder = ladder
        self.config = config
        #: Maps a ladder level to the link service time in router cycles.
        self.service_time_fn = service_time_fn
        self.level = ladder.top_level if initial_level is None \
            else ladder.clamp(initial_level)
        self.target = self.level
        self.state = TransitionState.STABLE
        self.next_event = 0.0
        self.steps_up = 0
        self.steps_down = 0
        self.disabled_cycles = 0.0
        self.billing_listener: Callable[[float], None] | None = None
        link.set_service_time(service_time_fn(self.level))

    @property
    def in_transition(self) -> bool:
        return self.state is not TransitionState.STABLE

    @property
    def billing_level(self) -> int:
        """Ladder level whose power the link is currently billed at."""
        return max(self.level, self.target)

    @property
    def operating_rate(self) -> float:
        """Bit rate currently configured on the link serialiser."""
        if self.state in (TransitionState.STABLE,
                          TransitionState.VOLTAGE_RAMP_UP):
            return self.ladder.rate(self.level)
        return self.ladder.rate(self.target)

    def _notify(self, when: float) -> None:
        if self.billing_listener is not None:
            self.billing_listener(when)

    def request_step(self, direction: int, now: float) -> bool:
        """Ask for a one-level step; returns whether it was accepted.

        Rejected while another transition is in flight (the policy simply
        re-evaluates at the next window) or when already at the ladder end.
        """
        if direction not in (-1, 1):
            raise LinkStateError(f"direction must be +-1, got {direction!r}")
        if self.in_transition:
            return False
        new_level = self.ladder.clamp(self.level + direction)
        if new_level == self.level:
            return False
        self._notify(now)
        self.target = new_level
        if direction > 0:
            self.steps_up += 1
            self.state = TransitionState.VOLTAGE_RAMP_UP
            self.next_event = now + self.config.voltage_transition_cycles
        else:
            self.steps_down += 1
            self._begin_relock(now)
        # Zero-delay configurations complete instantly.
        self.advance(now)
        return True

    def _begin_relock(self, when: float) -> None:
        relock = self.config.bit_rate_transition_cycles
        self.link.disable_for(when, relock)
        self.link.set_service_time(self.service_time_fn(self.target))
        self.disabled_cycles += relock
        self.state = TransitionState.RELOCK
        self.next_event = when + relock

    def advance(self, now: float) -> None:
        """Process every phase completion whose time has arrived."""
        while self.in_transition and now >= self.next_event:
            event_time = self.next_event
            if self.state is TransitionState.VOLTAGE_RAMP_UP:
                self._begin_relock(event_time)
            elif self.state is TransitionState.RELOCK:
                if self.target > self.level:
                    # Up-step: voltage was raised first, so we are done.
                    self._notify(event_time)
                    self.level = self.target
                    self.state = TransitionState.STABLE
                else:
                    # Down-step: ramp the voltage down in the background.
                    self.state = TransitionState.VOLTAGE_RAMP_DOWN
                    self.next_event = (
                        event_time + self.config.voltage_transition_cycles
                    )
            elif self.state is TransitionState.VOLTAGE_RAMP_DOWN:
                self._notify(event_time)
                self.level = self.target
                self.state = TransitionState.STABLE
