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

Only the end of an up-step's voltage ramp changes what a flit sees (it
starts the relock: the link is disabled and retuned), so only that phase
end needs to be applied on time.  The others (a relock's end, a down-
step's ramp-down end) change only the billed level, and
:meth:`~LinkTransitionEngine.advance` may apply them late: every phase
completes at its own exact timestamp whenever it is applied.
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


#: The states, as module constants for the identity tests on the
#: per-step paths.
STABLE = TransitionState.STABLE
RAMP_UP = TransitionState.VOLTAGE_RAMP_UP
RELOCK = TransitionState.RELOCK
RAMP_DOWN = TransitionState.VOLTAGE_RAMP_DOWN


class LinkTransitionEngine:
    """Drives one link through level changes with realistic delays."""

    __slots__ = (
        "link", "ladder", "config", "service_times", "level", "target",
        "state", "next_event", "steps_up", "steps_down", "disabled_cycles",
        "billing_listener",
    )

    def __init__(self, link: Link, ladder: BitRateLadder,
                 config: TransitionConfig,
                 service_times: tuple[float, ...],
                 initial_level: int | None = None):
        self.link = link
        self.ladder = ladder
        self.config = config
        #: The link service time in router cycles, per ladder level.
        self.service_times = service_times
        self.level = ladder.top_level if initial_level is None \
            else ladder.clamp(initial_level)
        self.target = self.level
        self.state = TransitionState.STABLE
        self.next_event = 0.0
        self.steps_up = 0
        self.steps_down = 0
        self.disabled_cycles = 0.0
        self.billing_listener: Callable[[float], None] | None = None
        link.set_service_time(service_times[self.level])

    def reset(self, config: TransitionConfig) -> None:
        """Restore the freshly built state at the ladder top, in place,
        under the transition delays of ``config`` (a warm rerun)."""
        self.config = config
        self.level = self.ladder.top_level
        self.target = self.level
        self.state = TransitionState.STABLE
        self.next_event = 0.0
        self.steps_up = 0
        self.steps_down = 0
        self.disabled_cycles = 0.0
        self.link.set_service_time(self.service_times[self.level])

    @property
    def in_transition(self) -> bool:
        return self.state is not TransitionState.STABLE

    @property
    def billing_level(self) -> int:
        """Ladder level whose power the link is currently billed at.

        The billing rule.  :meth:`PowerAwareLink._charge
        <repro.core.power_link.PowerAwareLink._charge>`, the billing
        listener run at every step and completion, writes it out instead
        of calling this property; a change here changes it there too.
        """
        return max(self.level, self.target)

    @property
    def operating_rate(self) -> float:
        """Bit rate currently configured on the link serialiser."""
        if self.state in (TransitionState.STABLE,
                          TransitionState.VOLTAGE_RAMP_UP):
            return self.ladder.rate(self.level)
        return self.ladder.rate(self.target)

    def request_step(self, direction: int, now: float) -> bool:
        """Ask for a one-level step; returns whether it was accepted.

        Rejected while another transition is in flight (the policy simply
        re-evaluates at the next window) or when already at the ladder end.
        An accepted step flushes billing at ``now`` first.
        """
        if direction != 1 and direction != -1:
            raise LinkStateError(f"direction must be +-1, got {direction!r}")
        if self.state is not STABLE:
            return False
        new_level = self.level + direction
        if not 0 <= new_level < len(self.ladder.rates):
            return False
        listener = self.billing_listener
        if listener is not None:
            listener(now)
        self.target = new_level
        if direction > 0:
            self.steps_up += 1
            self.state = RAMP_UP
            self.next_event = now + self.config.voltage_transition_cycles
        else:
            self.steps_down += 1
            self._begin_relock(now)
        if now >= self.next_event:
            # Zero-delay configurations complete instantly.
            self.advance(now)
        return True

    def _begin_relock(self, when: float) -> None:
        relock = self.config.bit_rate_transition_cycles
        link = self.link
        link.disable_for(when, relock)
        link.set_service_time(self.service_times[self.target])
        self.disabled_cycles += relock
        self.state = RELOCK
        self.next_event = when + relock

    def advance(self, now: float) -> int:
        """Apply every phase completion due by ``now``; return how many.

        Each completion takes effect at its own timestamp.  Only the end
        of a voltage ramp-up must be applied on time (it disables and
        retunes the link); the others may be applied late.
        """
        applied = 0
        while self.state is not STABLE and now >= self.next_event:
            applied += 1
            event_time = self.next_event
            if self.state is RAMP_UP:
                self._begin_relock(event_time)
            elif self.state is RELOCK:
                if self.target > self.level:
                    # Up-step: voltage was raised first, so we are done.
                    if self.billing_listener is not None:
                        self.billing_listener(event_time)
                    self.level = self.target
                    self.state = STABLE
                else:
                    # Down-step: ramp the voltage down in the background.
                    self.state = RAMP_DOWN
                    self.next_event = (
                        event_time + self.config.voltage_transition_cycles
                    )
            elif self.state is RAMP_DOWN:
                if self.billing_listener is not None:
                    self.billing_listener(event_time)
                self.level = self.target
                self.state = STABLE
        return applied
