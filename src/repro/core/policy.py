"""The link policy controller (paper Section 3.3, Eqs. 10-11, Table 1).

One controller sits at every link (Fig. 4(b)).  Hardware counters collect,
over each time window ``Tw``:

* ``Lu`` — link utilisation: the fraction of router cycles in which a flit
  traverses the output link (Eq. 10);
* ``Bu`` — buffer utilisation: the average fraction of the *next* router's
  input buffers that are occupied (Eq. 10), used as a congestion signal.

At each window boundary the controller averages ``Lu`` over a sliding
window of the last ``N`` samples (Eq. 11) and compares it against a
(TL, TH) threshold pair chosen by congestion state: when ``Bu`` exceeds
``Bu_con`` = 0.5, queueing delay masks link slowness, so the more
aggressive (higher) thresholds of Table 1 apply.

The controller is a pure decision function over its small internal history:
it never touches the link itself, which keeps it unit- and property-
testable.  The decision is ``+1`` (step one level up), ``-1`` (one level
down) or ``0`` (hold).
"""

from __future__ import annotations

from collections import deque

from repro.config import PolicyConfig
from repro.errors import ConfigError

STEP_UP = 1
HOLD = 0
STEP_DOWN = -1


class LinkPolicyController:
    """Windowed-utilisation bit-rate policy for one link."""

    __slots__ = ("config", "_history", "decisions", "_last_lu", "_last_bu")

    def __init__(self, config: PolicyConfig):
        self.config = config
        self._history: deque[float] = deque(maxlen=config.history_windows)
        #: Counts of (-1, 0, +1) decisions, for reporting.
        self.decisions = {STEP_DOWN: 0, HOLD: 0, STEP_UP: 0}
        self._last_lu = 0.0
        self._last_bu = 0.0

    @property
    def averaged_utilisation(self) -> float:
        """Eq. 11: mean link utilisation over the sliding history."""
        if not self._history:
            return 0.0
        return sum(self._history) / len(self._history)

    @property
    def last_sample(self) -> tuple[float, float]:
        """The most recent (Lu, Bu) observation."""
        return self._last_lu, self._last_bu

    def observe(self, lu: float, bu: float, down_ratio: float = 1.0) -> int:
        """Consume one window's (Lu, Bu) sample and emit a decision.

        ``down_ratio`` is ``rate_current / rate_one_level_down`` (>= 1),
        used by the headroom check to project utilisation after a
        down-step; pass 1.0 when already at the ladder bottom.

        This is the one implementation of the decision: every evaluated
        link-window calls it once, so Table 1's threshold pair is chosen
        here and the Eq. 11 average is written out rather than read
        through :attr:`averaged_utilisation`.
        """
        if not 0.0 <= lu <= 1.0:
            raise ConfigError(f"Lu must lie in [0, 1], got {lu!r}")
        if not 0.0 <= bu <= 1.0:
            raise ConfigError(f"Bu must lie in [0, 1], got {bu!r}")
        if down_ratio < 1.0:
            raise ConfigError(f"down_ratio must be >= 1, got {down_ratio!r}")
        self._last_lu = lu
        self._last_bu = bu
        history = self._history
        history.append(lu)
        cfg = self.config
        # Table 1: the (TL, TH) pair in force for the congestion level.
        congested = bu >= cfg.congestion_threshold
        if congested:
            low = cfg.threshold_low_congested
            high = cfg.threshold_high_congested
        else:
            low = cfg.threshold_low_uncongested
            high = cfg.threshold_high_uncongested
        # Eq. 11, as averaged_utilisation reports it (the append above
        # leaves the history non-empty).
        averaged = sum(history) / len(history)
        if bu >= cfg.rescue_threshold:
            # Congestion rescue: a nearly full downstream buffer means this
            # link is inside a congestion tree even if credit starvation
            # keeps its own utilisation low — recover in parallel.
            decision = STEP_UP
        elif averaged > high:
            decision = STEP_UP
        elif averaged < low:
            decision = STEP_DOWN
        else:
            decision = HOLD
        if decision == STEP_DOWN:
            if cfg.congestion_inhibits_downscale and congested:
                # Stability guard: a low Lu on a congested link means
                # credit starvation, not low demand — don't slow it further.
                decision = HOLD
            elif cfg.downscale_headroom_check and averaged * down_ratio > high:
                # Headroom check: the lower rate could not carry the
                # currently observed traffic below TH — don't step into
                # oversubscription.
                decision = HOLD
        self.decisions[decision] += 1
        return decision

    def reset(self, config: PolicyConfig | None = None) -> None:
        """Restore the freshly-constructed state (link reconfiguration),
        under ``config`` when one is given (a warm rerun's policy).

        Everything ``observe`` accumulates goes: the sliding history,
        the decision counters and the last (Lu, Bu) sample.  A
        controller that kept its counters across a reconfiguration
        would mis-report the new configuration's decision mix, and a
        stale ``last_sample`` would leak one run's telemetry into the
        next warm rerun.
        """
        if config is not None:
            self.config = config
        if self._history.maxlen == self.config.history_windows:
            self._history.clear()
        else:
            self._history = deque(maxlen=self.config.history_windows)
        self.decisions = {STEP_DOWN: 0, HOLD: 0, STEP_UP: 0}
        self._last_lu = 0.0
        self._last_bu = 0.0
