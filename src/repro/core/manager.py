"""Network-wide power manager.

Instantiates one :class:`~repro.core.power_link.PowerAwareLink` per fiber in
the topology (injection, ejection *and* mesh links all carry policy
controllers, per Fig. 4(b)), schedules the shared policy windows and — for
modulator systems with multiple optical levels — the external laser source
controller epochs, and aggregates energy for the power metrics.

The non-power-aware baseline needs no manager at all: its power is by
definition ``num_links * P_max`` for the whole run, which
:meth:`NetworkPowerManager.baseline_power` reports so experiments can
normalise exactly the way the paper does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import (
    MODULATOR,
    NetworkConfig,
    PowerAwareConfig,
)
from repro.core.laser_policy import OpticalPowerController
from repro.core.levels import BitRateLadder, OpticalBands
from repro.core.policy import HOLD, STEP_DOWN
from repro.core.power_link import PowerAwareLink
from repro.core.tables import OperatingPointTable
from repro.core.transitions import RAMP_UP, STABLE
from repro.engine.wheel import (
    PRI_EPOCH,
    PRI_SAMPLE,
    PRI_TRANSITION,
    PRI_WINDOW,
    EventWheel,
)
from repro.errors import ConfigError
from repro.network.topology import NetworkFabric
from repro.photonics.power_model import LinkPowerModel

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.hooks import HookRegistry


def ladder_from_config(config: PowerAwareConfig) -> BitRateLadder:
    """Build the bit-rate ladder a :class:`PowerAwareConfig` describes."""
    return BitRateLadder.linear(
        config.min_bit_rate, config.max_bit_rate, config.num_levels
    )


def power_model_from_config(config: PowerAwareConfig) -> LinkPowerModel:
    """Build the Table 2 link power model for the configured technology."""
    if config.technology == MODULATOR:
        return LinkPowerModel.modulator_link()
    return LinkPowerModel.vcsel_link()


#: Per-process memo of :class:`OperatingPointTable` instances keyed by the
#: config fields the table depends on (technology picks the power model,
#: the rate bounds and level count fix the ladder, the optical scheme
#: fixes the bands).  The table is a frozen dataclass of tuples, so
#: sharing one instance across managers — and across sweep points in a
#: warm worker — is safe.  Only the analytic-model construction path is
#: memoised; :meth:`NetworkPowerManager.replace_power_model` (measured
#: curves) always rebuilds.
_TABLE_MEMO: dict[tuple, OperatingPointTable] = {}
_TABLE_MEMO_MAX = 32


def _table_for_config(config: PowerAwareConfig, power_model: LinkPowerModel,
                      ladder: BitRateLadder,
                      bands) -> OperatingPointTable:
    key = (config.technology, config.min_bit_rate, config.max_bit_rate,
           config.num_levels, config.optical_levels)
    memo = _TABLE_MEMO
    table = memo.get(key)
    if table is None:
        table = OperatingPointTable.build(power_model, ladder, bands)
        if len(memo) >= _TABLE_MEMO_MAX:
            memo.pop(next(iter(memo)))
        memo[key] = table
    return table


class NetworkPowerManager:
    """Drives every power-aware link of one simulated network."""

    def __init__(self, topology: NetworkFabric, config: PowerAwareConfig,
                 network: NetworkConfig):
        self.config = config
        self.network = network
        self.ladder = ladder_from_config(config)
        self.power_model = power_model_from_config(config)
        if self.ladder.max_rate != config.max_bit_rate:
            raise ConfigError("ladder top must equal the configured max rate")

        ladder = self.ladder
        #: Link service time (router cycles per flit) per ladder level,
        #: computed once per manager and shared by every link, like the
        #: billing table's ``level_powers``.
        self.service_times = tuple(
            network.flit_service_time(rate, ladder.max_rate)
            for rate in ladder.rates
        )

        self.multi_optical = (
            config.technology == MODULATOR and config.optical_levels > 1
        )
        bands = None
        if self.multi_optical:
            if config.optical_levels != 3:
                raise ConfigError(
                    "only the paper's 3-level optical scheme is defined; "
                    f"got optical_levels={config.optical_levels!r}"
                )
            bands = OpticalBands.paper_three_level()
        self.bands = bands

        #: The analytic model evaluated once per (band x level) operating
        #: point; every link indexes this one shared table (memoised
        #: per process, so warm sweep workers and aware/baseline pairs
        #: reuse it across manager constructions).
        self.table = _table_for_config(config, self.power_model, ladder, bands)
        level_powers = self.table.level_powers

        self.links: list[PowerAwareLink] = []
        for link, buffer in zip(topology.links, topology.downstream_buffers):
            optical = (
                OpticalPowerController(bands, config.transitions)
                if bands is not None else None
            )
            self.links.append(
                PowerAwareLink(
                    link=link,
                    ladder=ladder,
                    power_model=self.power_model,
                    policy_config=config.policy,
                    transition_config=config.transitions,
                    service_times=self.service_times,
                    downstream_buffer=buffer,
                    optical=optical,
                    level_powers=level_powers,
                )
            )
        #: Links in a transition, in the order their steps were accepted
        #: (see :meth:`catch_up`).
        self._transitioning: list[PowerAwareLink] = []
        #: Non-power-aware network power (all links at max), cached once —
        #: ``relative_power()`` divides by it per summary call.
        self._baseline_power = len(self.links) * self.table.max_power
        #: Network energy total, cached by :meth:`finalize` so repeated
        #: ``summary()`` calls after a run are O(1), not O(links).
        self._energy_total: float | None = None
        self.window = config.policy.window_cycles
        self.epoch = config.transitions.laser_epoch_cycles
        #: (cycle, total watts) samples for power-over-time figures.
        self.power_series: list[tuple[int, float]] = []
        self._finalized_at: float | None = None
        #: Optional :class:`~repro.engine.hooks.HookRegistry` (assigned by
        #: the simulator); ``window``/``transition`` hooks fire through it.
        self.hooks: "HookRegistry | None" = None
        self._wheel: EventWheel | None = None
        self._sample_interval: int | None = None
        #: Link-windows closed by a :meth:`PowerAwareLink.on_window` call
        #: and by the parked closed form; together they count every link
        #: at every window boundary.
        self.link_windows_evaluated = 0
        self.link_windows_parked = 0
        #: Wheel events scheduled for transitions: one per up-step voltage
        #: ramp (every other phase end is applied by :meth:`catch_up`).
        self.transition_events = 0

    # -- warm rerun ------------------------------------------------------------

    def structurally_compatible(self, config: PowerAwareConfig) -> bool:
        """Whether :meth:`reset` can rerun this manager under ``config``.

        True when every field the ladder, power model, operating-point
        table and optical-band scheme were built from is unchanged —
        policy and transition scalars are free to differ (they are plain
        per-run knobs the reset swaps in).
        """
        current = self.config
        return (config.technology == current.technology
                and config.min_bit_rate == current.min_bit_rate
                and config.max_bit_rate == current.max_bit_rate
                and config.num_levels == current.num_levels
                and config.optical_levels == current.optical_levels)

    def reset(self, config: PowerAwareConfig) -> None:
        """Restore the manager to its freshly-built state under ``config``.

        The structural artifacts — ladder, power model, operating-point
        table, per-link objects — survive; every link's control stack is
        reset in place under the new point's policy/transition configs and all
        run-accumulated state (energy, series, transition tracking,
        scheduling bindings) is cleared, bit-identical to constructing a
        new manager on a fresh fabric (hypothesis-tested).
        """
        if not self.structurally_compatible(config):
            raise ConfigError(
                "reset() cannot change the power structure (technology, "
                "rate bounds, level counts); build a fresh manager"
            )
        self.config = config
        bands = self.bands
        for pal in self.links:
            optical = (
                OpticalPowerController(bands, config.transitions)
                if bands is not None else None
            )
            pal.reset(config.policy, config.transitions, optical)
        self._transitioning.clear()
        self._energy_total = None
        self.window = config.policy.window_cycles
        self.epoch = config.transitions.laser_epoch_cycles
        self.power_series = []
        self._finalized_at = None
        self.hooks = None
        self._wheel = None
        self._sample_interval = None
        self.link_windows_evaluated = 0
        self.link_windows_parked = 0
        self.transition_events = 0

    # -- driving ---------------------------------------------------------------
    #
    # A manager is driven by an event wheel: :meth:`schedule_events`
    # registers window/epoch/sample wake-ups, and a window that starts an
    # up-step schedules the end of its voltage ramp, so quiet cycles cost
    # nothing.  Every other transition phase end changes only the billed
    # level and is applied by the next reader (:meth:`catch_up`).

    def schedule_events(self, wheel: EventWheel, *,
                        sample_interval: int | None = None) -> None:
        """Register this manager's periodic work on ``wheel``.

        Schedules the first window-policy evaluation, the first laser epoch
        (multi-optical systems only) and — when ``sample_interval`` is given
        — power sampling starting at cycle 0.  Each event reschedules its
        successor, and a window that starts an up-step schedules the end
        of that link's voltage ramp.
        """
        self._wheel = wheel
        wheel.schedule(self.window, self._window_event, PRI_WINDOW)
        if self.multi_optical:
            wheel.schedule(self.epoch, self._epoch_event, PRI_EPOCH)
        if sample_interval is not None:
            if sample_interval < 1:
                raise ConfigError("sample_interval must be >= 1")
            self._sample_interval = sample_interval
            wheel.schedule(0, self._sample_event, PRI_SAMPLE)

    def catch_up(self, upto: float) -> None:
        """Apply every transition completion due by cycle ``upto``.

        Only the end of an up-step's voltage ramp changes what a flit
        sees (it disables and retunes the link), so only it is a wheel
        event.  The other phase ends (relock ends, down-step ramp ends)
        change only the billed level; each reader of that level calls
        this first, up to the last cycle whose control phase has run:
        the next policy window and power sample (``now``), the end of
        every :meth:`Simulator.run <repro.network.simulator.Simulator.run>`
        call and :meth:`finalize` (``cycle - 1``).  A link's completions
        take effect at their own timestamps, so applying them late bills
        exactly what applying them on time would.
        """
        pending = self._transitioning
        if not pending:
            return
        waiting = []
        for pal in pending:
            pal.advance(upto)
            if pal.engine.state is not STABLE:
                waiting.append(pal)
        self._transitioning = waiting

    def _run_window(self, now: int) -> None:
        """Evaluate every link's policy for the window ending at ``now``.

        Each evaluated link costs one :meth:`PowerAwareLink.on_window`
        call (and the few calls it makes).  A link parked by its last
        window (idle, at a fixed point of the policy; see
        :meth:`PowerAwareLink.on_window`) that has carried no flit and
        seen no demand pressure since is closed in O(1), with exactly the
        updates the full evaluation would make, so control cost follows
        the links with traffic.
        """
        start = now - self.window
        hooks = self.hooks
        transition_hooks = hooks.transition if hooks is not None else ()
        policy_hooks = hooks.policy if hooks is not None else ()
        if self._transitioning:
            self.catch_up(now)
        pending = self._transitioning
        wheel = self._wheel
        # Policy/transition observers must see every link's decision, so
        # they switch parking off and every link takes the full path.
        parking = not policy_hooks and not transition_hooks
        parked = 0
        for pal in self.links:
            link = pal.link
            if parking and pal.parked_flits == link.flits_carried \
                    and link.pressure_accum == 0.0:
                # The parked window repeats the one that parked the link
                # (PowerAwareLink.on_window); these are all its updates.
                pal.windows_observed += 1
                policy = pal.policy
                policy._history.append(0.0)
                policy.decisions[STEP_DOWN] += 1
                parked += 1
                continue
            decision = pal.on_window(start, now)
            if policy_hooks:
                for callback in policy_hooks:
                    callback(pal, pal.last_lu, pal.last_bu, decision, now)
            if transition_hooks and decision != HOLD:
                for callback in transition_hooks:
                    callback(pal, decision, now)
            if pal.last_step_accepted:
                engine = pal.engine
                if engine.state is not STABLE:
                    pending.append(pal)
                    if engine.state is RAMP_UP:
                        wheel.schedule(engine.next_event, engine.advance,
                                       PRI_TRANSITION)
                        self.transition_events += 1
        self.link_windows_parked += parked
        self.link_windows_evaluated += len(self.links) - parked
        if hooks is not None and hooks.window:
            for callback in hooks.window:
                callback(start, now)

    def _window_event(self, now: int) -> None:
        self._run_window(now)
        self._wheel.schedule(now + self.window, self._window_event, PRI_WINDOW)

    def _epoch_event(self, now: int) -> None:
        for pal in self.links:
            pal.optical.on_epoch(now)
        self._wheel.schedule(now + self.epoch, self._epoch_event, PRI_EPOCH)

    def _sample_event(self, now: int) -> None:
        self.sample_power(now)
        self._wheel.schedule(now + self._sample_interval, self._sample_event,
                             PRI_SAMPLE)

    def sample_power(self, now: int) -> float:
        """Record and return the instantaneous network link power, watts."""
        if self._transitioning:
            self.catch_up(now)
        # Each link's PowerAwareLink.current_power(), in one pass.
        total = sum([pal.level_powers[pal.engine.billing_level]
                     for pal in self.links])
        self.power_series.append((now, total))
        hooks = self.hooks
        if hooks is not None and hooks.power_sample:
            for callback in hooks.power_sample:
                callback(now, total)
        return total

    # -- results ---------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Flush every link's energy integral at the end of a run.

        Idempotent: finalizing at a cycle at or before the last finalize is
        a no-op, so repeated ``summary()``/``relative_power()`` calls do not
        re-walk every link.  Running further and finalizing at a later
        cycle extends the integrals as expected.
        """
        if self._finalized_at is not None and now <= self._finalized_at:
            return
        # The last control phase ran at ``now - 1``: what it would have
        # applied is billed at its own timestamps first.
        self.catch_up(now - 1)
        for pal in self.links:
            pal.finalize(now)
        self._finalized_at = now
        self._energy_total = sum(pal.energy_watt_cycles for pal in self.links)

    def control_counters(self) -> dict[str, int]:
        """Control-layer work of the run so far: transition wheel events
        scheduled, transition completions applied on read, and
        link-windows evaluated in full and closed while parked.  Not
        part of any result."""
        return {
            "transition_events": self.transition_events,
            "completions_on_read": sum(
                pal.completions_on_read for pal in self.links),
            "link_windows_evaluated": self.link_windows_evaluated,
            "link_windows_parked": self.link_windows_parked,
        }

    def total_energy_watt_cycles(self) -> float:
        """Network energy integral, watt-cycles.

        O(1) once :meth:`finalize` has run (every caller in the run/summary
        path finalizes first); walks the links only before finalize or
        after running further — a later-cycle finalize refreshes the cache.
        """
        if self._energy_total is not None:
            return self._energy_total
        return sum(pal.energy_watt_cycles for pal in self.links)

    def baseline_power(self) -> float:
        """Power of the non-power-aware network, watts (all links at max)."""
        return self._baseline_power

    def average_power(self, total_cycles: float) -> float:
        """Mean network link power over the run, watts."""
        if total_cycles <= 0:
            raise ConfigError("total_cycles must be positive")
        return self.total_energy_watt_cycles() / total_cycles

    def relative_power(self, total_cycles: float) -> float:
        """Average power as a fraction of the non-power-aware network.

        This is the paper's headline power metric ("power dissipated by our
        power-aware network is expressed as a percentage of that consumed by
        a non-power-aware network with all links at 10 Gb/s").
        """
        return self.average_power(total_cycles) / self.baseline_power()

    def level_histogram(self) -> list[int]:
        """How many links sit at each committed ladder level right now."""
        histogram = [0] * self.ladder.num_levels
        for pal in self.links:
            histogram[pal.level] += 1
        return histogram

    def transition_totals(self) -> dict[str, int]:
        """Total up/down transitions across all links."""
        up = sum(pal.engine.steps_up for pal in self.links)
        down = sum(pal.engine.steps_down for pal in self.links)
        return {"up": up, "down": down}

    def replace_power_model(self, model) -> None:
        """Swap in a different link power model before the run starts.

        This is the paper's Section 5 workflow: feed measured test-chip
        power curves (:class:`~repro.photonics.measured.MeasuredLinkPowerModel`)
        — or any object with ``power(bit_rate)`` and ``max_power`` — into
        the simulator in place of the analytic models.  Refused once any
        energy has accrued, because mixing models mid-run would corrupt
        the accounting.
        """
        if any(pal.energy_watt_cycles > 0.0 for pal in self.links):
            raise ConfigError(
                "cannot replace the power model after energy has accrued; "
                "swap models before running the simulator"
            )
        self.power_model = model
        self.table = OperatingPointTable.build(model, self.ladder, self.bands)
        self._baseline_power = len(self.links) * self.table.max_power
        levels = self.table.level_powers
        for pal in self.links:
            pal.level_powers = levels

    def link_report(self, total_cycles: float) -> list[dict[str, float | str]]:
        """Per-link accounting rows (kind, level, transitions, energy).

        One row per fiber, for offline analysis of where the power went.
        ``total_cycles`` converts each link's energy into average watts.
        """
        if total_cycles <= 0:
            raise ConfigError("total_cycles must be positive")
        rows: list[dict[str, float | str]] = []
        for pal in self.links:
            rows.append({
                "link_id": pal.link.link_id,
                "kind": pal.link.kind,
                "level": pal.level,
                "bit_rate": pal.bit_rate,
                "ups": pal.engine.steps_up,
                "downs": pal.engine.steps_down,
                "flits": pal.link.flits_carried,
                "avg_power_w": pal.energy_watt_cycles / total_cycles,
            })
        return rows

    def energy_by_kind(self, total_cycles: float) -> dict[str, float]:
        """Average power per link kind, watts (injection/ejection/mesh)."""
        if total_cycles <= 0:
            raise ConfigError("total_cycles must be positive")
        totals: dict[str, float] = {}
        for pal in self.links:
            kind = pal.link.kind
            totals[kind] = totals.get(kind, 0.0) \
                + pal.energy_watt_cycles / total_cycles
        return totals
