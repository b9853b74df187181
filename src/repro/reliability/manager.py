"""Run-level reliability orchestration.

One :class:`ReliabilityManager` per fault-injected simulation.  At
construction it

* builds the :class:`~repro.reliability.channel.LinkChannelModel` for the
  run's technology (VCSEL light tracks the drive; modulator light tracks
  the optical band),
* hangs a :class:`~repro.reliability.faults.LinkFaultState` off every
  transport link (when BER injection is on) so arrivals run the
  corruption/retransmission protocol,
* installs the BER margin guards on the power-aware links and their
  optical controllers (when enabled and the run is power-aware),
* schedules the configured fault scenarios — hard mesh-link failures,
  transient degradations, stuck bit-rate transitions — on the engine's
  :class:`~repro.engine.wheel.EventWheel` at :data:`~repro.engine.wheel.PRI_FAULT`,
* and points every router's ``fault_stats`` at a shared counter so
  fault-aware detours are tallied.

Hard failures are *worm-atomic*: flits of packets already committed to
the link drain normally (the detection window of a real failure), while
head flits route around it from the failure cycle on.  Virtual channels
that had latched a route over the dead link but not yet forwarded their
head are swept back to the route stage so they re-route instead of
waiting forever on a link no new flit may enter.

:meth:`report` freezes the accumulated counters into a
:class:`~repro.metrics.reliability.ReliabilityReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import MODULATOR, NetworkConfig
from repro.engine.hooks import HookRegistry
from repro.engine.wheel import PRI_FAULT, EventWheel
from repro.errors import ConfigError
from repro.metrics.reliability import ReliabilityReport
from repro.network.links import MESH, Link
from repro.network.router import Router
from repro.network.topology import NetworkFabric
from repro.photonics.ber import ReceiverNoiseModel
from repro.reliability.channel import LinkChannelModel
from repro.reliability.config import FaultConfig
from repro.reliability.faults import LinkFaultState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.core.manager import NetworkPowerManager
    from repro.core.power_link import PowerAwareLink


class RouteFaultCounters:
    """Shared mutable counter routers bump when they detour."""

    __slots__ = ("reroutes",)

    def __init__(self) -> None:
        self.reroutes = 0


class ReliabilityManager:
    """Fault model + recovery + degradation for one simulation."""

    def __init__(self, topology: NetworkFabric,
                 power: "NetworkPowerManager | None",
                 network: NetworkConfig, config: FaultConfig,
                 hooks: HookRegistry, wheel: EventWheel):
        self.topology = topology
        self.power = power
        self.config = config
        self.hooks = hooks
        self.wheel = wheel
        self.channel = self._build_channel(network)
        self.route_counters = RouteFaultCounters()
        self.failed_links = 0
        self.degradations_applied = 0
        self.stuck_applied = 0

        self._pal_by_link: dict[int, "PowerAwareLink"] = {}
        if power is not None:
            for pal in power.links:
                self._pal_by_link[pal.link.link_id] = pal

        self._validate_scenarios()

        for router in topology.routers:
            router.fault_stats = self.route_counters

        self._states: dict[int, LinkFaultState] = {}
        if config.ber_injection:
            for link in topology.links:
                self._ensure_state(link)
        else:
            # Degradation windows still need per-link injection state to
            # multiply the (physical) BER within their window.
            for degradation in config.degradations:
                self._ensure_state(topology.links[degradation.link_id])

        if config.margin_guard and power is not None:
            self._install_guards()

        self._schedule_scenarios()

    # -- construction ----------------------------------------------------------

    def _build_channel(self, network: NetworkConfig) -> LinkChannelModel:
        power = self.power
        if power is not None:
            max_rate = power.ladder.max_rate
            drive_proportional = power.config.technology != MODULATOR
        else:
            # Baseline links are pinned at the rate their unit service
            # time implies (one flit per router cycle).
            max_rate = network.flit_width_bits * network.router_frequency_hz
            drive_proportional = True
        return LinkChannelModel(
            ReceiverNoiseModel(),
            received_power_w=self.config.received_power_w,
            flit_bits=network.flit_width_bits,
            max_bit_rate=max_rate,
            ber_scale=self.config.ber_scale,
            drive_proportional=drive_proportional,
        )

    def _validate_scenarios(self) -> None:
        links = self.topology.links
        for failure in self.config.failures:
            if failure.link_id >= len(links):
                raise ConfigError(
                    f"failure names link {failure.link_id}, but the "
                    f"topology has only {len(links)} links"
                )
            kind = links[failure.link_id].kind
            if kind != MESH:
                raise ConfigError(
                    f"only mesh links may hard-fail (routing can detour "
                    f"around them); link {failure.link_id} is {kind}"
                )
        for scenario in (*self.config.degradations,
                         *self.config.stuck_transitions):
            if scenario.link_id >= len(links):
                raise ConfigError(
                    f"fault scenario names link {scenario.link_id}, but "
                    f"the topology has only {len(links)} links"
                )

    def _ensure_state(self, link: Link) -> LinkFaultState:
        state = self._states.get(link.link_id)
        if state is None:
            pal = self._pal_by_link.get(link.link_id)
            band_fractions = None
            if pal is not None and pal.optical is not None:
                band_fractions = pal.optical.bands.power_fractions
            state = LinkFaultState(
                link, self.channel, self.config,
                pal=pal, band_fractions=band_fractions, hooks=self.hooks,
            )
            link.faults = state
            self._states[link.link_id] = state
        return state

    def _install_guards(self) -> None:
        """Point every power-aware link's guards at the channel model."""
        guard_max_ber = self.config.guard_max_ber
        channel = self.channel
        for pal in self.power.links:
            pal.step_down_guard = _make_level_guard(
                pal, channel, guard_max_ber
            )
            if pal.optical is not None:
                pal.optical.band_guard = _make_band_guard(
                    pal, channel, guard_max_ber
                )

    def _schedule_scenarios(self) -> None:
        wheel = self.wheel
        links = self.topology.links
        for failure in self.config.failures:
            wheel.schedule(
                failure.at_cycle,
                _bind(self._apply_failure, links[failure.link_id]),
                PRI_FAULT,
            )
        for degradation in self.config.degradations:
            wheel.schedule(
                degradation.at_cycle,
                _bind(self._apply_degradation, degradation),
                PRI_FAULT,
            )
        for stuck in self.config.stuck_transitions:
            wheel.schedule(
                stuck.at_cycle,
                _bind(self._apply_stuck, stuck),
                PRI_FAULT,
            )

    # -- scenario handlers -----------------------------------------------------

    def _apply_failure(self, link: Link, now: int) -> None:
        if link.failed:
            return
        link.failed = True
        self.failed_links += 1
        router, dead_port = self._owner_of(link)
        router.invalidate_routes_via(dead_port)
        self._sweep_stale_routes(router, dead_port)
        if self.hooks.link_failure:
            for callback in self.hooks.link_failure:
                callback(link, now)

    def _sweep_stale_routes(self, router: Router, dead_port: int) -> None:
        """Un-latch routes over a dead link whose worm has not started.

        A virtual channel whose head flit is still at the buffer front has
        sent nothing over the link: release its claimed downstream VC and
        clear the latched route so the head re-routes (now detouring).  A
        VC whose front is a body flit — or that is mid-worm with flits in
        flight — committed before the failure and drains over the link.
        """
        op = router.outputs[dead_port]
        for in_port in router.inputs:
            for vc in in_port.vcs:
                if vc.route_out != dead_port:
                    continue
                if not vc.buffer.is_empty and vc.buffer.head().is_head:
                    if vc.out_vc >= 0:
                        op.vc_owner[vc.out_vc] = None
                    router._latched[dead_port] -= 1
                    vc.release()

    def _owner_of(self, link: Link) -> tuple[Router, int]:
        """The (router, output port) that feeds a mesh link."""
        for router in self.topology.routers:
            for port, output in enumerate(router.outputs):
                if output is not None and output.link is link:
                    return router, port
        raise ConfigError(
            f"link {link.link_id} is not fed by any router output"
        )

    def _apply_degradation(self, degradation, now: int) -> None:
        state = self._ensure_state(
            self.topology.links[degradation.link_id]
        )
        state.degrade(degradation.ber_multiplier,
                      now + degradation.duration_cycles)
        self.degradations_applied += 1

    def _apply_stuck(self, stuck, now: int) -> None:
        self.topology.links[stuck.link_id].disable_for(
            now, stuck.duration_cycles
        )
        self.stuck_applied += 1

    # -- results ---------------------------------------------------------------

    def report(self) -> ReliabilityReport:
        """Freeze the run's reliability counters."""
        corrupted = retransmitted = dropped = 0
        retry_busy = retry_energy = 0.0
        for state in self._states.values():
            corrupted += state.flits_corrupted
            retransmitted += state.flits_retransmitted
            dropped += state.flits_dropped
            retry_busy += state.retry_busy_cycles
            retry_energy += state.retry_energy_watt_cycles
        guard_holds = 0
        if self.power is not None:
            for pal in self.power.links:
                guard_holds += pal.guard_holds
                if pal.optical is not None:
                    guard_holds += pal.optical.guard_holds
        carried = sum(link.flits_carried for link in self.topology.links)
        return ReliabilityReport(
            flits_corrupted=corrupted,
            flits_retransmitted=retransmitted,
            flits_dropped=dropped,
            flits_carried=carried,
            retry_busy_cycles=retry_busy,
            retry_energy_watt_cycles=retry_energy,
            reroutes=self.route_counters.reroutes,
            guard_holds=guard_holds,
            failed_links=self.failed_links,
            degradations=self.degradations_applied,
            stuck_transitions=self.stuck_applied,
        )


def _make_level_guard(pal: "PowerAwareLink", channel: LinkChannelModel,
                      guard_max_ber: float):
    """Guard for electrical down-steps: project the lower level's BER."""

    def guard(target_level: int, now: float) -> bool:
        rate = pal.ladder.rate(target_level)
        if pal.optical is not None:
            fraction = pal.optical.bands.power_fractions[
                pal.optical.band_at(now)
            ]
        else:
            fraction = 1.0
        return channel.ber(rate, fraction) <= guard_max_ber

    return guard


def _make_band_guard(pal: "PowerAwareLink", channel: LinkChannelModel,
                     guard_max_ber: float):
    """Guard for laser Pdec: project BER with one band less light."""

    def guard(target_band: int, now: float) -> bool:
        fraction = pal.optical.bands.power_fractions[target_band]
        return channel.ber(pal.engine.operating_rate,
                           fraction) <= guard_max_ber

    return guard


def _bind(handler, payload):
    """An event-wheel callback carrying its scenario payload."""

    def fire(now: int) -> None:
        handler(payload, now)

    return fire
