"""The cycle-driven simulator core, built on the pluggable engine layer.

Ties topology, traffic, routers and the power manager together.  One call
to :meth:`Simulator.step` advances the whole system one router cycle, in a
fixed phase order chosen so every component sees a consistent picture:

1. **deliver** — flits whose link arrival time has passed enter downstream
   input buffers (or node sinks);
2. **route** — every router *with buffered flits* runs one switch-
   allocation/traversal cycle, pushing winners onto their output links;
3. **inject** — node boards *with queued flits* push source-queue flits
   onto injection links;
4. **generate** — the traffic source creates this cycle's new packets;
5. **control** — the event wheel runs whatever control work is due this
   cycle: link transition completions, window-boundary policy evaluation,
   laser epochs, power sampling and the stall watchdog.

The engine makes each phase cost O(active components), not O(network):
every flit pushed onto a link is filed in a per-cycle arrival calendar
(:class:`~repro.engine.schedule.DeliverySchedule`), routers and nodes
register into :class:`~repro.engine.active.ActiveSet` registries while
they hold work and are skipped otherwise, and the power manager's
periodic work is event-scheduled on an
:class:`~repro.engine.wheel.EventWheel` instead of being polled with
modulo checks every cycle.  The engine's behaviour is pinned by the
committed digest corpus in ``tests/integration/test_golden_corpus.py``.

Observers (profilers, watchdogs, metrics samplers) attach through
:attr:`Simulator.hooks`, a typed :class:`~repro.engine.hooks.HookRegistry`
— nothing else is hard-wired into the step loop.

Determinism: given identical configs and seeds, runs are bit-identical —
there is no wall-clock or unordered-set iteration in any decision path
(active sets are iterated via sorted snapshots, calendar buckets are
sorted by link id, and same-cycle events fire in a fixed priority order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SimulationConfig
from repro.engine.active import ActiveSet
from repro.engine.hooks import HookRegistry
from repro.engine.schedule import DeliverySchedule
from repro.engine.wheel import PRI_WATCHDOG, EventWheel
from repro.errors import ConfigError, SimulationError
from repro.network.links import Link
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric, Node
from repro.traffic.base import TrafficSource

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.core.manager import NetworkPowerManager
    from repro.network.router import Router
    from repro.reliability.manager import ReliabilityManager
    from repro.telemetry.recorder import TraceRecorder

#: Cycles between stall-watchdog progress checks.
WATCHDOG_INTERVAL = 256

#: Step-phase names, in execution order (also the profiler's row labels).
PHASES = ("deliver", "route", "inject", "generate", "control")


def _stall_error(sim: "Simulator", description: str) -> SimulationError:
    """Build a stall diagnosis (failure path only).

    The ``congestion_report`` import and its network-wide snapshot walk
    live here so the periodic stall *checks* — which run for the whole
    life of every healthy simulation — never pay for the diagnosis
    machinery: the common path is a couple of integer compares and
    allocates nothing (regression-tested).
    """
    from repro.metrics.inspect import congestion_report

    return SimulationError(f"{description}\n{congestion_report(sim)}")


def _asleep_note(sim: "Simulator") -> str:
    """Stall-diagnosis addendum naming links parked in LINK_OFF.

    A wake only triggers at a window boundary, so a stall report that
    ignored sleeping links would send the reader hunting for a flow-control
    bug that is actually a sleeping fiber.  Failure path only.
    """
    power = sim.power
    if power is None:
        return ""
    asleep = power.asleep_count()
    if not asleep:
        return ""
    return f" ({asleep} links asleep in LINK_OFF awaiting a window wake)"


class StallWatchdog:
    """Turns a silent simulator hang into a diagnosis.

    Attaches through the engine: a ``delivery`` hook records the last cycle
    any flit moved off a link, and a recurring event-wheel check raises
    :class:`~repro.errors.SimulationError` when packets are in flight but
    nothing has moved for ``limit`` cycles.
    """

    __slots__ = ("sim", "limit", "_last_progress_cycle")

    def __init__(self, sim: "Simulator", limit: int):
        self.sim = sim
        self.limit = limit
        # Start from the simulator's current cycle, not 0: a watchdog
        # attached to a simulator that has already run would otherwise
        # report a bogus stall spanning the whole pre-attach history.
        self._last_progress_cycle = sim.cycle

    def attach(self) -> "StallWatchdog":
        self.sim.hooks.add("delivery", self._on_delivery)
        self.sim.wheel.schedule(self.sim.cycle, self._check, PRI_WATCHDOG)
        return self

    def _on_delivery(self, link: Link, flit, now: int) -> None:
        self._last_progress_cycle = now

    def _check(self, now: int) -> None:
        stalled = now - self._last_progress_cycle
        if self.sim.stats.in_flight > 0 and stalled >= self.limit:
            raise _stall_error(
                self.sim,
                f"no flit delivered for {stalled} cycles with "
                f"{self.sim.stats.in_flight} packets in flight — likely a "
                f"flow-control bug.{_asleep_note(self.sim)}",
            )
        self.sim.wheel.schedule(now + WATCHDOG_INTERVAL, self._check,
                                PRI_WATCHDOG)


class Simulator:
    """One simulated power-aware (or baseline) networked system."""

    def __init__(self, config: SimulationConfig, traffic: TrafficSource):
        if traffic.num_nodes != config.network.num_nodes:
            raise ConfigError(
                f"traffic source built for {traffic.num_nodes} nodes but the "
                f"network has {config.network.num_nodes}"
            )
        self.config = config
        self.traffic = traffic
        self.stats = StatsCollector(config.warmup_cycles,
                                    config.sample_interval)
        self.network = NetworkFabric(config.network, self.stats)
        if config.validate_topology:
            from repro.network.validation import validate_topology

            problems = validate_topology(self.network)
            if problems:
                raise ConfigError(
                    "topology validation failed:\n  "
                    + "\n  ".join(problems)
                )
        self.power: "NetworkPowerManager | None" = None
        if config.power is not None:
            # Imported here to break the package cycle: the power manager
            # wraps network links, while the simulator wraps the manager.
            from repro.core.manager import NetworkPowerManager

            self.power = NetworkPowerManager(
                self.network, config.power, config.network
            )
        self._init_run_state(config)

    def reset(self, config: SimulationConfig,
              traffic: TrafficSource) -> None:
        """Rerun-in-place: rebind this simulator to a new point.

        The structural parts of ``config`` (the network tree and the
        power ladder/bands geometry) must match the simulator's current
        ones — everything else (seed, policy scalars, transitions,
        warmup/sampling, faults, telemetry) may change freely.
        The contract is bit-identity with fresh construction
        (hypothesis-tested over every topology, with and without
        faults); the payoff is skipping fabric/route-table/operating-
        point construction for every point after a worker's first.
        """
        if traffic.num_nodes != config.network.num_nodes:
            raise ConfigError(
                f"traffic source built for {traffic.num_nodes} nodes but the "
                f"network has {config.network.num_nodes}"
            )
        if config.network != self.config.network:
            raise ConfigError(
                "reset() cannot change the network structure "
                "(build a fresh Simulator for a different fabric)"
            )
        old_power = self.config.power
        self.config = config
        self.traffic = traffic
        self.stats.reset(config.warmup_cycles, config.sample_interval)
        self.network.reset()
        if config.power is None:
            self.power = None
        elif self.power is not None and old_power is not None \
                and self.power.structurally_compatible(config.power):
            self.power.reset(config.power)
        else:
            from repro.core.manager import NetworkPowerManager

            self.power = NetworkPowerManager(
                self.network, config.power, config.network
            )
        self._init_run_state(config)

    def _init_run_state(self, config: SimulationConfig) -> None:
        """Per-run engine wiring, shared by ``__init__`` and ``reset``.

        Everything here is cheap and rebuilt from scratch each run — a
        fresh hook registry, event wheel, delivery calendar, active-set
        registries, reliability manager and watchdog — so a
        reset simulator is indistinguishable from a fresh one by
        construction.
        """
        self.cycle = 0
        self.hooks = HookRegistry()
        # Alias (not copy): the stats collector fires the registry's
        # packet_delivered list directly, so add/remove stay in sync.
        self.stats.packet_hooks = self.hooks.packet_delivered
        if self.power is not None:
            self.power.hooks = self.hooks
        self._phases = tuple(
            (name, getattr(self, f"_phase_{name}")) for name in PHASES
        )
        self.reliability: "ReliabilityManager | None" = None
        self.telemetry: "TraceRecorder | None" = None
        if config.telemetry is not None:
            # Imported here to break the package cycle (the recorder
            # observes simulator hooks).  Attaching is pure observation:
            # runs with and without a recorder are bit-identical (pinned
            # by the golden corpus).
            from repro.telemetry.recorder import TraceRecorder

            self.telemetry = TraceRecorder(config.telemetry).attach(self)
        self.wheel = EventWheel()
        self._calendar = DeliverySchedule()
        self._active_routers = ActiveSet(_router_key)
        self._active_nodes = ActiveSet(_node_key)
        buckets = self._calendar.buckets
        for link in self.network.links:
            link.calendar = buckets
        for router in self.network.routers:
            router.registry = self._active_routers
        for node in self.network.nodes:
            node.registry = self._active_nodes
        if self.power is not None:
            self.power.schedule_events(
                self.wheel, sample_interval=config.sample_interval
            )
        if config.faults is not None:
            # Imported here to break the package cycle (reliability wraps
            # network links and the power manager).
            from repro.reliability.manager import ReliabilityManager

            self.reliability = ReliabilityManager(
                self.network, self.power, config.network, config.faults,
                self.hooks, self.wheel,
            )
        if config.stall_limit_cycles:
            StallWatchdog(self, config.stall_limit_cycles).attach()

    def step(self) -> None:
        """Advance the system by one router cycle."""
        now = self.cycle
        hooks = self.hooks
        if hooks.phase_start or hooks.phase_end:
            starts, ends = hooks.phase_start, hooks.phase_end
            for name, phase in self._phases:
                for callback in starts:
                    callback(name, now)
                phase(now)
                for callback in ends:
                    callback(name, now)
        else:
            for _, phase in self._phases:
                phase(now)
        self.cycle = now + 1

    # -- phases ------------------------------------------------------------------

    def _phase_deliver(self, now: int) -> None:
        """Move link arrivals into downstream buffers / node sinks.

        Pops this cycle's calendar bucket: one link id per due flit,
        ascending, so links deliver in id order and each link's flits
        leave its deque front first.  Fault-injected links hand their due
        flits to the fault state's filter (CRC trials, retransmission)
        once per entry; entries that find nothing due are no-ops.
        """
        due = self._calendar.pop_due(now)
        if not due:
            return
        links = self.network.links
        delivery_hooks = self.hooks.delivery
        if not delivery_hooks:
            for link_id in due:
                link = links[link_id]
                faults = link.faults
                if faults is None:
                    link.deliver(link._in_flight.popleft()[1], now)
                else:
                    deliver = link.deliver
                    for flit in faults.filter_arrivals(now):
                        deliver(flit, now)
            return
        # Observed path: hand over all of one link's due flits, then fire
        # the hooks for them (a link's entries are adjacent after the
        # sort; ``service_time < 1`` can make it deliver twice a cycle).
        count = len(due)
        index = 0
        while index < count:
            link_id = due[index]
            end = index + 1
            while end < count and due[end] == link_id:
                end += 1
            link = links[link_id]
            if link.faults is None:
                popleft = link._in_flight.popleft
                arrivals = []
                for _ in range(end - index):
                    arrivals.append(popleft()[1])
            else:
                arrivals = link.faults.filter_arrivals(now)
            index = end
            deliver = link.deliver
            for flit in arrivals:
                deliver(flit, now)
            for flit in arrivals:
                for callback in delivery_hooks:
                    callback(link, flit, now)

    def _phase_route(self, now: int) -> None:
        """Switch allocation + traversal for every router with work."""
        active = self._active_routers
        if active:
            for router in active.snapshot():
                router.step(now)

    def _phase_inject(self, now: int) -> None:
        """Source-queue injection for every node with queued flits."""
        active = self._active_nodes
        if active:
            for node in active.snapshot():
                node.step(now)

    def _phase_generate(self, now: int) -> None:
        """Create this cycle's new traffic."""
        nodes = self.network.nodes
        stats = self.stats
        for packet in self.traffic.generate(now):
            stats.packet_created(packet, now)
            nodes[packet.src].enqueue_packet(packet)

    def _phase_control(self, now: int) -> None:
        """Service the event wheel: transitions, windows, epochs, samples
        and the watchdog due this cycle, in that priority order."""
        wheel = self.wheel
        if wheel.next_cycle <= now:
            wheel.service(now)

    # -- driving -----------------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Run ``cycles`` more cycles.

        Whether the run is instrumented (fires ``phase_start``/``phase_end``
        hooks) is decided once on entry; attach phase hooks before calling.
        """
        if cycles < 0:
            raise ConfigError(f"cycles must be >= 0, got {cycles!r}")
        hooks = self.hooks
        if hooks.phase_start or hooks.phase_end:
            step = self.step
            for _ in range(cycles):
                step()
            return
        # Uninstrumented fast loop: the route/inject/generate/control phase
        # bodies are inlined with their bindings hoisted out of the loop,
        # because five method calls per cycle cost more than the phases
        # themselves on a quiet cycle: on an idle 4x4x8 mesh this loop
        # measured 884-991 ns per cycle against 1040-1851 ns for one
        # calling the ``_phase_*`` methods (docs/performance.md, "The
        # specialised run loop").  The methods serve the instrumented
        # :meth:`step` path; the golden corpus pins both.
        deliver = self._phase_deliver
        active_routers = self._active_routers
        active_nodes = self._active_nodes
        wheel = self.wheel
        nodes = self.network.nodes
        stats = self.stats
        generate = self.traffic.generate
        for _ in range(cycles):
            now = self.cycle
            deliver(now)
            if active_routers:
                for router in active_routers.snapshot():
                    router.step(now)
            if active_nodes:
                for node in active_nodes.snapshot():
                    node.step(now)
            for packet in generate(now):
                stats.packet_created(packet, now)
                nodes[packet.src].enqueue_packet(packet)
            if wheel.next_cycle <= now:
                wheel.service(now)
            self.cycle = now + 1

    def run_until_drained(self, max_cycles: int,
                          poll_interval: int = 512) -> bool:
        """Run until the trace is replayed and all packets delivered.

        Returns True if the network drained before ``max_cycles``.  Used by
        trace experiments so latency statistics cover every packet.  The
        drain check runs every ``poll_interval`` cycles *relative to the
        starting cycle*, so resuming from an arbitrary cycle still polls on
        schedule.

        Each poll interval is executed as one :meth:`run` batch, so the
        cycles between drain checks go through the same uninstrumented fast
        path ``run`` uses instead of paying the per-call :meth:`step` hook
        check every cycle (regression-tested bit-identical to the stepped
        loop).
        """
        if max_cycles < 1:
            raise ConfigError("max_cycles must be >= 1")
        if poll_interval < 1:
            raise ConfigError(
                f"poll_interval must be >= 1, got {poll_interval!r}"
            )
        start = self.cycle
        deadline = start + max_cycles
        while self.cycle < deadline:
            chunk = min(poll_interval, deadline - self.cycle)
            self.run(chunk)
            if chunk == poll_interval and self._is_drained():
                return True
        return self._is_drained()

    def _is_drained(self) -> bool:
        return (
            self.traffic.exhausted(self.cycle)
            and self.stats.in_flight == 0
            and not self._calendar.pending()
            and self.network.total_pending_flits == 0
        )

    def finalize(self) -> None:
        """Flush power-accounting integrals and telemetry buffers."""
        if self.power is not None:
            self.power.finalize(self.cycle)
        if self.telemetry is not None:
            self.telemetry.flush()

    # -- results ----------------------------------------------------------------

    def relative_power(self) -> float:
        """Average power vs. the non-power-aware baseline (1.0 if baseline)."""
        if self.power is None:
            return 1.0
        self.finalize()
        return self.power.relative_power(self.cycle)

    def summary(self) -> dict[str, float]:
        """Headline metrics of the run so far."""
        result = self.stats.summary(max(1, self.cycle))
        result["relative_power"] = self.relative_power()
        result["cycles"] = float(self.cycle)
        if self.reliability is not None:
            for key, value in self.reliability.report().as_dict().items():
                result[f"reliability_{key}"] = value
        return result


def _router_key(router: "Router") -> int:
    return router.router_id


def _node_key(node: Node) -> int:
    return node.node_id
