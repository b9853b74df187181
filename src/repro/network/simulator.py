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
   cycle: the end of up-steps' voltage ramps, window-boundary policy
   evaluation, laser epochs, power sampling and the stall watchdog.
   Other transition phase ends change only the billed level; readers
   apply them (:meth:`~repro.core.manager.NetworkPowerManager.catch_up`),
   the last one at the end of every :meth:`Simulator.run` call.

The engine makes each phase cost O(active components), not O(network):
every flit pushed onto a link with a hand-over to make is filed in a
per-cycle arrival calendar
(:class:`~repro.engine.schedule.DeliverySchedule`; ejection body flits,
which node sinks ignore, travel as runs and are not), routers and nodes
register into :class:`~repro.engine.active.ActiveSet` registries while
they hold work and are skipped otherwise, and the power manager's
periodic work is event-scheduled on an
:class:`~repro.engine.wheel.EventWheel` instead of being polled with
modulo checks every cycle.  Long worms whose path is latched and
uncontended move as worm streams (:mod:`repro.network.stream`) instead
of flit by flit, and when no router or node has work the run loop jumps
to the next cycle that has any.  The engine's behaviour is pinned by the
committed digest corpus in ``tests/integration/test_golden_corpus.py``.

Observers (profilers, metrics samplers, telemetry) attach through
:attr:`Simulator.hooks`, a typed :class:`~repro.engine.hooks.HookRegistry`
— nothing else is hard-wired into the run loop, which is the same code
whether or not anything is attached.

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
from repro.network.links import EJECTION
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric, Node
from repro.traffic.base import TrafficSource

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.core.manager import NetworkPowerManager
    from repro.network.links import Link
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
    machinery: the common path is a sum over the links and a couple of
    integer compares, and never imports the diagnosis module
    (regression-tested).
    """
    from repro.metrics.inspect import congestion_report

    return SimulationError(f"{description}\n{congestion_report(sim)}")


class StallWatchdog:
    """Turns a silent simulator hang into a diagnosis.

    Attaches through the engine: a recurring event-wheel check sums the
    flits every link has carried (``Link.flits_carried``, bumped per
    push) and notes the check's cycle as progress whenever the sum moved
    since the previous check.  It raises
    :class:`~repro.errors.SimulationError` when packets are in flight but
    no flit has moved for ``limit`` cycles (detected within one
    :data:`WATCHDOG_INTERVAL` of that).  It registers no ``delivery``
    hook, so the watched run takes the same deliver path as an
    unwatched one.
    """

    __slots__ = ("sim", "limit", "_last_progress_cycle", "_last_carried")

    def __init__(self, sim: "Simulator", limit: int):
        self.sim = sim
        self.limit = limit
        # Start from the simulator's current cycle, not 0: a watchdog
        # attached to a simulator that has already run would otherwise
        # report a bogus stall spanning the whole pre-attach history.
        self._last_progress_cycle = sim.cycle
        self._last_carried = self._carried()

    def attach(self) -> "StallWatchdog":
        self.sim.wheel.schedule(self.sim.cycle, self._check, PRI_WATCHDOG)
        return self

    def _carried(self) -> int:
        total = 0
        for link in self.sim.network.links:
            total += link.flits_carried
        return total

    def _check(self, now: int) -> None:
        carried = self._carried()
        if carried != self._last_carried:
            self._last_carried = carried
            self._last_progress_cycle = now
        stalled = now - self._last_progress_cycle
        if self.sim.stats.in_flight > 0 and stalled >= self.limit:
            raise _stall_error(
                self.sim,
                f"no flit moved for {stalled} cycles with "
                f"{self.sim.stats.in_flight} packets in flight — likely a "
                "flow-control bug.",
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
        # Imported here, like the power manager below, so importing the
        # package does not load it.
        from repro.network.stream import path_tables

        #: Which link feeds each router port, and who sends on each link:
        #: structural, so kept across resets.
        self._stream_tables = path_tables(self.network)
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
        (hypothesis-tested over mesh shapes, with and without
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
        from repro.network.stream import WormStreams

        self._streams = WormStreams(self, self._stream_tables)
        # Fault-injected runs never stream: every flit takes its trials.
        worms = self._streams.fresh if config.faults is None else None
        buckets = self._calendar.buckets
        delivery_hooks = self.hooks.delivery
        for link in self.network.links:
            link.calendar = buckets
            # Alias (not copy), like ``stats.packet_hooks``: a hook added
            # later still turns the link's body runs back into filing.
            link.delivery_hooks = delivery_hooks
            # Fault state is attached above, before any flit moves, and
            # stays for the run; a faulty link files every flit so each
            # one takes its CRC trial.
            link.body_runs = link.kind == EJECTION and link.faults is None
            link.worms = worms if link.body_runs else None

    def step(self) -> None:
        """Advance the system by one router cycle."""
        self.run(1)

    # -- phases ------------------------------------------------------------------

    def _phase_deliver(self, now: int) -> None:
        """Move link arrivals into downstream buffers / node sinks.

        Pops this cycle's calendar bucket: one link id per due flit,
        ascending, so links deliver in id order and each link's flits
        leave its deque front first.  Fault-injected links hand their due
        flits to the fault state's filter (CRC trials, retransmission)
        once per entry; entries that find nothing due are no-ops.

        A fault-free link with a ``sink`` (every router-bound link) has
        its flit pushed straight into the router's VC buffer:
        :meth:`Router.receive_flit`, inlined, which it still calls to
        raise its diagnostics.  ``delivery`` hooks fire once a link has
        handed over all its flits due this cycle (a link's entries are
        adjacent after the sort; ``service_time < 1`` can make it
        deliver twice a cycle), for each of them, front first.
        """
        due = self._calendar.pop_due(now)
        if not due:
            return
        links = self.network.links
        streams = self._streams
        hooked = bool(self.hooks.delivery)
        handed: list = []
        handing = None
        for link_id in due:
            link = links[link_id]
            if hooked and link is not handing:
                if handed:
                    self._fire_delivery(handing, handed, now)
                    handed = []
                handing = link
            faults = link.faults
            if faults is not None:
                arrivals = faults.filter_arrivals(now)
                deliver = link.deliver
                for flit in arrivals:
                    deliver(flit, now)
                if hooked:
                    handed += arrivals
                continue
            flit = link._in_flight.popleft()[1]
            sink = link.sink
            if sink is None:
                link.deliver(flit, now)
            else:
                router, port, ip = sink
                vc = flit.vc
                if not 0 <= vc < router.num_vcs:
                    router.receive_flit(port, flit, now)  # raises
                if router.stream_outs and flit.is_head:
                    streams.contend(router, port, vc, flit, now)
                if not router._active_mask and router.registry is not None:
                    router.registry.add(router)
                buf = ip.vcs[vc].buffer
                fifo = buf._fifo
                held = len(fifo)
                if held >= buf.capacity:
                    buf.push(flit, now)  # raises the credit diagnostic
                buf._occ_integral += held * (now - buf._last_event)
                buf._last_event = now
                fifo.append(flit)
                ip.nonempty |= 1 << vc
                router._active_mask |= 1 << port
            if hooked:
                handed.append(flit)
        if handed:
            self._fire_delivery(handing, handed, now)

    def _fire_delivery(self, link: "Link", flits: list, now: int) -> None:
        """Fire the ``delivery`` hooks for flits ``link`` just handed over."""
        callbacks = self.hooks.delivery
        for flit in flits:
            for callback in callbacks:
                callback(link, flit, now)

    def _phase_edge(self, ended: str | None, started: str | None,
                    now: int) -> None:
        """Fire ``phase_end`` for ``ended``, then ``phase_start`` for
        ``started`` (either may be ``None``)."""
        hooks = self.hooks
        if ended is not None:
            for callback in hooks.phase_end:
                callback(ended, now)
        if started is not None:
            for callback in hooks.phase_start:
                callback(started, now)

    # -- driving -----------------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Run ``cycles`` more cycles.

        The phases run in :data:`PHASES` order.  Whether ``phase_start``/
        ``phase_end`` hooks fire around them is decided once on entry;
        attach phase hooks before calling.

        At the end of a cycle, after the control phase, worms whose path
        is latched and uncontended may become streams
        (:mod:`repro.network.stream`) that move without being stepped
        until the next wheel event or the end of the call; every stream
        is written back before the wheel fires and before this returns.
        When no router or node has work left, untraced runs jump straight
        to the next cycle with a hand-over, a packet (sources that say
        when: :meth:`~repro.traffic.base.TrafficSource.next_arrival`), a
        wheel event or a stream to settle.
        """
        if cycles < 0:
            raise ConfigError(f"cycles must be >= 0, got {cycles!r}")
        traced = self.hooks.instrumented
        edge = self._phase_edge
        # The route/inject/generate/control phase bodies are inlined with
        # their bindings hoisted out of the loop, because a method call
        # per phase costs more than the phase itself on a quiet cycle
        # (docs/performance.md, "The run loop").
        deliver = self._phase_deliver
        active_routers = self._active_routers
        active_nodes = self._active_nodes
        # Truth-test the registries' member dicts, not the sets: a dict
        # test runs in C, ActiveSet.__bool__ is a Python call twice a cycle.
        router_members = active_routers._members
        node_members = active_nodes._members
        wheel = self.wheel
        nodes = self.network.nodes
        stats = self.stats
        generate = self.traffic.generate
        streams = self._streams
        worms = streams.fresh
        next_arrival = self.traffic.next_arrival
        calendar = self._calendar
        now = self.cycle
        end = now + cycles
        last = end - 1
        while now < end:
            if traced:
                edge(None, "deliver", now)
            deliver(now)
            if traced:
                edge("deliver", "route", now)
            if router_members:
                for router in active_routers.snapshot():
                    router.step(now)
            if traced:
                edge("route", "inject", now)
            if node_members:
                for node in active_nodes.snapshot():
                    node.step(now)
            if traced:
                edge("inject", "generate", now)
            for packet in generate(now):
                stats.packet_created(packet, now)
                node = nodes[packet.src]
                if node.stream is not None:
                    streams.release_source(node, now)
                node.enqueue_packet(packet)
            if traced:
                edge("generate", "control", now)
            if wheel.next_cycle <= now:
                if streams.active:
                    streams.before_wheel(now)
                wheel.service(now)
            if worms or streams.next <= now:
                streams.settle(now, last)
            if traced:
                edge("control", None, now)
            now += 1
            if not router_members and not node_members and not traced:
                # Nothing is stepped next cycle: jump to the first cycle
                # that has a hand-over, a packet, a wheel event or a
                # stream to settle (streams move on their own meanwhile).
                wake = next_arrival(now - 1)
                if wake > now:
                    if wheel.next_cycle < wake:
                        wake = wheel.next_cycle
                    if streams.next < wake:
                        wake = streams.next
                    buckets = calendar.buckets
                    if buckets:
                        due = min(buckets)
                        if due < wake:
                            wake = due
                    if wake > end:
                        wake = end
                    if wake > now:
                        now = int(wake)
                        calendar.skip_to(now)
            self.cycle = now
        if streams.active:
            streams.cut_all(now - 1, "run_end")
        if self.power is not None:
            # Transition completions that change no transport wait for a
            # reader: leave the control state exact between calls.
            self.power.catch_up(now - 1)

    def run_until_drained(self, max_cycles: int,
                          poll_interval: int = 512) -> bool:
        """Run until the trace is replayed and all packets delivered.

        Returns True if the network drained before ``max_cycles``.  Used by
        trace experiments so latency statistics cover every packet.  The
        drain check runs every ``poll_interval`` cycles *relative to the
        starting cycle*, so resuming from an arbitrary cycle still polls on
        schedule.

        Each poll interval is executed as one :meth:`run` batch
        (regression-tested bit-identical to stepping cycle by cycle).
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

    def stream_counters(self) -> dict[str, int]:
        """Worm-stream counters of the run so far (see
        :meth:`repro.network.stream.WormStreams.counters`); they are not
        part of any result, so runs with and without streams digest
        alike."""
        return self._streams.counters()

    def control_counters(self) -> dict[str, int]:
        """Power-control counters of the run so far (see
        :meth:`repro.core.manager.NetworkPowerManager.control_counters`;
        empty for the baseline); like :meth:`stream_counters`, not part
        of any result."""
        if self.power is None:
            return {}
        return self.power.control_counters()

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
