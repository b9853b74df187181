"""The trace recorder: hooks in, typed events out.

:class:`TraceRecorder` is a pure observer.  It attaches to a simulator
exclusively through :attr:`Simulator.hooks <repro.network.simulator.
Simulator.hooks>` — nothing is hard-wired into the step loop — and it
registers a callback *only* for the event kinds its
:class:`~repro.telemetry.config.TelemetryConfig` enables, so a disabled
kind costs literally nothing (the hook list stays empty and the hot path's
truthiness check short-circuits).  Runs with a recorder attached are
bit-identical to runs without one (property-tested): the recorder reads,
never writes, simulation state.

Filters are applied before an event object is even built: per-kind (via
hook registration), per-link-subset (``link_ids``, for the link-scoped
kinds) and per-packet sampling stride (``packet_sample_every``).  Packet
lifecycle records ride the per-packet ``packet_delivered`` hook rather
than the per-flit ``delivery`` hook, so the packet kind costs O(packets),
not O(flit hops).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.telemetry.config import (
    KIND_EXEC_CRASH,
    KIND_EXEC_POINT,
    KIND_FAULT,
    KIND_LINK_FAILURE,
    KIND_PACKET,
    KIND_POLICY,
    KIND_POWER,
    KIND_RETRANSMIT,
    KIND_TRANSITION,
    TelemetryConfig,
)
from repro.telemetry.events import (
    DECISION_NAMES,
    ExecCrashEvent,
    ExecPointEvent,
    FaultEvent,
    LinkFailureEvent,
    PacketEvent,
    PolicyEvent,
    PowerEvent,
    RetransmitEvent,
    TransitionEvent,
)
from repro.telemetry.sinks import JsonlFileSink, RingBufferSink

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.engine.hooks import HookRegistry
    from repro.network.simulator import Simulator


class TraceRecorder:
    """Records one simulator's run as a stream of typed events."""

    def __init__(self, config: TelemetryConfig | None = None,
                 sink: Any | None = None):
        self.config = config or TelemetryConfig()
        if sink is not None:
            self.sink = sink
        elif self.config.path is not None:
            self.sink = JsonlFileSink(
                self.config.path,
                rotate_bytes=self.config.rotate_bytes,
                max_files=self.config.max_rotated_files,
            )
        else:
            self.sink = RingBufferSink(self.config.buffer_events)
        #: Events emitted per kind (post-filter), for summaries and tests.
        self.counts: dict[str, int] = {}
        self._links = (set(self.config.link_ids)
                       if self.config.link_ids is not None else None)
        self._packet_seen = 0
        self._sim: "Simulator | None" = None
        self._window = 0
        self._registered: list[tuple[str, Any]] = []

    # -- lifecycle -------------------------------------------------------------

    def attach(self, sim: "Simulator") -> "TraceRecorder":
        """Register hooks on ``sim`` for every enabled event kind."""
        if self._sim is not None:
            raise ConfigError("recorder is already attached to a simulator")
        self._sim = sim
        power = sim.config.power
        self._window = power.policy.window_cycles if power is not None else 0
        kinds = set(self.config.kinds)
        hooks = sim.hooks
        wiring = (
            (KIND_TRANSITION, "transition", self._on_transition),
            (KIND_POLICY, "policy", self._on_policy),
            (KIND_POWER, "power_sample", self._on_power),
            (KIND_PACKET, "packet_delivered", self._on_packet),
            (KIND_FAULT, "fault", self._on_fault),
            (KIND_RETRANSMIT, "retransmit", self._on_retransmit),
            (KIND_LINK_FAILURE, "link_failure", self._on_link_failure),
        )
        for kind, event, callback in wiring:
            if kind in kinds:
                hooks.add(event, callback)
                self._registered.append((event, callback))
        return self

    def detach(self) -> None:
        """Deregister every hook this recorder added (keeps the sink)."""
        if self._sim is None:
            return
        hooks = self._sim.hooks
        for event, callback in self._registered:
            hooks.remove(event, callback)
        self._registered.clear()
        self._sim = None

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        """Detach from the simulator and close the sink."""
        self.detach()
        self.sink.close()

    # -- helpers ---------------------------------------------------------------

    def _emit(self, event: Any) -> None:
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.sink.emit(event)

    def _wants_link(self, link_id: int) -> bool:
        return self._links is None or link_id in self._links

    # -- hook callbacks --------------------------------------------------------

    def _on_transition(self, pal, decision: int, now: int) -> None:
        engine = pal.engine
        accepted = pal.last_step_accepted
        deferred = decision > 0 and pal.pending_up
        if not accepted and not deferred:
            # Nothing happened: the step was a no-op at a ladder end or
            # was swallowed while another transition was still in flight.
            # The policy record already carries the decision, so emitting
            # a transition event here would only bloat the trace (idle
            # links decide "down" at the bottom level every single window).
            return
        link = pal.link
        if not self._wants_link(link.link_id):
            return
        if accepted and engine.in_transition:
            from_level, to_level = engine.level, engine.target
            timing = engine.config
            duration = float(timing.voltage_transition_cycles
                             + timing.bit_rate_transition_cycles)
        elif accepted:
            # Zero-delay transition config: the step committed instantly,
            # so the engine already sits at the new level.
            from_level = to_level = engine.level
            duration = 0.0
        else:
            # Deferred up-step: held until the external laser source can
            # support the target rate (accepted=False, pending).
            from_level, to_level = engine.level, engine.level + 1
            duration = 0.0
        self._emit(TransitionEvent(
            cycle=now,
            link_id=link.link_id,
            link_kind=link.kind,
            direction=DECISION_NAMES.get(decision, str(decision)),
            from_level=from_level,
            to_level=to_level,
            duration=duration,
            accepted=accepted,
        ))

    def _on_policy(self, pal, lu: float, bu: float, decision: int,
                   now: int) -> None:
        # Hottest callback (fires per link per window): the link filter is
        # inlined and the level read skips the PowerAwareLink property.
        link = pal.link
        links = self._links
        if links is not None and link.link_id not in links:
            return
        optical = pal.optical
        self._emit(PolicyEvent(
            cycle=now,
            window_start=now - self._window,
            link_id=link.link_id,
            link_kind=link.kind,
            lu=lu,
            bu=bu,
            decision=DECISION_NAMES.get(decision, str(decision)),
            level=pal.engine.level,
            band=optical.band if optical is not None else None,
        ))

    def _on_power(self, now: int, watts: float) -> None:
        self._emit(PowerEvent(cycle=now, watts=watts))

    def _on_packet(self, packet, now: int) -> None:
        self._packet_seen += 1
        if self._packet_seen % self.config.packet_sample_every:
            return
        self._emit(PacketEvent(
            cycle=now,
            packet_id=packet.packet_id,
            src=packet.src,
            dst=packet.dst,
            size=packet.size,
            latency=now - packet.create_time,
        ))

    def _on_fault(self, link, flit, now: int) -> None:
        if not self._wants_link(link.link_id):
            return
        self._emit(FaultEvent(cycle=now, link_id=link.link_id,
                              packet_id=flit.packet.packet_id))

    def _on_retransmit(self, link, flit, attempt: int, now: int) -> None:
        if not self._wants_link(link.link_id):
            return
        self._emit(RetransmitEvent(cycle=now, link_id=link.link_id,
                                   packet_id=flit.packet.packet_id,
                                   attempt=attempt))

    def _on_link_failure(self, link, now: int) -> None:
        if not self._wants_link(link.link_id):
            return
        self._emit(LinkFailureEvent(cycle=now, link_id=link.link_id))


class ExecutorRecorder:
    """Records a sweep executor's lifecycle as a stream of typed events.

    The executor analogue of :class:`TraceRecorder`: it attaches to the
    executor's :class:`~repro.engine.hooks.HookRegistry` (the same
    registry type the simulator fronts), turns the ``exec_*`` hook
    firings into :class:`~repro.telemetry.events.ExecPointEvent` /
    ``ExecCrashEvent`` records, and streams them to
    a JSONL sink.  Events carry a monotonically increasing ``seq``
    rather than a cycle — there is no simulator clock out here.
    """

    def __init__(self, path: str | None = None, sink: Any | None = None):
        if sink is not None:
            self.sink = sink
        elif path is not None:
            self.sink = JsonlFileSink(path)
        else:
            self.sink = RingBufferSink(65_536)
        #: Events emitted per kind, for summaries and tests.
        self.counts: dict[str, int] = {}
        self._seq = 0
        self._hooks: "HookRegistry | None" = None
        self._registered: list[tuple[str, Any]] = []

    # -- lifecycle -------------------------------------------------------------

    def attach(self, hooks: "HookRegistry") -> "ExecutorRecorder":
        """Register callbacks for every executor lifecycle event."""
        if self._hooks is not None:
            raise ConfigError("recorder is already attached to an executor")
        self._hooks = hooks
        wiring = (
            (KIND_EXEC_POINT, "exec_point", self._on_exec_point),
            (KIND_EXEC_CRASH, "exec_crash", self._on_exec_crash),
        )
        for _kind, event, callback in wiring:
            hooks.add(event, callback)
            self._registered.append((event, callback))
        return self

    def detach(self) -> None:
        """Deregister every hook this recorder added (keeps the sink)."""
        if self._hooks is None:
            return
        for event, callback in self._registered:
            self._hooks.remove(event, callback)
        self._registered.clear()
        self._hooks = None

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        """Detach from the executor and close the sink."""
        self.detach()
        self.sink.close()

    # -- helpers ---------------------------------------------------------------

    def _emit(self, event: Any) -> None:
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.sink.emit(event)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- hook callbacks --------------------------------------------------------

    def _on_exec_point(self, label: str, key: str, status: str,
                       attempt: int, elapsed: float) -> None:
        self._emit(ExecPointEvent(seq=self._next_seq(), label=label,
                                  key=key, status=status, attempt=attempt,
                                  elapsed=elapsed))

    def _on_exec_crash(self, label: str, key: str, attempt: int,
                       cause: str) -> None:
        self._emit(ExecCrashEvent(seq=self._next_seq(), label=label,
                                  key=key, attempt=attempt, cause=cause))
