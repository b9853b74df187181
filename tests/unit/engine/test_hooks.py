"""Unit tests for the hook registry and the phase profiler."""

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.engine.hooks import EVENTS, HookRegistry
from repro.engine.profiler import PhaseProfiler
from repro.errors import ConfigError
from repro.experiments.configs import get_scale, power_config
from repro.network.links import MESH
from repro.network.simulator import Simulator
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric
from repro.reliability import FaultConfig, LinkFailure
from repro.traffic import UniformRandomTraffic

#: One callback per simulator event, taking exactly the arguments the
#: event is documented to pass (repro.engine.hooks).
SIMULATOR_EVENT_ARITY = {
    "phase_start": 2, "phase_end": 2, "window": 2, "transition": 3,
    "policy": 5, "power_sample": 2, "delivery": 3, "packet_delivered": 2,
    "fault": 3, "retransmit": 4, "link_failure": 2,
}


class TestHookRegistry:
    def test_annotations_mirror_events(self):
        # The class-level annotations exist for static typing; this pins
        # them to the EVENTS tuple so neither can drift alone.
        annotated = [name for name in HookRegistry.__annotations__
                     if not name.startswith("_")]
        assert tuple(annotated) == EVENTS
        assert HookRegistry.__slots__ == EVENTS

    def test_add_fires_in_registration_order(self):
        hooks = HookRegistry()
        order = []
        hooks.add("window", lambda start, end: order.append("a"))
        hooks.add("window", lambda start, end: order.append("b"))
        for callback in hooks.window:
            callback(0, 100)
        assert order == ["a", "b"]

    def test_unknown_event_rejected(self):
        hooks = HookRegistry()
        with pytest.raises(ConfigError):
            hooks.add("no_such_event", lambda: None)
        with pytest.raises(ConfigError):
            hooks.remove("no_such_event", lambda: None)

    def test_non_callable_rejected(self):
        hooks = HookRegistry()
        with pytest.raises(ConfigError):
            hooks.add("delivery", "not callable")

    def test_remove_unregistered_rejected(self):
        hooks = HookRegistry()
        with pytest.raises(ConfigError):
            hooks.remove("delivery", lambda link, flit, now: None)

    def test_add_returns_callback_and_remove_round_trips(self):
        hooks = HookRegistry()
        callback = hooks.add("delivery", lambda link, flit, now: None)
        assert hooks.delivery == [callback]
        hooks.remove("delivery", callback)
        assert hooks.delivery == []

    def test_instrumented_tracks_phase_hooks(self):
        hooks = HookRegistry()
        assert not hooks.instrumented
        callback = hooks.add("phase_start", lambda phase, cycle: None)
        assert hooks.instrumented
        hooks.remove("phase_start", callback)
        assert not hooks.instrumented
        hooks.add("phase_end", lambda phase, cycle: None)
        assert hooks.instrumented

    def test_every_declared_event_exists(self):
        hooks = HookRegistry()
        for event in EVENTS:
            assert getattr(hooks, event) == []

    def test_every_simulator_event_fires_with_its_documented_arity(self):
        """A power-aware, fault-injected run with a hard link failure
        fires every simulator event, each through a callback that takes
        exactly the documented arguments (a fire site passing any other
        count raises TypeError).  ``HookRegistry.add`` rejects unknown
        names at registration.  The executor's two events are fired
        outside the simulator: ``exec_point`` in
        tests/unit/experiments/test_executor.py
        (``test_hooks_see_the_whole_lifecycle``) and ``exec_crash`` in
        tests/integration/test_executor_chaos.py
        (``test_crash_costs_only_the_crashing_point``); the recorder's
        handlers for both are in tests/unit/telemetry/test_recorder.py.
        """
        assert set(SIMULATOR_EVENT_ARITY) == \
            set(EVENTS) - {"exec_point", "exec_crash"}
        network = NetworkConfig(mesh_width=2, mesh_height=2,
                                nodes_per_cluster=2)
        fabric = NetworkFabric(network, StatsCollector())
        dead = next(link.link_id for link in fabric.links
                    if link.kind == MESH)
        config = SimulationConfig(
            network=network,
            power=power_config(get_scale("smoke")),
            # Low received power with the margin guard off: links step
            # down into lossy levels, so flits fail CRC and are re-sent.
            faults=FaultConfig(seed=3, received_power_w=13e-6,
                               margin_guard=False,
                               failures=(LinkFailure(dead, at_cycle=500),)),
            warmup_cycles=0, sample_interval=100,
        )
        sim = Simulator(config, UniformRandomTraffic(
            network.num_nodes, injection_rate=0.5, seed=2))
        fired = dict.fromkeys(SIMULATOR_EVENT_ARITY, 0)

        def counter(event, arity):
            def on_event(*args):
                assert len(args) == arity, (event, args)
                fired[event] += 1
            return on_event

        for event, arity in SIMULATOR_EVENT_ARITY.items():
            sim.hooks.add(event, counter(event, arity))
        sim.run(2_000)
        assert [event for event, count in fired.items() if count == 0] == []


class FakeClock:
    """A controllable clock: each phase appears to take ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestPhaseProfiler:
    def test_accumulates_per_phase(self):
        profiler = PhaseProfiler(clock=FakeClock())
        hooks = HookRegistry()
        profiler.attach(hooks)
        for cycle in range(3):
            for phase in ("deliver", "route"):
                for callback in hooks.phase_start:
                    callback(phase, cycle)
                for callback in hooks.phase_end:
                    callback(phase, cycle)
        assert profiler.calls == {"deliver": 3, "route": 3}
        assert profiler.seconds == {"deliver": 3.0, "route": 3.0}
        assert profiler.total_seconds == 6.0

    def test_double_attach_rejected(self):
        profiler = PhaseProfiler()
        hooks = HookRegistry()
        profiler.attach(hooks)
        with pytest.raises(ConfigError):
            profiler.attach(hooks)

    def test_detach_restores_uninstrumented(self):
        profiler = PhaseProfiler()
        hooks = HookRegistry()
        profiler.attach(hooks)
        assert hooks.instrumented
        profiler.detach()
        assert not hooks.instrumented
        with pytest.raises(ConfigError):
            profiler.detach()

    def test_report_mentions_every_phase(self):
        profiler = PhaseProfiler(clock=FakeClock())
        hooks = HookRegistry()
        profiler.attach(hooks)
        for callback in hooks.phase_start:
            callback("route", 0)
        for callback in hooks.phase_end:
            callback("route", 0)
        report = profiler.report()
        assert "route" in report
        assert "total" in report

    def test_empty_report(self):
        assert "nothing ran" in PhaseProfiler().report()
