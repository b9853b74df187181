"""Unit tests for the trace recorders: wiring, filters, event semantics."""

import json

import pytest

from repro.engine.hooks import HookRegistry

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.errors import ConfigError
from repro.network.simulator import Simulator
from repro.telemetry.config import (
    KIND_PACKET,
    KIND_POLICY,
    KIND_POWER,
    KIND_TRANSITION,
    TelemetryConfig,
)
from repro.telemetry.recorder import ExecutorRecorder, TraceRecorder
from repro.telemetry.sinks import JsonlFileSink, RingBufferSink
from repro.traffic.uniform import UniformRandomTraffic

NETWORK = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                        buffer_depth=8, num_vcs=2)


def make_sim(telemetry: TelemetryConfig | None, rate: float = 0.1,
             seed: int = 3) -> Simulator:
    config = SimulationConfig(
        network=NETWORK,
        power=PowerAwareConfig(
            policy=PolicyConfig(window_cycles=60, history_windows=1),
            transitions=TransitionConfig(
                bit_rate_transition_cycles=2, voltage_transition_cycles=10,
                optical_transition_cycles=300, laser_epoch_cycles=400,
            ),
        ),
        seed=seed,
        sample_interval=100,
        telemetry=telemetry,
    )
    traffic = UniformRandomTraffic(NETWORK.num_nodes, rate, seed=seed)
    return Simulator(config, traffic)


class TestSinkSelection:
    def test_defaults_to_ring_buffer(self):
        assert isinstance(TraceRecorder().sink, RingBufferSink)

    def test_path_selects_jsonl(self, tmp_path):
        config = TelemetryConfig(path=str(tmp_path / "t.jsonl"))
        recorder = TraceRecorder(config)
        assert isinstance(recorder.sink, JsonlFileSink)
        recorder.close()

    def test_explicit_sink_wins(self, tmp_path):
        sink = RingBufferSink(4)
        config = TelemetryConfig(path=str(tmp_path / "t.jsonl"))
        assert TraceRecorder(config, sink=sink).sink is sink


class TestAttachment:
    def test_only_enabled_kinds_register_hooks(self):
        telemetry = TelemetryConfig(kinds=(KIND_POWER,))
        sim = make_sim(telemetry)
        assert len(sim.hooks.power_sample) == 1
        assert sim.hooks.policy == []
        assert sim.hooks.transition == []
        assert sim.hooks.packet_delivered == []

    def test_no_telemetry_registers_nothing(self):
        sim = make_sim(None)
        assert sim.telemetry is None
        assert sim.hooks.power_sample == []
        assert sim.hooks.policy == []

    def test_double_attach_rejected(self):
        sim = make_sim(None)
        recorder = TraceRecorder(TelemetryConfig())
        recorder.attach(sim)
        with pytest.raises(ConfigError):
            recorder.attach(sim)

    def test_detach_removes_every_hook(self):
        sim = make_sim(TelemetryConfig())
        sim.telemetry.detach()
        for event in ("policy", "transition", "power_sample",
                      "packet_delivered", "fault", "retransmit",
                      "link_failure"):
            assert getattr(sim.hooks, event) == []


class TestFilters:
    def test_link_subset_filter(self):
        telemetry = TelemetryConfig(
            kinds=(KIND_POLICY, KIND_TRANSITION), link_ids=(0, 1),
        )
        sim = make_sim(telemetry)
        sim.run(400)
        events = sim.telemetry.sink.events()
        assert events
        assert all(e.link_id in (0, 1) for e in events)

    def test_packet_sampling_stride(self):
        telemetry = TelemetryConfig(kinds=(KIND_PACKET,),
                                    packet_sample_every=3)
        sim = make_sim(telemetry, rate=0.2)
        sim.run(600)
        delivered = sim.stats.packets_delivered
        sampled = sim.telemetry.counts.get(KIND_PACKET, 0)
        assert delivered > 6
        assert sampled == delivered // 3

    def test_packet_events_carry_exact_latency(self):
        telemetry = TelemetryConfig(kinds=(KIND_PACKET,))
        sim = make_sim(telemetry, rate=0.1)
        sim.run(500)
        events = sim.telemetry.sink.events()
        assert len(events) == sim.stats.packets_delivered
        for event in events:
            assert event.latency > 0
            assert event.cycle >= event.latency


class TestTransitionSemantics:
    def test_only_real_steps_recorded_on_idle_network(self):
        """An idle power-aware network walks every link down the ladder one
        accepted step per window, then keeps deciding "down" at the bottom.
        Only the real steps may appear in the trace: one accepted event per
        ladder level walked, none for the bottomed-out no-op windows."""

        telemetry = TelemetryConfig(kinds=(KIND_TRANSITION,),
                                    buffer_events=100_000)
        sim = make_sim(telemetry, rate=0.0)
        sim.run(900)  # 15 windows: 5 accepted downs, then bottomed out
        events = sim.telemetry.sink.events()
        assert events
        per_link: dict[int, int] = {}
        for event in events:
            assert event.direction == "down"
            assert event.accepted
            assert event.to_level == event.from_level - 1
            assert event.duration == 12.0
            per_link[event.link_id] = per_link.get(event.link_id, 0) + 1
        levels = sim.power.ladder.num_levels
        assert all(count == levels - 1 for count in per_link.values())
        assert len(per_link) == len(sim.power.links)
        # Every recorded step matches an engine commit.
        totals = sim.power.transition_totals()
        assert len(events) == totals["down"] + totals["up"]

    def test_counts_track_emitted_events(self):
        telemetry = TelemetryConfig()
        sim = make_sim(telemetry, rate=0.1)
        sim.run(500)
        counts = sim.telemetry.counts
        assert counts[KIND_POWER] == len(sim.power.power_series)
        assert counts[KIND_POLICY] > 0
        assert sum(counts.values()) == sim.telemetry.sink.emitted


class TestExecutorRecorder:
    def fire_lifecycle(self, hooks: HookRegistry) -> None:
        for callback in hooks.exec_crash:
            callback("p1", "k1", 1, "crash")
        for callback in hooks.exec_point:
            callback("p0", "k0", "failed", 1, 0.5)
        for callback in hooks.exec_point:
            callback("p1", "k1", "done", 1, 1.25)

    def test_records_sequenced_events(self):
        hooks = HookRegistry()
        recorder = ExecutorRecorder().attach(hooks)
        self.fire_lifecycle(hooks)
        events = recorder.sink.events()
        assert [(e.kind, e.seq) for e in events] == \
            [("exec_crash", 1), ("exec_point", 2), ("exec_point", 3)]
        assert events[0].cause == "crash"
        assert events[2].status == "done"
        assert recorder.counts == {"exec_crash": 1, "exec_point": 2}

    def test_jsonl_path_round_trips(self, tmp_path):
        path = tmp_path / "exec.jsonl"
        hooks = HookRegistry()
        recorder = ExecutorRecorder(path=str(path)).attach(hooks)
        self.fire_lifecycle(hooks)
        recorder.close()
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["exec_crash", "exec_point", "exec_point"]

    def test_double_attach_rejected_and_close_detaches(self):
        hooks = HookRegistry()
        recorder = ExecutorRecorder().attach(hooks)
        with pytest.raises(ConfigError):
            recorder.attach(hooks)
        recorder.close()
        assert hooks.exec_point == []
        assert hooks.exec_crash == []
