"""Property tests: reset-in-place is bit-identical to fresh construction.

The warm-worker machinery's hard contract
(:meth:`~repro.network.simulator.Simulator.reset`): running N sweep
points through ONE reused simulator — resetting between points — must
produce exactly what N freshly constructed simulators produce.  Summary,
power series, level histogram, transition totals and the full telemetry
event stream, over every topology, with and without faults.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.links import MESH
from repro.network.simulator import Simulator
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric
from repro.reliability import FaultConfig, LinkFailure
from repro.telemetry.config import TelemetryConfig
from repro.traffic.uniform import UniformRandomTraffic

TOPOLOGIES = ("mesh", "torus", "cmesh", "line")


def network_for(topology: str) -> NetworkConfig:
    # cmesh concentration (2) must divide the grid dimensions.
    size = 4 if topology == "cmesh" else 3
    return NetworkConfig(mesh_width=size, mesh_height=size,
                         nodes_per_cluster=2, buffer_depth=8, num_vcs=2,
                         topology=topology)


def make_power(window: int = 60) -> PowerAwareConfig:
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=window, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )


def make_config(topology: str, seed: int, *, power=None,
                faults: FaultConfig | None = None,
                trace_path: str | None = None) -> SimulationConfig:
    telemetry = None
    if trace_path is not None:
        telemetry = TelemetryConfig(path=trace_path)
    return SimulationConfig(
        network=network_for(topology),
        power=power,
        seed=seed,
        sample_interval=50,
        stall_limit_cycles=50_000,
        faults=faults,
        telemetry=telemetry,
    )


def collect(sim: Simulator, cycles: int = 500):
    sim.run(cycles)
    results = (
        sim.summary(),
        tuple(sim.power.power_series) if sim.power else (),
        tuple(sim.power.level_histogram()) if sim.power else (),
        sim.power.transition_totals() if sim.power else {},
    )
    if sim.telemetry is not None:
        sim.telemetry.close()
    return results


def first_mesh_link_id(topology: str) -> int:
    fabric = NetworkFabric(network_for(topology), StatsCollector())
    return next(l.link_id for l in fabric.links if l.kind == MESH)


def faults_for(topology: str) -> FaultConfig:
    # The line has no detour redundancy, so it gets a noisy channel
    # (retransmissions) instead of a hard kill.
    if topology == "line":
        return FaultConfig(seed=3, received_power_w=13e-6)
    return FaultConfig(
        seed=3,
        failures=(LinkFailure(first_mesh_link_id(topology), at_cycle=200),),
    )


class TestResetEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        rates=st.lists(st.floats(min_value=0.0, max_value=0.4),
                       min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_reused_fabric_matches_fresh(self, topology, rates, seed):
        # N points through one reused simulator vs N fresh simulators.
        fresh = []
        for index, rate in enumerate(rates):
            config = make_config(topology, seed + index, power=make_power())
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed + index)
            fresh.append(collect(Simulator(config, traffic)))
        warm = []
        sim = None
        for index, rate in enumerate(rates):
            config = make_config(topology, seed + index, power=make_power())
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed + index)
            if sim is None:
                sim = Simulator(config, traffic)
            else:
                sim.reset(config, traffic)
            warm.append(collect(sim))
        assert warm == fresh

    @settings(max_examples=6, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        rate=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
        fault_order=st.booleans(),
    )
    def test_reset_across_fault_boundary(self, topology, rate, seed,
                                         fault_order):
        # A faulted run mutates the fabric (failed links, invalidated
        # routes, guard hooks); resetting must fully undo it — and the
        # other way around, resetting INTO a faulted run from a clean one
        # must attach the reliability layer exactly as construction does.
        faults = faults_for(topology)
        sequence = [faults, None] if fault_order else [None, faults]
        fresh = []
        for index, fault in enumerate(sequence):
            config = make_config(topology, seed + index, power=make_power(),
                                 faults=fault)
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed + index)
            fresh.append(collect(Simulator(config, traffic)))
        warm = []
        sim = None
        for index, fault in enumerate(sequence):
            config = make_config(topology, seed + index, power=make_power(),
                                 faults=fault)
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed + index)
            if sim is None:
                sim = Simulator(config, traffic)
            else:
                sim.reset(config, traffic)
            warm.append(collect(sim))
        assert warm == fresh

    @settings(max_examples=6, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        rate=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_reset_swaps_power_policy_scalars(self, topology, rate, seed):
        # Consecutive points differing in policy window (a plain scalar
        # knob) reuse the manager via its in-place reset; a point
        # dropping power entirely and one restoring it exercise the
        # manager detach/rebuild paths.
        powers = [make_power(60), make_power(80), None, make_power(60)]
        fresh = []
        for index, power in enumerate(powers):
            config = make_config(topology, seed + index, power=power)
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed + index)
            fresh.append(collect(Simulator(config, traffic), cycles=300))
        warm = []
        sim = None
        for index, power in enumerate(powers):
            config = make_config(topology, seed + index, power=power)
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed + index)
            if sim is None:
                sim = Simulator(config, traffic)
            else:
                sim.reset(config, traffic)
            warm.append(collect(sim, cycles=300))
        assert warm == fresh

    @settings(max_examples=5, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        rate=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_telemetry_streams_are_identical(self, topology, rate, seed):
        # Not just the summary: the full recorded event stream — every
        # hook firing, in order — must match between a fresh simulator
        # and a reset one that already ran a different point.
        with tempfile.TemporaryDirectory() as tmp:
            fresh_path = os.path.join(tmp, "fresh.jsonl")
            warm_path = os.path.join(tmp, "warm.jsonl")

            config = make_config(topology, seed, power=make_power(),
                                 trace_path=fresh_path)
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed)
            fresh = collect(Simulator(config, traffic))

            # Dirty a simulator with an unrelated point, then reset it
            # onto the traced point.
            dirty_config = make_config(topology, seed + 99,
                                       power=make_power(80))
            dirty_traffic = UniformRandomTraffic(
                dirty_config.network.num_nodes, 0.3, seed=seed + 99)
            sim = Simulator(dirty_config, dirty_traffic)
            sim.run(250)
            config = make_config(topology, seed, power=make_power(),
                                 trace_path=warm_path)
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=seed)
            sim.reset(config, traffic)
            warm = collect(sim)

            assert warm == fresh
            with open(fresh_path) as fh:
                fresh_events = [json.loads(line) for line in fh]
            with open(warm_path) as fh:
                warm_events = [json.loads(line) for line in fh]
        assert warm_events == fresh_events
        assert fresh_events  # empty-vs-empty proves nothing
