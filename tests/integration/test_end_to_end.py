"""Integration tests: whole-system behaviour across modules.

These run real (small) simulations and assert system-level invariants:
conservation of packets, latency ordering between configurations, power
accounting consistency, and the qualitative behaviours the paper's design
rests on.
"""

import pytest

from repro.config import (
    MODULATOR,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
    VCSEL,
)
from repro.network.simulator import Simulator
from repro.network.validation import validate_topology
from repro.traffic.trace import TraceRecord, TraceReplaySource
from repro.traffic.uniform import UniformRandomTraffic


def small_config(power=None, **net_overrides) -> SimulationConfig:
    defaults = {"mesh_width": 3, "mesh_height": 3, "nodes_per_cluster": 4}
    defaults.update(net_overrides)
    return SimulationConfig(network=NetworkConfig(**defaults), power=power,
                            sample_interval=200)


def fast_power(technology=VCSEL, **overrides) -> PowerAwareConfig:
    return PowerAwareConfig(
        technology=technology,
        policy=PolicyConfig(window_cycles=150, history_windows=2),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=3, voltage_transition_cycles=15,
            optical_transition_cycles=600, laser_epoch_cycles=1200,
        ),
        **overrides,
    )


class TestConservation:
    def test_all_packets_delivered_exactly_once(self):
        config = small_config()
        traffic = UniformRandomTraffic(config.network.num_nodes, 0.4, seed=5)
        sim = Simulator(config, traffic)
        sim.run(4000)
        stats = sim.stats
        assert stats.packets_delivered + stats.in_flight == \
            stats.packets_created
        # Flit conservation: every delivered packet contributed its size.
        assert stats.flits_delivered == 5 * stats.packets_delivered

    def test_drained_network_is_empty(self):
        config = small_config()
        nodes = config.network.num_nodes
        records = [TraceRecord(t, t % nodes, (t + 3) % nodes, 4)
                   for t in range(0, 400, 7)
                   if t % nodes != (t + 3) % nodes]
        sim = Simulator(config, TraceReplaySource(nodes, records))
        assert sim.run_until_drained(20_000)
        assert sim.stats.packets_delivered == len(records)
        assert sim.network.total_pending_flits == 0
        occupancy = sum(ip.occupancy for r in sim.network.routers
                        for ip in r.inputs)
        assert occupancy == 0

    def test_loaded_mesh_delivers_without_stalling(self):
        # Two VCs, 8-flit buffers, 0.4 load: the stall watchdog raises if
        # XY routing with round-robin arbitration ever wedges.
        network = NetworkConfig(mesh_width=3, mesh_height=3,
                                nodes_per_cluster=2, buffer_depth=8,
                                num_vcs=2)
        config = SimulationConfig(network=network, power=None,
                                  sample_interval=500,
                                  stall_limit_cycles=3000)
        traffic = UniformRandomTraffic(network.num_nodes, 0.4, seed=6)
        sim = Simulator(config, traffic)
        sim.run(4000)
        stats = sim.stats
        assert stats.packets_delivered > 0.9 * stats.packets_created
        assert validate_topology(sim.network) == []

    def test_power_aware_delivers_everything_too(self):
        config = small_config(power=fast_power())
        traffic = UniformRandomTraffic(config.network.num_nodes, 0.3, seed=5)
        sim = Simulator(config, traffic)
        sim.run(6000)
        stats = sim.stats
        assert stats.packets_delivered + stats.in_flight == \
            stats.packets_created
        assert stats.packets_delivered > 0.9 * stats.packets_created


class TestLatencyOrdering:
    def test_power_aware_latency_at_least_baseline(self):
        baseline = small_config()
        aware = small_config(power=fast_power())
        results = {}
        for name, config in (("base", baseline), ("aware", aware)):
            traffic = UniformRandomTraffic(config.network.num_nodes, 0.2,
                                           seed=9)
            sim = Simulator(config, traffic)
            sim.run(6000)
            results[name] = sim.stats.mean_latency
        assert results["aware"] >= results["base"]
        # ... but bounded: the policy must not melt down at light load.
        assert results["aware"] < 3.0 * results["base"]

    def test_static_slow_network_is_slowest(self):
        fast = small_config()
        slow = small_config(power=PowerAwareConfig(
            min_bit_rate=5e9, max_bit_rate=5e9, num_levels=1))
        latencies = {}
        for name, config in (("fast", fast), ("slow", slow)):
            traffic = UniformRandomTraffic(config.network.num_nodes, 0.2,
                                           seed=9)
            sim = Simulator(config, traffic)
            sim.run(5000)
            latencies[name] = sim.stats.mean_latency
        assert latencies["slow"] > latencies["fast"]


class TestPowerBehaviour:
    def test_idle_network_reaches_floor_power(self):
        config = small_config(power=fast_power())
        traffic = UniformRandomTraffic(config.network.num_nodes, 0.0, seed=1)
        sim = Simulator(config, traffic)
        sim.run(8000)
        floor = sim.power.power_model.power(5e9) / \
            sim.power.power_model.max_power
        assert sim.relative_power() == pytest.approx(floor, abs=0.05)

    def test_power_rises_with_load(self):
        powers = []
        for rate in (0.05, 0.6):
            config = small_config(power=fast_power())
            traffic = UniformRandomTraffic(config.network.num_nodes, rate,
                                           seed=4)
            sim = Simulator(config, traffic)
            sim.run(8000)
            powers.append(sim.relative_power())
        assert powers[0] < powers[1]

    def test_vcsel_saves_at_least_as_much_as_modulator(self):
        results = {}
        for technology in (VCSEL, MODULATOR):
            config = small_config(power=fast_power(technology=technology))
            traffic = UniformRandomTraffic(config.network.num_nodes, 0.25,
                                           seed=4)
            sim = Simulator(config, traffic)
            sim.run(8000)
            results[technology] = sim.relative_power()
        assert results[VCSEL] <= results[MODULATOR] + 0.005

    def test_energy_bounded_by_baseline(self):
        config = small_config(power=fast_power())
        traffic = UniformRandomTraffic(config.network.num_nodes, 0.5, seed=2)
        sim = Simulator(config, traffic)
        sim.run(5000)
        sim.finalize()
        total = sim.power.total_energy_watt_cycles()
        baseline_energy = sim.power.baseline_power() * sim.cycle
        floor_energy = baseline_energy * (
            sim.power.power_model.power(5e9) / sim.power.power_model.max_power
        )
        assert floor_energy <= total <= baseline_energy


class TestOpticalSystem:
    def test_three_level_system_runs_and_tracks(self):
        config = small_config(
            power=fast_power(technology=MODULATOR, optical_levels=3))
        traffic = UniformRandomTraffic(config.network.num_nodes, 0.3, seed=3)
        sim = Simulator(config, traffic)
        sim.run(8000)
        stats = sim.stats
        assert stats.packets_delivered > 0.9 * stats.packets_created
        # Idle links' controllers should have stepped optical bands down.
        decreases = sum(pal.optical.decreases for pal in sim.power.links)
        assert decreases > 0
