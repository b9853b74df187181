"""Integration tests: the LINK_OFF sleep rung end-to-end.

The rung must demonstrably be reached, billed (zero power while off, a
real wake penalty after) and left again without losing a single packet,
and on the mesh only node-facing links may use it.
"""

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.links import MESH
from repro.network.simulator import Simulator
from repro.traffic.trace import TraceRecord, TraceReplaySource


def mesh_config(power) -> SimulationConfig:
    network = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2)
    return SimulationConfig(network=network, power=power,
                            sample_interval=200, validate_topology=True)


def fast_power(**overrides) -> PowerAwareConfig:
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=100, history_windows=2),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=3, voltage_transition_cycles=15,
            optical_transition_cycles=600, laser_epoch_cycles=1200,
            link_off_wake_cycles=50,
        ),
        **overrides,
    )


def burst_idle_burst(nodes):
    """Traffic with a long silent gap for links to sleep through."""
    records = []
    for start in (0, 3000):
        for t in range(start, start + 200, 10):
            src = t % nodes
            dst = (t + nodes // 2) % nodes
            if src != dst:
                records.append(TraceRecord(t, src, dst, 4))
    return TraceReplaySource(nodes, records), len(records)


class TestLinkOff:
    def run_pair(self):
        """The same burst/idle/burst workload with and without LINK_OFF."""
        out = {}
        for link_off in (False, True):
            config = mesh_config(fast_power(link_off=link_off))
            traffic, n_packets = burst_idle_burst(config.network.num_nodes)
            sim = Simulator(config, traffic)
            assert sim.run_until_drained(60_000)
            assert sim.stats.packets_delivered == n_packets
            sim.summary()   # finalizes energy accounting
            out[link_off] = sim
        return out[False], out[True]

    def test_sleep_reached_billed_and_woken(self):
        plain, sleepy = self.run_pair()

        totals = sleepy.power.sleep_totals()
        assert totals["sleeps"] > 0
        assert totals["wakes"] > 0
        off_time = sum(p.engine.off_cycles for p in sleepy.power.links)
        assert off_time > 0.0
        # Links that served the second burst slept, woke and delivered;
        # idle links may have dozed off again during the drain tail.
        assert sleepy.power.asleep_count() <= len(sleepy.power.links)
        # The wake penalty is billed as real disabled time: sleepers
        # accrue it on top of whatever relock time both runs share.
        assert sum(p.engine.disabled_cycles for p in sleepy.power.links) > \
            sum(p.engine.disabled_cycles for p in plain.power.links)
        # Zero-power sleep over the idle gap must save net energy.
        assert sleepy.power.total_energy_watt_cycles() < \
            plain.power.total_energy_watt_cycles()
        # The baseline never sleeps without the config arming it.
        assert plain.power.sleep_totals() == {"sleeps": 0, "wakes": 0}

    def test_mesh_topology_keeps_fabric_links_awake(self):
        _, sleepy = self.run_pair()
        for pal in sleepy.power.links:
            if pal.link.kind == MESH:
                assert pal.engine.sleeps == 0
            assert pal.can_sleep == (pal.link.kind != MESH)
