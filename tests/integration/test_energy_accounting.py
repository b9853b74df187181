"""Integration tests: the analytic energy integral versus dense sampling.

The power manager accounts energy in O(state changes); these tests verify
it against a brute-force per-cycle sum of instantaneous power, under real
policy activity and under the on/off bursty workload.
"""

import pytest

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.simulator import Simulator
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.uniform import UniformRandomTraffic


def make_sim(rate=0.3, bursty=False, seed=3):
    network = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                            buffer_depth=8, num_vcs=2)
    power = PowerAwareConfig(
        policy=PolicyConfig(window_cycles=100, history_windows=2),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=600,
        ),
    )
    config = SimulationConfig(network=network, power=power,
                              sample_interval=100)
    if bursty:
        traffic = OnOffTraffic(network.num_nodes, rate, duty_cycle=0.3,
                               mean_burst_cycles=200, seed=seed)
    else:
        traffic = UniformRandomTraffic(network.num_nodes, rate, seed=seed)
    return Simulator(config, traffic)


def dense_energy(sim: Simulator, cycles: int) -> float:
    """Brute-force watt-cycle integral: sum instantaneous power per cycle."""
    total = 0.0
    for _ in range(cycles):
        total += sum(pal.current_power() for pal in sim.power.links)
        sim.step()
    return total


@pytest.mark.parametrize("bursty", [False, True])
def test_analytic_energy_matches_dense_sampling(bursty):
    cycles = 3000
    sim = make_sim(bursty=bursty)
    sampled = dense_energy(sim, cycles)
    sim.finalize()
    analytic = sim.power.total_energy_watt_cycles()
    # Per-cycle sampling quantises transitions to cycle boundaries; the
    # analytic integral is exact, so allow a sub-percent gap.
    assert analytic == pytest.approx(sampled, rel=0.01)


def test_loaded_network_delivers_and_saves_power():
    sim = make_sim(rate=0.5)
    sim.run(4000)
    stats = sim.stats
    assert stats.packets_delivered > 0.9 * stats.packets_created
    assert sim.relative_power() < 1.0


def test_bursty_traffic_saves_more_than_its_average_suggests():
    """ON/OFF idle periods let links descend: power below steady uniform."""
    uniform = make_sim(rate=0.4, bursty=False)
    uniform.run(8000)
    bursty = make_sim(rate=0.4, bursty=True)
    bursty.run(8000)
    # Same long-run average load; the bursty workload leaves more links
    # idle at any instant (traffic concentrated on the ON nodes).
    assert bursty.relative_power() <= uniform.relative_power() + 0.05
