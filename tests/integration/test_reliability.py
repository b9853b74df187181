"""Integration tests: the reliability subsystem in whole-system runs.

Covers the PR's acceptance scenarios: fault-free runs are bit-identical
with and without a (neutral) fault config attached; a hard mesh-link
failure mid-run drains without deadlock while rerouting and
retransmitting; and the default configuration leaves every fault hook
unset.
"""

from dataclasses import replace

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.errors import ConfigError
from repro.experiments.configs import get_scale, power_config, reference_rates
from repro.experiments.fig5 import uniform_factory
from repro.experiments.runner import run_simulation
from repro.network.links import MESH
from repro.network.simulator import Simulator
from repro.network.stats import StatsCollector
from repro.network.topology import ClusteredMesh
from repro.reliability import (
    FaultConfig,
    LinkFailure,
    neutral_fault_config,
)
from repro.traffic.base import TrafficSource

SCALE = get_scale("smoke")
CYCLES = 4000


def light_factory():
    return uniform_factory(reference_rates(SCALE.network)["light"])


class FiniteUniformSource(TrafficSource):
    """Uniform Poisson traffic that stops after a deadline (drainable)."""

    def __init__(self, num_nodes: int, seed: int = 1, *,
                 rate: float = 0.5, until: int = 2000,
                 packet_size: int = 5):
        super().__init__(num_nodes, seed)
        self.rate = rate
        self.until = until
        self.packet_size = packet_size

    def generate(self, now):
        if now >= self.until:
            return []
        packets = []
        for _ in range(int(self.rng.poisson(self.rate))):
            src = int(self.rng.integers(self.num_nodes))
            dst = self._random_destination(src)
            packets.append(self._make_packet(src, dst, self.packet_size, now))
        return packets

    def exhausted(self, now):
        return now >= self.until


class TestDefaultOff:
    def test_no_fault_config_leaves_every_hook_unset(self):
        sim = Simulator(
            SimulationConfig(network=NetworkConfig(
                mesh_width=2, mesh_height=2, nodes_per_cluster=2)),
            FiniteUniformSource(8, until=200),
        )
        assert sim.reliability is None
        assert all(link.faults is None for link in sim.network.links)
        assert all(not link.failed for link in sim.network.links)
        assert all(r.fault_stats is None for r in sim.network.routers)
        assert all(pal.step_down_guard is None for pal in sim.power.links)
        sim.run(400)
        assert not any(k.startswith("reliability_") for k in sim.summary())

    def test_neutral_fault_config_is_bit_identical(self):
        """The tentpole's equivalence regression: attaching the reliability
        machinery with everything off changes no simulation output."""
        power = power_config(SCALE)
        plain = run_simulation(
            SCALE, power, light_factory(), label="eq", seed=3, cycles=CYCLES,
        )
        neutral = run_simulation(
            SCALE, power, light_factory(), label="eq", seed=3, cycles=CYCLES,
            faults=neutral_fault_config(),
        )
        # Identical in every field; only the attached report may differ.
        assert replace(neutral, reliability=None) == plain
        report = neutral.reliability
        assert report.flits_corrupted == 0
        assert report.flits_retransmitted == 0
        assert report.guard_holds == 0
        assert report.effective_goodput == 1.0


class TestLinkFailure:
    def first_mesh_link_id(self, network: NetworkConfig) -> int:
        topology = ClusteredMesh(network, StatsCollector())
        return next(l.link_id for l in topology.links if l.kind == MESH)

    def test_mesh_link_kill_mid_run_drains_with_reroutes(self):
        network = NetworkConfig(mesh_width=4, mesh_height=4,
                                nodes_per_cluster=2)
        dead = self.first_mesh_link_id(network)
        config = SimulationConfig(
            network=network,
            power=None,
            faults=FaultConfig(
                seed=11,
                received_power_w=13e-6,  # low margin: retransmissions occur
                failures=(LinkFailure(dead, at_cycle=1000),),
            ),
            stall_limit_cycles=4000,
        )
        traffic = FiniteUniformSource(network.num_nodes, seed=2,
                                      rate=0.4, until=3000)
        sim = Simulator(config, traffic)
        assert sim.run_until_drained(40_000)
        assert sim.stats.packets_delivered == sim.stats.packets_created
        assert sim.stats.packets_created > 100
        report = sim.reliability.report()
        assert report.failed_links == 1
        assert report.reroutes > 0
        assert report.flits_retransmitted > 0
        assert sim.network.links[dead].failed

    def test_non_mesh_link_failure_rejected(self):
        network = NetworkConfig(mesh_width=2, mesh_height=2,
                                nodes_per_cluster=2)
        config = SimulationConfig(
            network=network, power=None,
            faults=FaultConfig(failures=(LinkFailure(0, 100),)),
        )
        with pytest.raises(ConfigError, match="mesh"):
            Simulator(config, FiniteUniformSource(8))

    def test_out_of_range_scenario_rejected(self):
        network = NetworkConfig(mesh_width=2, mesh_height=2,
                                nodes_per_cluster=2)
        config = SimulationConfig(
            network=network, power=None,
            faults=FaultConfig(failures=(LinkFailure(10_000, 100),)),
        )
        with pytest.raises(ConfigError, match="topology has only"):
            Simulator(config, FiniteUniformSource(8))


class TestEngineRequirements:
    def test_validate_topology_flag_runs_clean(self):
        config = SimulationConfig(
            network=NetworkConfig(mesh_width=2, mesh_height=2,
                                  nodes_per_cluster=2),
            power=None, validate_topology=True,
        )
        sim = Simulator(config, FiniteUniformSource(8, until=100))
        sim.run(50)  # constructed and runnable: validation found nothing


class TestSummaryPlumbing:
    def test_reliability_keys_reach_summary_and_result(self):
        result = run_simulation(
            SCALE, None, light_factory(), label="keys", seed=5, cycles=1500,
            faults=FaultConfig(seed=5, received_power_w=13e-6),
        )
        report = result.reliability
        assert report is not None
        assert report.flits_corrupted > 0
        assert report.flits_carried > 0
        assert 0.9 < report.effective_goodput < 1.0
        assert report.observed_flit_error_rate > 0.0

    def test_margin_guard_blocks_descents_at_low_margin(self):
        """At 13 uW every lower level violates the BER target, so the
        guard pins the ladder at the top: no down transitions at all."""
        power = power_config(SCALE)
        result = run_simulation(
            SCALE, power, light_factory(), label="guard", seed=1,
            cycles=CYCLES, faults=FaultConfig(seed=1, received_power_w=13e-6),
        )
        assert result.reliability.guard_holds > 0
        assert result.transitions_down == 0
        unguarded = run_simulation(
            SCALE, power, light_factory(), label="noguard", seed=1,
            cycles=CYCLES,
            faults=FaultConfig(seed=1, received_power_w=13e-6,
                               margin_guard=False),
        )
        assert unguarded.transitions_down > 0
        assert unguarded.reliability.guard_holds == 0
