"""Integration: the spatial-idleness story behind the Table 3 savings.

The paper's application traces run on 8 racks of the 64-rack system; the
power saving comes largely from the idle racks' links sitting at the
ladder bottom while the active row stays responsive.  This test replays a
trace confined to the first mesh row and asserts the spatial pattern
directly — per-rack levels and per-kind energy.
"""

import pytest

from repro.config import SimulationConfig
from repro.experiments.configs import get_scale, power_config
from repro.experiments.fig7 import active_nodes_for, splash_factory
from repro.network.simulator import Simulator


@pytest.fixture(scope="module")
def sim():
    scale = get_scale("smoke")
    config = SimulationConfig(
        network=scale.network,
        power=power_config(scale, technology="modulator"),
        sample_interval=scale.sample_interval,
    )
    factory = splash_factory("radix", scale)
    simulator = Simulator(config, factory(scale.network.num_nodes, seed=2))
    # Run most of the trace; don't drain, we want mid-activity state.
    simulator.run(int(scale.run_cycles * 0.6))
    return simulator


class TestSpatialPattern:
    def test_idle_rows_cheaper_than_active_row(self, sim):
        network = sim.config.network
        locals_ = network.nodes_per_cluster
        sim.finalize()
        # Energy of node-facing links, grouped by mesh row.
        row_energy = [0.0] * network.mesh_height
        for pal in sim.power.links:
            if pal.link.kind == "mesh":
                continue
            node_id = pal.link.link_id // 2
            row = (node_id // locals_) // network.mesh_width
            row_energy[row] += pal.energy_watt_cycles
        active_row = row_energy[0]
        idle_rows = row_energy[1:]
        assert all(active_row > idle for idle in idle_rows)

    def test_idle_rack_links_sit_at_bottom(self, sim):
        network = sim.config.network
        active_nodes = active_nodes_for(network)
        idle_levels = []
        for pal in sim.power.links:
            if pal.link.kind == "mesh":
                continue
            node_id = pal.link.link_id // 2
            if node_id >= active_nodes:
                idle_levels.append(pal.level)
        assert idle_levels
        assert sum(idle_levels) / len(idle_levels) < 0.5

    def test_total_power_reflects_idleness(self, sim):
        assert sim.relative_power() < 0.45
