"""Unit tests for the mesh topology.

Covers the per-config topology memo, the mesh geometry, the analytic hop
model, the fault-detour order and the route-table build-before-wiring
error.
"""

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.network.mesh import MeshTopology, get_topology
from repro.network.router import Router
from repro.network.routing import EAST, NORTH, OPPOSITE, SOUTH, WEST


class TestGetTopology:
    def test_memoised_per_shape(self):
        config = NetworkConfig(mesh_width=4, mesh_height=3,
                               nodes_per_cluster=2)
        topology = get_topology(config)
        assert type(topology) is MeshTopology
        assert (topology.grid_width, topology.grid_height,
                topology.nodes_per_router) == (4, 3, 2)
        # Fields the geometry does not depend on share the instance.
        assert get_topology(NetworkConfig(mesh_width=4, mesh_height=3,
                                          nodes_per_cluster=2,
                                          num_vcs=2)) is topology
        assert get_topology(NetworkConfig(mesh_width=3, mesh_height=4,
                                          nodes_per_cluster=2)) \
            is not topology


class TestMeshGeometry:
    def test_coords_row_major(self):
        topology = MeshTopology(3, 2, 2)
        assert topology.router_coords(0) == (0, 0)
        assert topology.router_coords(2) == (2, 0)
        assert topology.router_coords(3) == (0, 1)
        assert topology.router_at(2, 1) == 5

    def test_edge_routers_have_no_outward_neighbour(self):
        topology = MeshTopology(3, 2, 2)
        assert topology.neighbor(0, WEST) is None
        assert topology.neighbor(0, NORTH) is None
        assert topology.neighbor(0, EAST) == 1
        assert topology.neighbor(0, SOUTH) == 3

    def test_neighbour_relation_is_bijective(self):
        topology = MeshTopology(4, 3, 2)
        for rid in range(topology.num_routers):
            for direction in (EAST, WEST, NORTH, SOUTH):
                other = topology.neighbor(rid, direction)
                if other is not None:
                    assert topology.neighbor(other,
                                             OPPOSITE[direction]) == rid

    def test_mean_min_hops_matches_closed_form(self):
        for w, h in ((4, 4), (8, 8), (3, 5)):
            topology = MeshTopology(w, h, 2)
            closed = (w * w - 1) / (3.0 * w) + (h * h - 1) / (3.0 * h)
            assert topology.mean_min_hops() == closed

    def test_one_high_mesh(self):
        topology = MeshTopology(6, 1, 2)
        assert topology.neighbor(0, SOUTH) is None
        assert topology.neighbor(0, NORTH) is None
        assert topology.mesh_link_count() == 10
        assert topology.min_hops(0, 5) == 5


class TestFallbackDirections:
    def test_preferred_direction_comes_first(self):
        topology = MeshTopology(3, 3, 2)
        # 0 -> 8 (bottom-right): XY prefers east; south also productive.
        order = topology.fallback_directions(0, 8)
        assert order[0] == EAST
        assert SOUTH in order[1:]
        # Non-productive fallbacks follow the productive ones.
        assert order.index(SOUTH) < max(
            order.index(d) for d in order if d not in (EAST, SOUTH)
        )

    def test_all_four_directions_at_most_once(self):
        topology = MeshTopology(3, 3, 2)
        for src in range(topology.num_routers):
            for dst in range(topology.num_routers):
                if src == dst:
                    continue
                order = topology.fallback_directions(src, dst)
                assert len(order) == len(set(order))
                assert set(order) <= {EAST, WEST, NORTH, SOUTH}


class TestBuildRouteTableErrors:
    def test_build_before_wiring_is_a_config_error(self):
        topology = MeshTopology(2, 2, 2)
        router = Router(router_id=0, num_local=2, buffer_depth=8,
                        num_vcs=2, head_delay=3, topology=topology)
        with pytest.raises(ConfigError, match="no link attached"):
            router.build_route_table()
