"""Unit tests for the topology abstraction layer.

Covers the registry (name dispatch and its error messages), each concrete
topology's geometry, the analytic hop models, the LINK_OFF gating, and
the route-table build-before-wiring error.
"""

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.network.arbiters import RoundRobinArbiter
from repro.network.buffers import CreditCounter
from repro.network.links import EJECTION, INJECTION, MESH, Link
from repro.network.router import OutputPort, Router
from repro.network.routing import EAST, NORTH, OPPOSITE, SOUTH, WEST
from repro.network.topologies import KNOWN_TOPOLOGIES, get_topology
from repro.network.topologies.cmesh import CMeshTopology
from repro.network.topologies.mesh import LineTopology, MeshTopology
from repro.network.topologies.torus import TorusTopology


def config(topology="mesh", width=4, height=4, locals_=2, **overrides):
    return NetworkConfig(mesh_width=width, mesh_height=height,
                         nodes_per_cluster=locals_, topology=topology,
                         **overrides)


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("mesh", MeshTopology),
        ("torus", TorusTopology),
        ("cmesh", CMeshTopology),
        ("line", LineTopology),
    ])
    def test_dispatch(self, name, cls):
        topology = get_topology(config(name))
        assert type(topology) is cls
        assert topology.name == name

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ConfigError) as exc:
            config("hypercube")
        message = str(exc.value)
        assert "hypercube" in message
        for name in KNOWN_TOPOLOGIES:
            assert name in message

    def test_torus_needs_two_vcs(self):
        with pytest.raises(ConfigError, match="num_vcs >= 2"):
            config("torus", num_vcs=1)

    def test_cmesh_concentration_must_divide(self):
        with pytest.raises(ConfigError, match="must divide"):
            config("cmesh", width=3, height=4)

    def test_node_count_is_topology_invariant(self):
        counts = {
            name: config(name).num_nodes for name in KNOWN_TOPOLOGIES
        }
        assert len(set(counts.values())) == 1


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

    def test_link_off_gating_locals_only(self):
        topology = MeshTopology(4, 4, 2)
        assert topology.link_off_allowed(INJECTION)
        assert topology.link_off_allowed(EJECTION)
        assert not topology.link_off_allowed(MESH)


class TestTorusGeometry:
    def test_wrap_neighbours(self):
        topology = TorusTopology(4, 4, 2)
        assert topology.neighbor(0, WEST) == 3
        assert topology.neighbor(3, EAST) == 0
        assert topology.neighbor(0, NORTH) == 12
        assert topology.neighbor(12, SOUTH) == 0

    def test_size_one_ring_has_no_self_link(self):
        topology = TorusTopology(1, 4, 2)
        assert topology.neighbor(0, EAST) is None
        assert topology.neighbor(0, WEST) is None

    def test_min_hops_uses_ring_distance(self):
        topology = TorusTopology(4, 4, 2)
        # (0,0) -> (3,0): one wrap hop west, not three east.
        assert topology.min_hops(0, 3) == 1
        # (0,0) -> (2,2): 2 + 2, no shorter wrap.
        assert topology.min_hops(0, topology.router_at(2, 2)) == 4

    def test_mean_min_hops_beats_mesh(self):
        assert TorusTopology(4, 4, 2).mean_min_hops() < \
            MeshTopology(4, 4, 2).mean_min_hops()

    def test_vc_class_marks_wrapping_journeys(self):
        topology = TorusTopology(4, 4, 2)
        # 0 -> 3 travels west with a wrap: dateline class 1.
        assert topology.vc_class(0, 3) == 1
        # 0 -> 1 travels east, no wrap: class 0.
        assert topology.vc_class(0, 1) == 0

    def test_link_off_allowed_everywhere(self):
        topology = TorusTopology(4, 4, 2)
        for kind in (INJECTION, EJECTION, MESH):
            assert topology.link_off_allowed(kind)


class TestCMeshGeometry:
    def test_wide_router_worklists_stay_polynomial(self):
        # A concentrated rack has P*c^2 + 4 ports; the work-list bitmask
        # expansion must chunk rather than precompute 2^36 tuples
        # (regression: construction used to hang / exhaust memory).
        from repro.network.router import _BITS, _BITS_LIMIT, _wide_bits

        topology = CMeshTopology(4, 4, 8, concentration=2)
        assert topology.nodes_per_router == 32
        router = Router(router_id=0, num_local=32, buffer_depth=64,
                        num_vcs=4, head_delay=3, topology=topology)
        assert router.num_ports == 36
        assert len(_BITS) <= _BITS_LIMIT
        # Chunked decode agrees with the table on every width.
        for mask in (0, 1, 0b1010, (1 << 35) | (1 << 16) | 0b11,
                     (1 << 36) - 1):
            expected = [b for b in range(40) if mask >> b & 1]
            assert _wide_bits(mask) == expected

    def test_concentration_shrinks_the_router_grid(self):
        topology = CMeshTopology(4, 4, 2, concentration=2)
        assert topology.grid_shape == (2, 2)
        assert topology.num_routers == 4
        assert topology.nodes_per_router == 8
        assert topology.num_nodes == 32

    def test_line_is_a_one_high_mesh(self):
        topology = LineTopology(6, 2)
        assert topology.grid_shape == (6, 1)
        assert topology.neighbor(0, SOUTH) is None
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

    def test_torus_table_needs_enough_vcs_for_classes(self):
        # Fully wired single-VC router on a 2x2 torus: the table builds,
        # but the dateline scheme needs two VC classes.
        topology = TorusTopology(2, 2, 2)
        router = Router(router_id=0, num_local=2, buffer_depth=8,
                        num_vcs=1, head_delay=3, topology=topology)
        for port in range(router.num_ports):
            kind = EJECTION if port < router.num_local else MESH
            credits = None if kind == EJECTION else [CreditCounter(8)]
            router.attach_output(port, OutputPort(
                Link(port, kind), credits=credits, num_vcs=1,
                arbiter=RoundRobinArbiter(router.num_ports)))
        with pytest.raises(ConfigError, match="VC classes"):
            router.build_route_table()
