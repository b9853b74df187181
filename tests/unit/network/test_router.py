"""Unit tests for the virtual-channel router, driven in isolation.

A single router is wired by hand with stub links so pipeline timing, VC
allocation, wormhole ownership and credit behaviour can be asserted
cycle by cycle.
"""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.network.arbiters import RoundRobinArbiter
from repro.network.buffers import CreditCounter
from repro.network.flit import Flit
from repro.network.links import EJECTION, MESH, Link
from repro.network.packet import Packet
from repro.network.router import _BITS, OutputPort, Router
from repro.network.routing import EAST
from repro.network.mesh import MeshTopology

NUM_VCS = 2
BUFFER_DEPTH = 8


def make_router(num_local=2, x=0, y=0, width=2) -> Router:
    topology = MeshTopology(width, 2, num_local)
    return Router(router_id=y * width + x, num_local=num_local,
                  buffer_depth=BUFFER_DEPTH, num_vcs=NUM_VCS, head_delay=3,
                  topology=topology)


def attach_all_outputs(router: Router) -> dict[int, Link]:
    """Attach ejection links on local ports and a mesh link heading east."""
    links = {}
    for port in range(router.num_local):
        link = Link(port, EJECTION)
        router.attach_output(port, OutputPort(
            link, credits=None, num_vcs=NUM_VCS,
            arbiter=RoundRobinArbiter(router.num_ports * NUM_VCS)))
        links[port] = link
    east_port = router.num_local + EAST
    link = Link(east_port, MESH)
    credits = [CreditCounter(BUFFER_DEPTH // NUM_VCS) for _ in range(NUM_VCS)]
    router.attach_output(east_port, OutputPort(
        link, credits=credits, num_vcs=NUM_VCS,
        arbiter=RoundRobinArbiter(router.num_ports * NUM_VCS)))
    links[east_port] = link
    return links


def inject(router: Router, port: int, packet: Packet, now: float, vc=0):
    for flit in packet.make_flits():
        flit.vc = vc
        router.receive_flit(port, flit, now)


def step(router: Router, now: float) -> list[tuple[int, Flit]]:
    """Step the router once; return the (output port, flit) pairs it put
    on its output links, read back from the links themselves."""
    outputs = [(port, op.link) for port, op in enumerate(router.outputs)
               if op is not None]
    before = [len(link._in_flight) for _, link in outputs]
    router.step(now)
    return [(port, flit)
            for (port, link), filed in zip(outputs, before)
            for _, flit in list(link._in_flight)[filed:]]


def run_steps(router: Router, cycles: int, start: int = 0):
    """Step the router over a time range, collecting forwarded flits."""
    forwarded = []
    for t in range(start, start + cycles):
        forwarded += step(router, float(t))
    return forwarded


class TestPipelineTiming:
    def test_head_waits_pipeline_delay(self):
        router = make_router()
        links = attach_all_outputs(router)
        packet = Packet(1, src=0, dst=1, size=1, create_time=0)  # local eject
        inject(router, 0, packet, now=0.0)
        assert step(router, 0.0) == []         # RC done, waiting VA/SA
        assert step(router, 2.0) == []         # still in pipeline
        forwarded = step(router, 3.0)          # head_delay elapsed
        assert len(forwarded) == 1
        assert forwarded[0][0] == 1            # ejection port of node 1
        assert links[1].has_in_flight

    def test_body_flits_follow_one_per_cycle(self):
        router = make_router()
        attach_all_outputs(router)
        packet = Packet(1, src=0, dst=1, size=3, create_time=0)
        inject(router, 0, packet, now=0.0)
        sent = []
        for t in range(8):
            sent += [f.index for _, f in step(router, float(t))]
        assert sent == [0, 1, 2]


class TestRouting:
    def test_local_delivery_port(self):
        router = make_router()
        attach_all_outputs(router)
        # dst 0 lives on this router (router 0, local 0).
        packet = Packet(1, src=1, dst=0, size=1, create_time=0)
        inject(router, 1, packet, now=0.0)
        forwarded = run_steps(router, 6)
        assert forwarded[0][0] == 0

    def test_remote_goes_east(self):
        router = make_router()
        attach_all_outputs(router)
        # dst node 2 -> router 1 (east neighbour on a 2-wide mesh).
        packet = Packet(1, src=0, dst=2, size=1, create_time=0)
        inject(router, 0, packet, now=0.0)
        forwarded = run_steps(router, 6)
        assert forwarded[0][0] == router.num_local + EAST

    def test_body_flit_without_route_is_invariant_violation(self):
        router = make_router()
        attach_all_outputs(router)
        packet = Packet(1, src=0, dst=1, size=2, create_time=0)
        body = packet.make_flits()[1]
        router.receive_flit(0, body, 0.0)
        with pytest.raises(SimulationError):
            router.step(0.0)


class TestWormhole:
    def test_packets_do_not_interleave_within_vc(self):
        # A single-VC router: both packets must share the one downstream
        # VC, so the owner holds it until its tail passes.
        router = Router(router_id=0, num_local=2, buffer_depth=8, num_vcs=1,
                        head_delay=3, topology=MeshTopology(2, 2, 2))
        for port in range(router.num_local):
            router.attach_output(port, OutputPort(
                Link(port, EJECTION), credits=None, num_vcs=1,
                arbiter=RoundRobinArbiter(router.num_ports)))
        a = Packet(1, src=0, dst=1, size=3, create_time=0)
        b = Packet(2, src=0, dst=1, size=3, create_time=0)
        inject(router, 0, a, now=0.0, vc=0)
        inject(router, 1, b, now=0.0, vc=0)
        order = []
        for t in range(14):
            order += [f.packet.packet_id for _, f in step(router, float(t))]
        # Ids must appear as two contiguous runs (one VC, held per packet).
        assert sorted(order) == [1, 1, 1, 2, 2, 2]
        switch_points = sum(
            1 for i in range(1, len(order)) if order[i] != order[i - 1]
        )
        assert switch_points == 1

    def test_two_vcs_interleave_on_one_link(self):
        router = make_router()
        attach_all_outputs(router)
        a = Packet(1, src=0, dst=2, size=4, create_time=0)
        b = Packet(2, src=0, dst=2, size=4, create_time=0)
        inject(router, 0, a, now=0.0, vc=0)
        inject(router, 1, b, now=0.0, vc=0)
        order = []
        for t in range(16):
            order += [f.packet.packet_id for _, f in step(router, float(t))]
        # Different downstream VCs -> flit-level interleaving is allowed
        # (and the round-robin arbiter produces it).
        assert sorted(order) == [1, 1, 1, 1, 2, 2, 2, 2]
        switch_points = sum(
            1 for i in range(1, len(order)) if order[i] != order[i - 1]
        )
        assert switch_points > 1


class TestCredits:
    def test_mesh_sends_stop_without_credits(self):
        router = make_router()
        links = attach_all_outputs(router)
        east_port = router.num_local + EAST
        op = router.outputs[east_port]
        for credits in op.credits:
            while credits.can_send():
                credits.consume()
        packet = Packet(1, src=0, dst=2, size=1, create_time=0)
        inject(router, 0, packet, now=0.0)
        assert run_steps(router, 8) == []
        assert not links[east_port].has_in_flight

    def test_upstream_credit_refilled_on_forward(self):
        router = make_router()
        attach_all_outputs(router)
        upstream = [CreditCounter(4) for _ in range(NUM_VCS)]
        upstream[0].consume()
        router.inputs[0].upstream_credits = upstream
        packet = Packet(1, src=0, dst=1, size=1, create_time=0)
        inject(router, 0, packet, now=0.0)
        run_steps(router, 6)
        assert upstream[0].available == 4


class TestConstruction:
    def test_double_attach_rejected(self):
        router = make_router()
        link = Link(0, EJECTION)
        port = OutputPort(link, credits=None, num_vcs=NUM_VCS,
                          arbiter=RoundRobinArbiter(4))
        router.attach_output(0, port)
        with pytest.raises(ConfigError):
            router.attach_output(0, port)

    def test_buffer_smaller_than_vcs_rejected(self):
        with pytest.raises(ConfigError):
            Router(router_id=0, num_local=2, buffer_depth=1, num_vcs=2,
                   head_delay=3, topology=MeshTopology(2, 2, 2))

    def test_more_than_16_ports_rejected_before_any_table(self):
        # The allocation scan indexes _BITS by port mask and the table is
        # exponential in width: 13 locals + 4 mesh ports are refused
        # before it grows, whether the router is built alone or by a
        # fabric from a config.
        from repro.config import NetworkConfig
        from repro.network.stats import StatsCollector
        from repro.network.topology import NetworkFabric

        size = len(_BITS)
        with pytest.raises(ConfigError, match="at most 16 ports"):
            Router(router_id=0, num_local=13, buffer_depth=8, num_vcs=2,
                   head_delay=3, topology=MeshTopology(2, 2, 13))
        network = NetworkConfig(mesh_width=2, mesh_height=2,
                                nodes_per_cluster=13)
        with pytest.raises(ConfigError, match="at most 16 ports"):
            NetworkFabric(network, StatsCollector())
        assert len(_BITS) == size <= 1 << 16
        router = Router(router_id=0, num_local=12, buffer_depth=8,
                        num_vcs=2, head_delay=3,
                        topology=MeshTopology(2, 2, 12))
        assert router.num_ports == 16

    def test_unattached_output_is_simulation_error(self):
        router = make_router()
        # Only attach local ports; then route a packet east.
        for port in range(router.num_local):
            router.attach_output(port, OutputPort(
                Link(port, EJECTION), credits=None, num_vcs=NUM_VCS,
                arbiter=RoundRobinArbiter(4)))
        packet = Packet(1, src=0, dst=2, size=1, create_time=0)
        inject(router, 0, packet, now=0.0)
        with pytest.raises(SimulationError):
            run_steps(router, 6)


def make_mesh():
    """A fully wired 2x2 mesh (the route tables need attached outputs)."""
    from repro.config import NetworkConfig
    from repro.network.stats import StatsCollector
    from repro.network.topology import ClusteredMesh

    network = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                            buffer_depth=8, num_vcs=2)
    return ClusteredMesh(network, StatsCollector())


class TestRouteTable:
    def test_table_matches_the_topology_routing_everywhere(self):
        mesh = make_mesh()
        for router in mesh.routers:
            table = router._route_table
            assert table is not None and len(table) == len(mesh.routers)
            for dst_router, out in enumerate(table):
                if dst_router == router.router_id:
                    assert out == -1
                    continue
                direction = mesh.topology.route_direction(
                    router.router_id, dst_router
                )
                assert out == router.num_local + direction

    def test_route_uses_the_table(self):
        mesh = make_mesh()
        router = mesh.routers[0]
        packet = Packet(1, src=0, dst=7, size=1, create_time=0)
        (flit,) = packet.make_flits()
        # dst node 7 -> router 3: XY goes east first.
        assert router._route(flit) == router._route_table[3]
        assert router._route_table[3] == router.num_local + EAST

    def test_local_delivery_resolves_before_the_table(self):
        mesh = make_mesh()
        router = mesh.routers[0]
        packet = Packet(1, src=2, dst=1, size=1, create_time=0)
        (flit,) = packet.make_flits()
        assert router._route(flit) == 1  # local ejection port

    def test_invalidate_clears_only_routes_through_the_port(self):
        mesh = make_mesh()
        router = mesh.routers[0]
        east_port = router.num_local + EAST
        before = list(router._route_table)
        router.invalidate_routes_via(east_port)
        for dst, out in enumerate(router._route_table):
            if before[dst] == east_port:
                assert out == -1
            else:
                assert out == before[dst]

    def test_invalidated_route_falls_back_to_the_routing_function(self):
        mesh = make_mesh()
        router = mesh.routers[0]
        east_port = router.num_local + EAST
        router.invalidate_routes_via(east_port)
        packet = Packet(1, src=0, dst=7, size=1, create_time=0)
        (flit,) = packet.make_flits()
        # The link is alive, so the slow path recomputes the same answer.
        assert router._route(flit) == east_port

    def test_stale_table_hit_never_routes_onto_a_failed_link(self):
        mesh = make_mesh()
        router = mesh.routers[0]
        east_port = router.num_local + EAST
        router.outputs[east_port].link.failed = True
        # The table still names the east port (no invalidation happened);
        # the defensive check must reject it and detour south instead.
        assert router._route_table[3] == east_port
        packet = Packet(1, src=0, dst=7, size=1, create_time=0)
        (flit,) = packet.make_flits()
        detour = router._route(flit)
        assert detour != east_port
        assert not router.outputs[detour].link.failed

    def test_standalone_router_has_no_table(self):
        router = make_router()
        attach_all_outputs(router)
        assert router._route_table is None
        packet = Packet(1, src=0, dst=2, size=1, create_time=0)
        (flit,) = packet.make_flits()
        assert router._route(flit) == router.num_local + EAST


class TestWorkListInvariants:
    """The incremental work-list state (`_active_mask`, per-port `nonempty`
    VC masks, per-port `occupancy` counters) must mirror the buffers at
    every step boundary."""

    def assert_consistent(self, router: Router) -> None:
        for index, ip in enumerate(router.inputs):
            expected_occupancy = 0
            expected_nonempty = 0
            for v, vc in enumerate(ip.vcs):
                held = len(vc.buffer)
                expected_occupancy += held
                if held:
                    expected_nonempty |= 1 << v
            assert ip.occupancy == expected_occupancy
            assert ip.nonempty == expected_nonempty
            assert bool(router._active_mask & (1 << index)) == \
                bool(expected_nonempty)

    def test_receive_sets_masks_and_counts(self):
        router = make_router()
        attach_all_outputs(router)
        packet = Packet(1, src=0, dst=1, size=3, create_time=0)
        inject(router, 0, packet, now=0.0, vc=1)
        assert router.inputs[0].occupancy == 3
        assert router.inputs[0].nonempty == 1 << 1
        assert router._active_mask == 1 << 0
        self.assert_consistent(router)

    def test_masks_clear_as_the_router_drains(self):
        router = make_router()
        attach_all_outputs(router)
        a = Packet(1, src=0, dst=1, size=2, create_time=0)
        b = Packet(2, src=1, dst=2, size=2, create_time=0)
        inject(router, 0, a, now=0.0, vc=0)
        inject(router, 1, b, now=0.0, vc=1)
        for t in range(12):
            router.step(float(t))
            self.assert_consistent(router)
        assert router._active_mask == 0
        assert all(ip.occupancy == 0 for ip in router.inputs)
        assert all(ip.nonempty == 0 for ip in router.inputs)

    def test_blocked_router_keeps_its_masks(self):
        router = make_router()
        attach_all_outputs(router)
        east_port = router.num_local + EAST
        for credits in router.outputs[east_port].credits:
            while credits.can_send():
                credits.consume()
        packet = Packet(1, src=0, dst=2, size=1, create_time=0)
        inject(router, 0, packet, now=0.0)
        for t in range(8):
            router.step(float(t))
            self.assert_consistent(router)
        assert router._active_mask == 1 << 0
        assert router.inputs[0].occupancy == 1


class TestMalformedInput:
    def test_out_of_range_vc_rejected(self):
        router = make_router()
        attach_all_outputs(router)
        packet = Packet(1, src=0, dst=1, size=1, create_time=0)
        (flit,) = packet.make_flits()
        flit.vc = 7  # router only has NUM_VCS=2
        with pytest.raises(SimulationError, match="VC 7"):
            router.receive_flit(0, flit, 0.0)

    def test_negative_vc_rejected(self):
        router = make_router()
        attach_all_outputs(router)
        packet = Packet(1, src=0, dst=1, size=1, create_time=0)
        (flit,) = packet.make_flits()
        flit.vc = -1
        with pytest.raises(SimulationError):
            router.receive_flit(0, flit, 0.0)
