"""Network fabric builder: mesh geometry -> wired simulation state.

The system is a cluster network of racks (paper Figs. 3-4).  Each rack
houses processing-node boards and shares a router board; every
board-to-board and router-to-router connection is a unidirectional
opto-electronic fiber link:

* **injection links** — node board -> router (one per node),
* **ejection links** — router -> node board (one per node),
* **mesh links** — router -> neighbouring router (one per direction the
  topology declares a neighbour in).

Which routers neighbour which is owned by the
:class:`~repro.network.mesh.MeshTopology` the config describes;
:class:`NetworkFabric` instantiates routers and nodes, asks the topology
for the neighbour map, wires the links in a fixed
deterministic order (locals per router first, then the four directions
east/west/north/south per router) and finally has every router resolve
the topology's routing relation into its route table.

The builder wires per-VC credits end to end: every input-port VC buffer has
exactly one upstream credit counter, held by the router output port (mesh
links) or the node (injection links) that feeds it.  Ejection links have no
credits — node sinks always accept.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from math import ceil

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.network.arbiters import RoundRobinArbiter
from repro.network.buffers import CreditCounter, InputBuffer
from repro.network.flit import Flit
from repro.network.links import EJECTION, INJECTION, MESH, Link
from repro.network.packet import Packet
from repro.network.router import OutputPort, Router
from repro.network.routing import EAST, NORTH, OPPOSITE, SOUTH, WEST
from repro.network.stats import StatsCollector
from repro.network.mesh import get_topology

#: (dx, dy) per direction constant, matching :mod:`repro.network.routing`.
DIRECTION_OFFSETS = {EAST: (1, 0), WEST: (-1, 0), NORTH: (0, -1), SOUTH: (0, 1)}


class Node:
    """A processing-node board: an injection queue and an ejection sink.

    The node assigns each outgoing packet to one of its injection link's
    virtual channels (the least-loaded one with credits) and streams the
    packet's flits in order on that VC.
    """

    __slots__ = ("node_id", "queue", "link", "credits", "stats", "_vc",
                 "registry", "stream")

    def __init__(self, node_id: int, stats: StatsCollector):
        self.node_id = node_id
        self.queue: deque[Flit] = deque()
        self.link: Link | None = None
        self.credits: list[CreditCounter] | None = None
        self.stats = stats
        self._vc = -1
        #: Optional active-node registry maintained by the simulator: a node
        #: registers itself while its source queue holds flits, so the
        #: injection phase only visits nodes with work.
        self.registry = None
        #: The live worm stream that owes this idle node's credit
        #: counters refills (:mod:`repro.network.stream`): queueing a
        #: packet here writes it back first.
        self.stream = None

    def enqueue_packet(self, packet: Packet) -> None:
        """Queue a freshly generated packet's flits for injection."""
        if not self.queue and self.registry is not None:
            self.registry.add(self)
        self.queue.extend(packet.make_flits())

    def step(self, now: float) -> None:
        """Inject at most one flit into the rack's router this cycle."""
        queue = self.queue
        if not queue:
            return
        link = self.link
        link.pressure_accum += 1.0
        if now < link.disabled_until or now < link.free_at:
            return
        flit = queue[0]
        if flit.is_head:
            if self.stream is not None:
                # A worm stream owes one of these counters refills.
                self.stream.owner.node_selects(self, now)
            chosen, best = -1, 0
            for index, counter in enumerate(self.credits):
                available = counter.available
                if available > best:
                    chosen, best = index, available
            if chosen < 0:
                return
            self._vc = chosen
        credits = self.credits[self._vc]
        if credits.available <= 0:
            return
        credits.available -= 1  # CreditCounter.consume; gated just above
        flit.vc = self._vc
        queue.popleft()
        # link.push inlined (the gate above already verified acceptance).
        service_time = link.service_time
        link.free_at = now + service_time
        link.busy_accum += service_time
        link.flits_carried += 1
        arrival = link.free_at + link.propagation_cycles
        link._in_flight.append((arrival, flit))
        calendar = link.calendar
        if calendar is not None:
            calendar[ceil(arrival)].append(link.link_id)
        if not queue and self.registry is not None:
            self.registry.discard(self)

    def receive_flit(self, flit: Flit, now: float) -> None:
        """Sink an ejected flit; completes the packet on its tail."""
        if flit.is_tail:
            self.stats.packet_delivered(flit.packet, now)

    def reset(self) -> None:
        """Drop queued flits and VC affinity for a warm rerun.

        The wiring (``link``, ``credits``, ``stats``) is structural and
        survives; the stats collector itself is reset separately, in
        place, because this node holds a direct reference to it.
        """
        self.queue.clear()
        self._vc = -1
        self.registry = None
        self.stream = None

    @property
    def pending_flits(self) -> int:
        """Flits still waiting in the source queue."""
        return len(self.queue)


class NetworkFabric:
    """The fully wired network: routers, nodes and links."""

    def __init__(self, config: NetworkConfig, stats: StatsCollector):
        self.config = config
        self.stats = stats
        self.topology = get_topology(config)
        topology = self.topology
        locals_ = topology.nodes_per_router

        self.routers: list[Router] = [
            Router(
                router_id=router_id,
                num_local=locals_,
                buffer_depth=config.buffer_depth,
                num_vcs=config.num_vcs,
                head_delay=config.head_pipeline_delay,
                topology=topology,
            )
            for router_id in range(topology.num_routers)
        ]

        self.nodes: list[Node] = [
            Node(node_id, stats) for node_id in range(topology.num_nodes)
        ]
        self.links: list[Link] = []
        #: Downstream input-port VC buffers per link id (None for ejection
        #: links) — the power manager reads these for the Bu statistic.
        self.downstream_buffers: list[tuple[InputBuffer, ...] | None] = []

        self._wire_local_links()
        self._wire_mesh_links()
        for router in self.routers:
            router.build_route_table()

    # -- construction helpers ------------------------------------------------

    def _new_link(self, kind: str) -> Link:
        link = Link(
            link_id=len(self.links),
            kind=kind,
            propagation_cycles=self.config.link_propagation_cycles,
        )
        self.links.append(link)
        self.downstream_buffers.append(None)
        return link

    def _new_arbiter(self, router: Router) -> RoundRobinArbiter:
        return RoundRobinArbiter(router.num_ports * self.config.num_vcs)

    def _vc_credits(self) -> list[CreditCounter]:
        depth = self.config.buffer_depth // self.config.num_vcs
        return [CreditCounter(depth) for _ in range(self.config.num_vcs)]

    def _wire_local_links(self) -> None:
        """Injection/ejection links between each router and its rack nodes."""
        locals_ = self.topology.nodes_per_router
        for router in self.routers:
            for local in range(locals_):
                node = self.nodes[router.router_id * locals_ + local]

                inject = self._new_link(INJECTION)
                in_port = router.inputs[local]
                _wire_router_sink(inject, router, local)
                credits = self._vc_credits()
                in_port.upstream_credits = credits
                node.link = inject
                node.credits = credits
                self.downstream_buffers[inject.link_id] = in_port.buffers()

                eject = self._new_link(EJECTION)
                eject.deliver = node.receive_flit
                router.attach_output(
                    local,
                    OutputPort(
                        eject, credits=None, num_vcs=self.config.num_vcs,
                        arbiter=self._new_arbiter(router),
                    ),
                )

    def _wire_mesh_links(self) -> None:
        """Unidirectional links between adjacent routers, both ways.

        Per router, directions are wired in the fixed east/west/north/
        south order — link ids and therefore every downstream id-ordered
        iteration are part of the determinism contract.
        """
        topology = self.topology
        locals_ = topology.nodes_per_router
        for router in self.routers:
            for direction in (EAST, WEST, NORTH, SOUTH):
                neighbour_id = topology.neighbor(router.router_id, direction)
                if neighbour_id is None:
                    continue
                neighbour = self.routers[neighbour_id]
                link = self._new_link(MESH)
                in_port_idx = locals_ + OPPOSITE[direction]
                in_port = neighbour.inputs[in_port_idx]
                _wire_router_sink(link, neighbour, in_port_idx)
                credits = self._vc_credits()
                in_port.upstream_credits = credits
                router.attach_output(
                    locals_ + direction,
                    OutputPort(
                        link, credits=credits, num_vcs=self.config.num_vcs,
                        arbiter=self._new_arbiter(router),
                    ),
                )
                self.downstream_buffers[link.link_id] = in_port.buffers()

    # -- warm rerun ----------------------------------------------------------

    def reset(self) -> None:
        """Restore the whole fabric to its freshly-built state in place.

        Every link, router and node clears its run-mutable state (flits,
        credits, arbiters, fault flags, invalidated routes) while the
        object graph — wiring, link ids, credit-counter identity — stays
        untouched, so a subsequent run is bit-identical to one on a
        freshly constructed fabric (hypothesis-tested).  The stats
        collector is *not* reset here: the simulator owns its lifecycle.
        """
        for link in self.links:
            link.reset()
        for router in self.routers:
            router.reset()
        for node in self.nodes:
            node.reset()

    # -- queries -------------------------------------------------------------

    def node_for(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise ConfigError(
                f"node_id must be in [0, {len(self.nodes)}), got {node_id!r}"
            )
        return self.nodes[node_id]

    def node_id(self, rack_x: int, rack_y: int, local: int) -> int:
        """Flat node id for (router column, router row, node-at-router).

        Used by the hot-spot workload, whose paper description names
        "node 4 in rack(3,5)".
        """
        topology = self.topology
        width, height = topology.grid_width, topology.grid_height
        locals_ = topology.nodes_per_router
        if not (0 <= rack_x < width and 0 <= rack_y < height):
            raise ConfigError(
                f"rack ({rack_x}, {rack_y}) outside {width}x{height} grid"
            )
        if not 0 <= local < locals_:
            raise ConfigError(
                f"local index must be in [0, {locals_}), got {local!r}"
            )
        return topology.router_at(rack_x, rack_y) * locals_ + local

    def links_of_kind(self, kind: str) -> list[Link]:
        return [link for link in self.links if link.kind == kind]

    @property
    def total_pending_flits(self) -> int:
        """Flits still queued at sources (drain check for trace runs)."""
        return sum(node.pending_flits for node in self.nodes)


def _wire_router_sink(link: Link, router: Router, port: int) -> None:
    """Point ``link`` at ``router``'s input ``port``.

    ``deliver`` is a C-level ``partial`` rather than a Python closure
    (no extra interpreter frame per flit); ``sink`` lets the
    deliver phase skip even that call.
    """
    link.deliver = partial(router.receive_flit, port)
    link.sink = (router, port, router.inputs[port])


#: The paper's name for the fabric (a clustered 2-D mesh of racks).
ClusteredMesh = NetworkFabric
