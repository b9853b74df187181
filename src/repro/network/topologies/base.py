"""The Topology contract: geometry, routing tables and deadlock policy.

A :class:`Topology` is pure geometry — it owns the router coordinate
system, the neighbour/port map, the deadlock-free routing relation and
the analytic hop-count model for one network shape.  It builds *no*
simulation state: :class:`~repro.network.topology.NetworkFabric` asks it
which links to wire, :meth:`~repro.network.router.Router.build_route_table`
asks it to resolve destinations into output ports, and the metrics layer
asks it for expected hop counts.  Keeping the contract stateless means a
topology object is cheap to construct anywhere (standalone unit-test
routers included) and trivially picklable for process-parallel sweeps.

Port-numbering contract (shared with :mod:`repro.network.router` and
:mod:`repro.network.routing`): a router with ``L`` local ports numbers
them ``0 .. L-1``, followed by the four grid directions ``L+EAST``,
``L+WEST``, ``L+NORTH``, ``L+SOUTH``.  Every concrete topology is laid
out on a 2-D router grid (``line`` is a 1-high grid; ``torus`` adds wrap
links; ``cmesh`` shrinks the grid and concentrates nodes), so four mesh
ports always suffice.  ``y`` grows southward: SOUTH is ``+y``.

Deadlock avoidance is expressed through *virtual-channel classes*: a
topology declares :attr:`Topology.num_vc_classes` and assigns every
(router, destination) pair a class via :meth:`Topology.vc_class`.  The
router splits its VCs into that many equal bands and restricts VC
allocation to the band of the head flit's class, which is how the torus
dateline scheme cuts the ring cycles (see
:class:`~repro.network.topologies.torus.TorusTopology`).  Topologies
whose routing relation is already cycle-free on a single class (mesh,
line, cmesh) declare one class and the router's allocation path is
untouched.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.network.links import MESH
from repro.network.routing import (
    DIRECTION_NAMES,
    EAST,
    NORTH,
    OPPOSITE,
    SOUTH,
    WEST,
)

#: Perpendicular directions for each direction constant, in the fixed
#: order fault-aware misrouting tries them.
_PERPENDICULAR = {
    EAST: (NORTH, SOUTH),
    WEST: (NORTH, SOUTH),
    NORTH: (EAST, WEST),
    SOUTH: (EAST, WEST),
}


class Topology:
    """Geometry + routing contract for one network shape.

    Concrete subclasses define :meth:`neighbor`, :meth:`route_direction`
    and :meth:`min_hops`; everything else has grid-generic defaults.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Virtual-channel classes the deadlock-avoidance scheme needs.  The
    #: router divides ``num_vcs`` into this many equal allocation bands.
    num_vc_classes = 1

    def __init__(self, grid_width: int, grid_height: int,
                 nodes_per_router: int):
        if grid_width < 1 or grid_height < 1:
            raise ConfigError(
                f"router grid must be at least 1x1, got "
                f"{grid_width}x{grid_height}"
            )
        if nodes_per_router < 1:
            raise ConfigError(
                f"nodes_per_router must be >= 1, got {nodes_per_router!r}"
            )
        self.grid_width = grid_width
        self.grid_height = grid_height
        self.nodes_per_router = nodes_per_router
        self.num_routers = grid_width * grid_height
        self.num_nodes = self.num_routers * nodes_per_router
        #: Router id -> (x, y), precomputed once (row-major, y southward).
        coords = []
        for y in range(grid_height):
            for x in range(grid_width):
                coords.append((x, y))
        self._coords: tuple[tuple[int, int], ...] = tuple(coords)

    # -- geometry --------------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, int]:
        """(width, height) of the router grid, for renderers."""
        return (self.grid_width, self.grid_height)

    def router_coords(self, router_id: int) -> tuple[int, int]:
        """Grid coordinates of a router (row-major ids)."""
        return self._coords[router_id]

    def router_at(self, x: int, y: int) -> int:
        """Router id at grid position (x, y)."""
        if not (0 <= x < self.grid_width and 0 <= y < self.grid_height):
            raise ConfigError(
                f"({x}, {y}) outside the {self.grid_width}x"
                f"{self.grid_height} router grid"
            )
        return y * self.grid_width + x

    def neighbor(self, router_id: int, direction: int) -> int | None:
        """Neighbouring router over ``direction``, or None (no link)."""
        raise NotImplementedError

    def mesh_link_count(self) -> int:
        """Unidirectional router-to-router links this topology wires."""
        count = 0
        for router_id in range(self.num_routers):
            for direction in (EAST, WEST, NORTH, SOUTH):
                if self.neighbor(router_id, direction) is not None:
                    count += 1
        return count

    # -- routing ---------------------------------------------------------------

    def route_direction(self, router_id: int, dst_router: int) -> int:
        """Direction constant toward ``dst_router``, or -1 when arrived.

        Must be deterministic and minimal; together with
        :meth:`vc_class` it must be cycle-free on the channel-dependence
        graph (property-tested per topology).
        """
        raise NotImplementedError

    def vc_class(self, router_id: int, dst_router: int) -> int:
        """VC class a head flit for ``dst_router`` allocates from here."""
        return 0

    def detour_vc_class(self, router_id: int, dst_router: int,
                        direction: int) -> int:
        """VC class when a fault detour takes ``direction`` instead.

        :meth:`vc_class` assumes the flit follows :meth:`route_direction`;
        when fault-aware routing picks a *different* output the class must
        be re-derived for the direction actually taken, or a torus detour
        can cross a dateline in the wrong band and close a credit cycle.
        Single-class topologies are direction-independent, so the default
        just delegates.
        """
        return self.vc_class(router_id, dst_router)

    def _productive_directions(self, router_id: int,
                               dst_router: int) -> list[int]:
        """Directions that reduce the remaining distance (X before Y)."""
        raise NotImplementedError

    def fallback_directions(self, router_id: int,
                            dst_router: int) -> tuple[int, ...]:
        """Detour preference order when the routed link is dead.

        A fixed order, so detours are deterministic: the preferred
        direction, the other productive directions (those that still
        reduce the remaining distance), perpendiculars of the preferred,
        and its opposite last (turning straight back tends to bounce).
        The aliveness checks are left to the router, which walks this
        tuple and takes the first attached, unfailed link.

        This is *not* provably deadlock- or livelock-free: the turn
        restrictions of dimension-order routing no longer hold once
        packets misroute.  It is a graceful-degradation heuristic for
        sparse failures, backstopped by the simulator's stall watchdog.
        """
        preferred = self.route_direction(router_id, dst_router)
        productive = self._productive_directions(router_id, dst_router)
        order = []
        if preferred >= 0:
            order.append(preferred)
        for direction in productive:
            if direction != preferred:
                order.append(direction)
        if preferred >= 0:
            fallbacks = _PERPENDICULAR[preferred] + (OPPOSITE[preferred],)
        else:  # pragma: no cover - defensive: routing said "arrived"
            fallbacks = (EAST, WEST, NORTH, SOUTH)
        for direction in fallbacks:
            if direction not in productive:
                order.append(direction)
        return tuple(order)

    # -- analytics -------------------------------------------------------------

    def min_hops(self, router_id: int, dst_router: int) -> int:
        """Minimal router-to-router hop count."""
        raise NotImplementedError

    def mean_min_hops(self) -> float:
        """Mean minimal hop count over uniform (src, dst) router pairs.

        Grid-generic O(routers^2) average; subclasses with a closed form
        override (the mesh must stay bit-identical to the legacy
        Manhattan formula).
        """
        n = self.num_routers
        total = 0
        for src in range(n):
            for dst in range(n):
                total += self.min_hops(src, dst)
        return total / float(n * n)

    # -- power policy ----------------------------------------------------------

    def link_off_allowed(self, kind: str) -> bool:
        """Whether the LINK_OFF sleep rung may be armed on ``kind`` links.

        Grid topologies without path redundancy keep their router-to-router
        fibers awake (a sleeping mesh link stalls every worm routed over it
        for up to a wake penalty); edge links always only serve one node
        and may sleep.  The torus overrides this — its wrap paths make the
        whole fabric a candidate.
        """
        return kind != MESH

    # -- description -----------------------------------------------------------

    def describe(self) -> str:
        """One-line human-readable shape summary."""
        return (
            f"{self.name} {self.grid_width}x{self.grid_height} router grid, "
            f"{self.nodes_per_router} nodes/router"
        )


def direction_name(direction: int) -> str:
    """Human-readable name of a direction constant."""
    return DIRECTION_NAMES[direction]
