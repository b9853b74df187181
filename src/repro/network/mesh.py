"""The clustered 2-D mesh: geometry, routing relation and fault detours.

A :class:`MeshTopology` is pure geometry — it owns the router coordinate
system, the neighbour/port map, the routing relation and the analytic
hop-count model of the paper's substrate.  It builds *no* simulation
state: :class:`~repro.network.topology.NetworkFabric` asks it which links
to wire, :meth:`~repro.network.router.Router.build_route_table` asks it
to resolve destinations into output ports, and the metrics layer asks it
for expected hop counts.  Keeping it stateless means a topology object is
cheap to construct anywhere (standalone unit-test routers included) and
trivially picklable for process-parallel sweeps.

Port-numbering contract (shared with :mod:`repro.network.router` and
:mod:`repro.network.routing`): a router with ``L`` local ports numbers
them ``0 .. L-1``, followed by the four grid directions ``L+EAST``,
``L+WEST``, ``L+NORTH``, ``L+SOUTH``.  Router ids are row-major and ``y``
grows southward: SOUTH is ``+y``.

Routing is dimension order (:func:`repro.network.routing.xy_route`),
whose channel-dependence graph is acyclic on a mesh, so every VC of a
port is open to every packet (property-tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.network.routing import EAST, NORTH, OPPOSITE, SOUTH, WEST, xy_route

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.config import NetworkConfig

#: Perpendicular directions for each direction constant, in the fixed
#: order fault-aware misrouting tries them.
_PERPENDICULAR = {
    EAST: (NORTH, SOUTH),
    WEST: (NORTH, SOUTH),
    NORTH: (EAST, WEST),
    SOUTH: (EAST, WEST),
}


class MeshTopology:
    """Row-major 2-D router grid without wrap links."""

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
        self._coords: tuple[tuple[int, int], ...] = tuple(
            (x, y) for y in range(grid_height) for x in range(grid_width))

    # -- geometry --------------------------------------------------------------

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
        """Neighbouring router over ``direction``, or None (grid edge)."""
        x, y = self._coords[router_id]
        if direction == EAST:
            x += 1
        elif direction == WEST:
            x -= 1
        elif direction == SOUTH:
            y += 1
        else:
            y -= 1
        if 0 <= x < self.grid_width and 0 <= y < self.grid_height:
            return y * self.grid_width + x
        return None

    def mesh_link_count(self) -> int:
        """Unidirectional router-to-router links the fabric wires."""
        count = 0
        for router_id in range(self.num_routers):
            for direction in (EAST, WEST, NORTH, SOUTH):
                if self.neighbor(router_id, direction) is not None:
                    count += 1
        return count

    # -- routing ---------------------------------------------------------------

    def route_direction(self, router_id: int, dst_router: int) -> int:
        """Dimension-order direction toward ``dst_router``, -1 if arrived."""
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        return xy_route(src_x, src_y, dst_x, dst_y)

    def _productive_directions(self, router_id: int,
                               dst_router: int) -> list[int]:
        """Directions that reduce the remaining distance (X before Y)."""
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        productive = []
        if dst_x > src_x:
            productive.append(EAST)
        elif dst_x < src_x:
            productive.append(WEST)
        if dst_y > src_y:
            productive.append(SOUTH)
        elif dst_y < src_y:
            productive.append(NORTH)
        return productive

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
        """Minimal router-to-router hop count (Manhattan distance)."""
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        return abs(dst_x - src_x) + abs(dst_y - src_y)

    def mean_min_hops(self) -> float:
        """Mean minimal hop count over uniform (src, dst) router pairs.

        The closed form of the mean Manhattan distance over ordered
        pairs, self-pairs included (for clustered systems the self-pair
        is a real route: two nodes in the same rack).
        """
        w, h = self.grid_width, self.grid_height
        return (w * w - 1) / (3.0 * w) + (h * h - 1) / (3.0 * h)


#: Per-process memo of built topology instances, keyed by every config
#: field the geometry depends on.  A topology is stateless and the
#: derived per-router route tables are cached *on* them copy-on-write
#: (see ``Router.build_route_table``), so sharing one instance across
#: fabrics is safe and makes warm sweep workers skip geometry
#: construction entirely.  Bounded: distinct geometries per process are
#: few; evict FIFO past the cap regardless.
_TOPOLOGY_MEMO: dict[tuple[int, int, int], MeshTopology] = {}
_TOPOLOGY_MEMO_MAX = 32


def get_topology(config: "NetworkConfig") -> MeshTopology:
    """Build (or reuse) the mesh a :class:`~repro.config.NetworkConfig`
    describes."""
    key = (config.mesh_width, config.mesh_height, config.nodes_per_cluster)
    memo = _TOPOLOGY_MEMO
    cached = memo.get(key)
    if cached is not None:
        return cached
    topology = MeshTopology(*key)
    if len(memo) >= _TOPOLOGY_MEMO_MAX:
        memo.pop(next(iter(memo)))
    memo[key] = topology
    return topology
