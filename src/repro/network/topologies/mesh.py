"""The clustered 2-D mesh (the paper's substrate) and the 1-D line.

:class:`MeshTopology` is the bit-identical extraction of the geometry the
builder and router used to hard-code: row-major router ids, no wrap
links, dimension-order routing via
:func:`repro.network.routing.xy_route`, Manhattan hop counts.  The legacy
closed-form mean hop count is preserved exactly so the analytic latency
model does not move by a ULP under the refactor.

:class:`LineTopology` is the degenerate 1-high mesh: every router in one
row, east/west links only.  It exists mostly as the smallest non-trivial
exercise of the topology contract (and as the cheapest substrate for
power-policy experiments where routing is irrelevant).
"""

from __future__ import annotations

from repro.network.routing import EAST, NORTH, SOUTH, WEST, xy_route
from repro.network.topologies.base import Topology


class MeshTopology(Topology):
    """Row-major 2-D mesh; single VC class (dimension order is acyclic)."""

    name = "mesh"

    def neighbor(self, router_id: int, direction: int) -> int | None:
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

    def route_direction(self, router_id: int, dst_router: int) -> int:
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        return xy_route(src_x, src_y, dst_x, dst_y)

    def _productive_directions(self, router_id: int,
                               dst_router: int) -> list[int]:
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

    def min_hops(self, router_id: int, dst_router: int) -> int:
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        return abs(dst_x - src_x) + abs(dst_y - src_y)

    def mean_min_hops(self) -> float:
        # The legacy closed form (mean Manhattan distance over uniform
        # ordered pairs, self-pairs included) — kept operation-for-
        # operation so the analytic latency model is bit-identical.
        w, h = self.grid_width, self.grid_height
        return (w * w - 1) / (3.0 * w) + (h * h - 1) / (3.0 * h)


class LineTopology(MeshTopology):
    """All routers in one row; east/west links only."""

    name = "line"

    def __init__(self, length: int, nodes_per_router: int):
        super().__init__(length, 1, nodes_per_router)
