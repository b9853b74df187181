"""Dimension-order routing for the clustered 2-D mesh.

The paper's inter-rack network is a general two-dimensional mesh routed
with dimension-order (XY) routing, which is deadlock-free on a mesh.

Port-numbering convention (shared with :mod:`repro.network.router`): a
router with ``L`` local ports numbers them ``0 .. L-1`` (injection on the
input side, ejection on the output side), followed by the four mesh
directions ``L+EAST``, ``L+WEST``, ``L+NORTH``, ``L+SOUTH``.
"""

from __future__ import annotations

EAST = 0
WEST = 1
NORTH = 2
SOUTH = 3

#: Human-readable direction names, indexed by direction constant.
DIRECTION_NAMES = ("east", "west", "north", "south")

#: Opposite of each direction (EAST<->WEST, NORTH<->SOUTH).
OPPOSITE = (WEST, EAST, SOUTH, NORTH)


def xy_route(src_x: int, src_y: int, dst_x: int, dst_y: int) -> int:
    """Dimension-order routing: exhaust X hops before any Y hop.

    Returns a direction constant, or -1 when the packet has arrived at its
    destination router.
    """
    if dst_x > src_x:
        return EAST
    if dst_x < src_x:
        return WEST
    if dst_y > src_y:
        return SOUTH
    if dst_y < src_y:
        return NORTH
    return -1


def hop_count(src_x: int, src_y: int, dst_x: int, dst_y: int) -> int:
    """Minimal mesh hop count between two routers (Manhattan distance)."""
    return abs(dst_x - src_x) + abs(dst_y - src_y)
