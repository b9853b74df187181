"""2-D torus with dimension-order routing and dateline VC classes.

Wrap-around links close each row and column into rings, which halves the
network diameter but reintroduces the channel-dependence cycles that
dimension-order routing eliminated on the mesh: flits circling a ring can
form a credit cycle through the wrap link.  The classic fix is the
*dateline* scheme (Dally & Towles §14.3): virtual channels are split into
two classes, packets travel in class 1 while their remaining journey in
the current dimension still crosses the wrap edge, and drop to class 0
once it no longer does — crossing the dateline is exactly that
transition.  The channel-dependence graph is then acyclic:

* class-0 channels only ever depend on class-0 channels strictly closer
  to the destination *without* using the wrap edge,
* class-1 channels chain monotonically toward the wrap edge and hand over
  to class 0 after it — class transitions only go 1 -> 0,
* dimension order (X rings before Y rings) orders the two ring
  families.

Because routing here is deterministic and minimal, "will the remaining
journey wrap" is a pure function of (current router, destination), so the
class assignment is *table-driven* like the route itself: the router
latches the class at RC time from a per-destination table and restricts
VC allocation to that class's band.  This is why the topology refactor
had to touch the ``num_vcs`` plumbing — a torus needs at least two VCs
per port to host the two bands.

Ties (a destination exactly halfway around an even ring) break toward
the positive direction (east / south), consistently at every hop, so the
chosen direction never flips mid-journey.
"""

from __future__ import annotations

from repro.network.routing import EAST, NORTH, SOUTH, WEST
from repro.network.topologies.base import Topology


class TorusTopology(Topology):
    """Wrap-around 2-D grid; two dateline VC classes."""

    name = "torus"
    num_vc_classes = 2

    def neighbor(self, router_id: int, direction: int) -> int | None:
        x, y = self._coords[router_id]
        w, h = self.grid_width, self.grid_height
        if direction == EAST:
            if w == 1:
                return None
            return y * w + (x + 1) % w
        if direction == WEST:
            if w == 1:
                return None
            return y * w + (x - 1) % w
        if h == 1:
            return None
        if direction == SOUTH:
            return ((y + 1) % h) * w + x
        return ((y - 1) % h) * w + x

    def route_direction(self, router_id: int, dst_router: int) -> int:
        if router_id == dst_router:
            return -1
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        if src_x != dst_x:
            return _ring_direction(src_x, dst_x, self.grid_width, EAST, WEST)
        return _ring_direction(src_y, dst_y, self.grid_height, SOUTH, NORTH)

    def vc_class(self, router_id: int, dst_router: int) -> int:
        if router_id == dst_router:
            return 0
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        if src_x != dst_x:
            return _ring_class(src_x, dst_x, self.grid_width)
        return _ring_class(src_y, dst_y, self.grid_height)

    def detour_vc_class(self, router_id: int, dst_router: int,
                        direction: int) -> int:
        # A detour hop crosses its ring's dateline iff continuing in the
        # *chosen* direction toward the destination passes the wrap edge,
        # or the hop itself is the wrap link (the coordinate is already
        # correct and the detour steps off the ring's far edge).  This
        # generalises :func:`_ring_class`, which only covers the minimal
        # direction, and agrees with it whenever the chosen direction is
        # the minimal one.
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        if direction == EAST:
            return 1 if (dst_x < src_x or src_x == self.grid_width - 1) else 0
        if direction == WEST:
            return 1 if (dst_x > src_x or src_x == 0) else 0
        if direction == SOUTH:
            return 1 if (dst_y < src_y or src_y == self.grid_height - 1) else 0
        return 1 if (dst_y > src_y or src_y == 0) else 0

    def _productive_directions(self, router_id: int,
                               dst_router: int) -> list[int]:
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        productive = []
        if src_x != dst_x:
            productive.append(
                _ring_direction(src_x, dst_x, self.grid_width, EAST, WEST)
            )
        if src_y != dst_y:
            productive.append(
                _ring_direction(src_y, dst_y, self.grid_height, SOUTH, NORTH)
            )
        return productive

    def min_hops(self, router_id: int, dst_router: int) -> int:
        src_x, src_y = self._coords[router_id]
        dst_x, dst_y = self._coords[dst_router]
        return (_ring_distance(src_x, dst_x, self.grid_width)
                + _ring_distance(src_y, dst_y, self.grid_height))

    def mean_min_hops(self) -> float:
        # Mean ring distance per dimension over uniform ordered pairs
        # (self-pairs included, matching the mesh convention): by ring
        # symmetry this is (1/W) * sum_k min(k, W-k).
        return (_mean_ring_distance(self.grid_width)
                + _mean_ring_distance(self.grid_height))

    def link_off_allowed(self, kind: str) -> bool:
        # The torus is the substrate the LINK_OFF rung was built for:
        # every router keeps four live directions, so an asleep fiber
        # only costs its worms the wake penalty, never connectivity.
        return True


def _ring_direction(src: int, dst: int, size: int,
                    forward_dir: int, backward_dir: int) -> int:
    """Minimal direction around one ring; ties break toward forward."""
    forward = (dst - src) % size
    if forward <= size - forward:
        return forward_dir
    return backward_dir


def _ring_class(src: int, dst: int, size: int) -> int:
    """Dateline VC class: 1 while the remaining ring journey wraps."""
    forward = (dst - src) % size
    if forward <= size - forward:
        # Travelling forward (increasing coordinate): wraps iff the
        # destination is numerically behind us.
        return 1 if dst < src else 0
    # Travelling backward: wraps iff the destination is ahead.
    return 1 if dst > src else 0


def _ring_distance(src: int, dst: int, size: int) -> int:
    forward = (dst - src) % size
    return min(forward, size - forward)


def _mean_ring_distance(size: int) -> float:
    total = 0
    for k in range(size):
        total += min(k, size - k)
    return total / float(size)
