"""Property tests: routing-relation invariants for every topology.

Two families of invariants, checked over random small shapes:

* **Minimality** — following a topology's routing relation hop by hop
  from any source reaches any destination in exactly ``min_hops`` steps
  (so it terminates, never detours, and the analytic latency model's
  expected-hop figure describes the real paths).
* **Deadlock freedom** — the channel-dependence graph induced by the
  routing relation and the VC-class assignment is acyclic (Dally's
  criterion).  Nodes are ``(channel, vc_class)`` pairs where a channel is
  a directed router-to-router edge; an edge connects each channel a
  packet holds to the next channel it requests.  This is the property
  the torus dateline scheme exists to restore; the mesh/line/cmesh pass
  it on a single class because dimension order is already acyclic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import EAST, NORTH, SOUTH, WEST
from repro.network.topologies.cmesh import CMeshTopology
from repro.network.topologies.mesh import LineTopology, MeshTopology
from repro.network.topologies.torus import TorusTopology

_DIRECTIONS = (EAST, WEST, NORTH, SOUTH)


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["mesh", "torus", "cmesh", "line"]))
    if kind == "line":
        return LineTopology(draw(st.integers(1, 9)), 2)
    width = draw(st.integers(1, 5))
    height = draw(st.integers(1, 5))
    if kind == "mesh":
        return MeshTopology(width, height, 2)
    if kind == "torus":
        return TorusTopology(width, height, 2)
    concentration = draw(st.sampled_from([1, 2]))
    return CMeshTopology(width * concentration, height * concentration,
                         2, concentration)


def walk(topology, src, dst):
    """Follow the routing relation; return the channel path taken."""
    path = []
    current = src
    # min_hops is the claimed bound; allow one extra step to catch a
    # relation that fails to terminate at the destination.
    for _ in range(topology.min_hops(src, dst) + 1):
        if current == dst:
            return path
        direction = topology.route_direction(current, dst)
        assert direction >= 0, (
            f"routing stalled at {current} short of {dst}"
        )
        nxt = topology.neighbor(current, direction)
        assert nxt is not None, (
            f"routing at {current} toward {dst} chose direction "
            f"{direction} with no link"
        )
        path.append((current, nxt))
        current = nxt
    raise AssertionError(
        f"path {src} -> {dst} exceeded min_hops="
        f"{topology.min_hops(src, dst)}"
    )


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_route_relation_is_minimal(topology):
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            path = walk(topology, src, dst)
            assert len(path) == topology.min_hops(src, dst)


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_channel_dependence_graph_is_acyclic(topology):
    # Build the dependence edges: for every (src, dst) pair, each channel
    # on the routed path depends on the next, tagged with the VC class
    # the packet occupies while holding it (the class is latched at the
    # upstream router of the channel).
    deps = {}
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            path = walk(topology, src, dst)
            tagged = [
                (edge, topology.vc_class(edge[0], dst)) for edge in path
            ]
            for holding, requesting in zip(tagged, tagged[1:]):
                deps.setdefault(holding, set()).add(requesting)

    # Iterative DFS three-colour cycle check.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(deps, WHITE)
    for root in deps:
        if colour[root] is not WHITE:
            continue
        stack = [(root, iter(deps[root]))]
        colour[root] = GREY
        while stack:
            node, children = stack[-1]
            for child in children:
                state = colour.get(child, WHITE)
                assert state is not GREY, (
                    f"channel-dependence cycle through {child} on "
                    f"{topology.describe()}"
                )
                if state is WHITE and child in deps:
                    colour[child] = GREY
                    stack.append((child, iter(deps[child])))
                    break
                colour[child] = BLACK
            else:
                colour[node] = BLACK
                stack.pop()


@settings(max_examples=40, deadline=None)
@given(topologies())
def test_vc_class_within_declared_band(topology):
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            assert 0 <= topology.vc_class(src, dst) \
                < topology.num_vc_classes


@settings(max_examples=40, deadline=None)
@given(topologies())
def test_mean_min_hops_matches_enumeration(topology):
    n = topology.num_routers
    total = sum(
        topology.min_hops(s, d) for s in range(n) for d in range(n)
    )
    assert abs(topology.mean_min_hops() - total / (n * n)) < 1e-9
