"""Property tests: routing-relation invariants of the mesh.

Two families of invariants, checked over random small mesh shapes
(1-high and 1-wide meshes included):

* **Minimality** — following the routing relation hop by hop from any
  source reaches any destination in exactly ``min_hops`` steps (so it
  terminates, never detours, and the analytic latency model's
  expected-hop figure describes the real paths).
* **Deadlock freedom** — the channel-dependence graph induced by the
  routing relation is acyclic (Dally's criterion), so every VC may
  serve every packet.  Nodes are channels, directed router-to-router
  edges; an edge connects each channel a packet holds to the next
  channel it requests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.mesh import MeshTopology


@st.composite
def meshes(draw):
    return MeshTopology(draw(st.integers(1, 9)), draw(st.integers(1, 5)), 2)


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
@given(meshes())
def test_route_relation_is_minimal(topology):
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            path = walk(topology, src, dst)
            assert len(path) == topology.min_hops(src, dst)


@settings(max_examples=60, deadline=None)
@given(meshes())
def test_channel_dependence_graph_is_acyclic(topology):
    # Build the dependence edges: for every (src, dst) pair, each channel
    # on the routed path depends on the next.
    deps = {}
    for src in range(topology.num_routers):
        for dst in range(topology.num_routers):
            path = walk(topology, src, dst)
            for holding, requesting in zip(path, path[1:]):
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
                    f"channel-dependence cycle through {child} on the "
                    f"{topology.grid_width}x{topology.grid_height} mesh"
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
@given(meshes())
def test_mean_min_hops_matches_enumeration(topology):
    n = topology.num_routers
    total = sum(
        topology.min_hops(s, d) for s in range(n) for d in range(n)
    )
    assert abs(topology.mean_min_hops() - total / (n * n)) < 1e-9
