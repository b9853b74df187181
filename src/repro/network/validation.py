"""Fabric self-checks against the topology's own invariants.

A mis-wired fabric produces plausible-looking but wrong results (flits
silently routed to the wrong rack, credits tracking the wrong buffer), so
the builder's output can be audited with :func:`validate_topology` — used
by tests, and cheap enough to run once at simulator construction in
paranoid setups.

The checks are driven by the fabric's
:class:`~repro.network.mesh.MeshTopology` rather than by the builder's
own loops:

* **counts** — node and per-kind link populations match the topology;
* **local wiring** — every node has injection wiring, every link a
  delivery target;
* **port maps** — a mesh output exists exactly where the topology
  declares a neighbour, delivers into that neighbour's opposite-direction
  input port, and the neighbour relation itself is bijective
  (``neighbor(neighbor(r, d), OPPOSITE[d]) == r``);
* **credit identity** — each mesh output's credit counters *are* the
  neighbour input port's upstream counters, at the per-VC depth;
* **route tables** — following the built tables reaches every
  destination router within ``num_routers`` hops (no black holes, no
  loops).
"""

from __future__ import annotations

from functools import partial

from repro.network.links import EJECTION, INJECTION, MESH
from repro.network.routing import DIRECTION_NAMES, EAST, NORTH, OPPOSITE, SOUTH, WEST
from repro.network.topology import NetworkFabric

_DIRECTIONS = (EAST, WEST, NORTH, SOUTH)


def validate_topology(fabric: NetworkFabric) -> list[str]:
    """Audit a built fabric; returns a list of problems (empty = OK)."""
    problems: list[str] = []
    problems += _check_counts(fabric)
    problems += _check_local_wiring(fabric)
    problems += _check_port_maps(fabric)
    problems += _check_credit_identity(fabric)
    problems += _check_route_tables(fabric)
    return problems


def _check_counts(fabric: NetworkFabric) -> list[str]:
    topology = fabric.topology
    problems = []
    expected_nodes = topology.num_nodes
    if len(fabric.nodes) != expected_nodes:
        problems.append(
            f"node count {len(fabric.nodes)} != expected {expected_nodes}"
        )
    if len(fabric.routers) != topology.num_routers:
        problems.append(
            f"router count {len(fabric.routers)} != expected "
            f"{topology.num_routers}"
        )
    injection = len(fabric.links_of_kind(INJECTION))
    ejection = len(fabric.links_of_kind(EJECTION))
    if injection != expected_nodes or ejection != expected_nodes:
        problems.append(
            f"local link counts ({injection} inj, {ejection} ej) != "
            f"{expected_nodes} nodes"
        )
    expected_mesh = topology.mesh_link_count()
    actual_mesh = len(fabric.links_of_kind(MESH))
    if actual_mesh != expected_mesh:
        problems.append(
            f"mesh link count {actual_mesh} != expected {expected_mesh}"
        )
    return problems


def _check_local_wiring(fabric: NetworkFabric) -> list[str]:
    problems = []
    for node in fabric.nodes:
        if node.link is None or node.credits is None:
            problems.append(f"node {node.node_id} has no injection wiring")
            continue
        if node.link.deliver is None:
            problems.append(
                f"node {node.node_id} injection link has no deliver target"
            )
    for link in fabric.links:
        if link.deliver is None:
            problems.append(f"link {link.link_id} ({link.kind}) undelivered")
    return problems


def _check_port_maps(fabric: NetworkFabric) -> list[str]:
    """Outputs exist exactly where the topology declares neighbours."""
    problems = []
    topology = fabric.topology
    locals_ = topology.nodes_per_router
    for router in fabric.routers:
        for direction in _DIRECTIONS:
            port = locals_ + direction
            output = router.outputs[port]
            neighbour_id = topology.neighbor(router.router_id, direction)
            if output is None:
                if neighbour_id is not None:
                    problems.append(
                        f"router {router.router_id} missing "
                        f"{DIRECTION_NAMES[direction]} output"
                    )
                continue
            if neighbour_id is None:
                problems.append(
                    f"router {router.router_id} has an off-topology "
                    f"{DIRECTION_NAMES[direction]} output"
                )
                continue
            # Bijectivity of the neighbour relation: the reverse port of
            # the neighbour must lead straight back.
            back = topology.neighbor(neighbour_id, OPPOSITE[direction])
            if back != router.router_id:
                problems.append(
                    f"router {router.router_id} "
                    f"{DIRECTION_NAMES[direction]} neighbour "
                    f"{neighbour_id} does not map back "
                    f"(its {DIRECTION_NAMES[OPPOSITE[direction]]} "
                    f"neighbour is {back})"
                )
            # The link must deliver into the neighbour's opposite input.
            deliver = output.link.deliver
            if isinstance(deliver, partial):
                target_router = getattr(deliver.func, "__self__", None)
                target_port = deliver.args[0] if deliver.args else None
                neighbour = fabric.routers[neighbour_id]
                if target_router is not neighbour or \
                        target_port != locals_ + OPPOSITE[direction]:
                    problems.append(
                        f"router {router.router_id} "
                        f"{DIRECTION_NAMES[direction]} link does not "
                        f"deliver to the neighbour's "
                        f"{DIRECTION_NAMES[OPPOSITE[direction]]} input"
                    )
    return problems


def _check_credit_identity(fabric: NetworkFabric) -> list[str]:
    """Each mesh output's credits must be the neighbour input's counters."""
    problems = []
    config = fabric.config
    topology = fabric.topology
    locals_ = topology.nodes_per_router
    for router in fabric.routers:
        for direction in _DIRECTIONS:
            output = router.outputs[locals_ + direction]
            if output is None or output.credits is None:
                continue
            neighbour_id = topology.neighbor(router.router_id, direction)
            if neighbour_id is None:
                continue  # reported by _check_port_maps
            neighbour = fabric.routers[neighbour_id]
            in_port = neighbour.inputs[locals_ + OPPOSITE[direction]]
            if output.credits is not in_port.upstream_credits:
                problems.append(
                    f"router {router.router_id} "
                    f"{DIRECTION_NAMES[direction]} credits are not the "
                    f"neighbour's upstream counters"
                )
            for counter in output.credits:
                if counter.capacity != config.buffer_depth // config.num_vcs:
                    problems.append(
                        f"router {router.router_id} credit capacity "
                        f"{counter.capacity} != per-VC depth"
                    )
    return problems


def _check_route_tables(fabric: NetworkFabric) -> list[str]:
    """Following the built route tables must reach every destination."""
    problems = []
    topology = fabric.topology
    locals_ = topology.nodes_per_router
    num_routers = topology.num_routers
    for router in fabric.routers:
        if router._route_table is None:
            problems.append(f"router {router.router_id} has no route table")
            return problems
    for src in range(num_routers):
        for dst in range(num_routers):
            current = src
            hops = 0
            while current != dst:
                out = fabric.routers[current]._route_table[dst]
                if out < 0:
                    problems.append(
                        f"route table black hole: router {current} has no "
                        f"route toward {dst} (path from {src})"
                    )
                    break
                next_id = topology.neighbor(current, out - locals_)
                if next_id is None:
                    problems.append(
                        f"router {current} routes toward {dst} over "
                        f"port {out}, which leads off-topology"
                    )
                    break
                current = next_id
                hops += 1
                if hops > num_routers:
                    problems.append(
                        f"route table loop: {src} -> {dst} exceeds "
                        f"{num_routers} hops"
                    )
                    break
    return problems
