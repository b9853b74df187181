"""Concentrated mesh: fewer routers, fatter racks, same node count.

A cmesh with concentration ``c`` collapses every ``c x c`` block of mesh
racks onto a single router, so a ``W x H x P`` configuration becomes a
``(W/c) x (H/c)`` router grid with ``P * c^2`` nodes per router — the
node count ``W*H*P`` is invariant, which keeps every traffic pattern and
injection-rate normalisation comparable across the topology axis.
Routing is plain dimension-order on the smaller grid (deadlock-free on a
single VC class, exactly as on the mesh), so the whole class is the mesh
with a re-derived grid; only the constructor differs.

The trade the design space cares about: concentration divides the number
of power-managed inter-router fibers by ~c^2 while multiplying the load
(and thus the utilisation the policy sees) on each, moving the
power/latency knee.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.network.topologies.mesh import MeshTopology


class CMeshTopology(MeshTopology):
    """Mesh over a concentrated router grid."""

    name = "cmesh"

    def __init__(self, mesh_width: int, mesh_height: int,
                 nodes_per_cluster: int, concentration: int = 2):
        if concentration < 1:
            raise ConfigError(
                f"cmesh concentration must be >= 1, got {concentration!r}"
            )
        if mesh_width % concentration or mesh_height % concentration:
            raise ConfigError(
                f"cmesh concentration {concentration} must divide the mesh "
                f"dimensions; got {mesh_width}x{mesh_height}"
            )
        super().__init__(
            mesh_width // concentration,
            mesh_height // concentration,
            nodes_per_cluster * concentration * concentration,
        )
        self.concentration = concentration
