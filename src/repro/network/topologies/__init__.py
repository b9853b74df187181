"""Topology registry: name -> :class:`~repro.network.topologies.base.Topology`.

:func:`get_topology` is the single place a
:class:`~repro.config.NetworkConfig` is interpreted into geometry; the
fabric builder, the metrics layer and config validation all go through
it, so adding a topology is: write the class, add a branch here, document
it in ``docs/topologies.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.network.topologies.base import Topology
from repro.network.topologies.cmesh import CMeshTopology
from repro.network.topologies.mesh import LineTopology, MeshTopology
from repro.network.topologies.torus import TorusTopology

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.config import NetworkConfig

#: Names accepted by ``NetworkConfig.topology`` / ``--topology``.
KNOWN_TOPOLOGIES = ("cmesh", "line", "mesh", "torus")

#: Per-process memo of built topology instances, keyed by every config
#: field the geometry depends on.  Topologies are stateless by contract
#: (docs/topologies.md) and the derived per-router route tables are
#: cached *on* them copy-on-write (see ``Router.build_route_table``), so
#: sharing one instance across fabrics is safe and makes warm sweep
#: workers skip geometry construction entirely.  Bounded: distinct
#: geometries per process are few; evict FIFO past the cap regardless.
_TOPOLOGY_MEMO: dict[tuple, Topology] = {}
_TOPOLOGY_MEMO_MAX = 32


def get_topology(config: "NetworkConfig") -> Topology:
    """Build (or reuse) the topology a :class:`~repro.config.NetworkConfig`
    names.

    Raises :class:`~repro.errors.ConfigError` for unknown names (listing
    the known ones) and for shape parameters the named topology cannot
    host (torus without enough VCs, concentration not dividing the grid);
    validity checks run before the memo so invalid configs always raise.
    """
    name = config.topology
    if name == "torus" and config.num_vcs < 2:
        raise ConfigError(
            f"torus dateline deadlock avoidance needs num_vcs >= 2 "
            f"(two VC classes); got num_vcs={config.num_vcs}"
        )
    key = (name, config.mesh_width, config.mesh_height,
           config.nodes_per_cluster, config.concentration)
    memo = _TOPOLOGY_MEMO
    cached = memo.get(key)
    if cached is not None:
        return cached
    if name == "mesh":
        topology: Topology = MeshTopology(
            config.mesh_width, config.mesh_height, config.nodes_per_cluster)
    elif name == "torus":
        topology = TorusTopology(config.mesh_width, config.mesh_height,
                                 config.nodes_per_cluster)
    elif name == "cmesh":
        topology = CMeshTopology(config.mesh_width, config.mesh_height,
                                 config.nodes_per_cluster,
                                 config.concentration)
    elif name == "line":
        topology = LineTopology(config.mesh_width * config.mesh_height,
                                config.nodes_per_cluster)
    else:
        raise ConfigError(
            f"unknown topology {name!r}; known: "
            f"{', '.join(KNOWN_TOPOLOGIES)}"
        )
    if len(memo) >= _TOPOLOGY_MEMO_MAX:
        memo.pop(next(iter(memo)))
    memo[key] = topology
    return topology


__all__ = [
    "CMeshTopology",
    "KNOWN_TOPOLOGIES",
    "LineTopology",
    "MeshTopology",
    "Topology",
    "TorusTopology",
    "get_topology",
]
