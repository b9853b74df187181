"""Flit-level network simulator substrate (paper Sections 3.1 and 4.1).

A cycle-driven reproduction of the paper's evaluation vehicle: 5-stage
pipelined wormhole routers at 625 MHz with 16-flit buffers and 16-bit
flits, arranged in a clustered 2-D mesh (8 injection/ejection ports per
router plus 4 mesh ports), with every link modelled as a variable-bit-rate
serialiser.
"""

from repro.network.arbiters import RoundRobinArbiter
from repro.network.buffers import CreditCounter, InputBuffer
from repro.network.flit import Flit
from repro.network.links import EJECTION, INJECTION, MESH, Link
from repro.network.packet import Packet
from repro.network.router import InputPort, OutputPort, Router
from repro.network.routing import (
    DIRECTION_NAMES,
    EAST,
    NORTH,
    OPPOSITE,
    SOUTH,
    WEST,
    hop_count,
    xy_route,
)
from repro.network.simulator import Simulator
from repro.network.stats import StatsCollector
from repro.network.topology import ClusteredMesh, Node

__all__ = [
    "ClusteredMesh",
    "CreditCounter",
    "DIRECTION_NAMES",
    "EAST",
    "EJECTION",
    "Flit",
    "INJECTION",
    "InputBuffer",
    "InputPort",
    "Link",
    "MESH",
    "NORTH",
    "Node",
    "OPPOSITE",
    "OutputPort",
    "Packet",
    "RoundRobinArbiter",
    "Router",
    "SOUTH",
    "Simulator",
    "StatsCollector",
    "WEST",
    "hop_count",
    "xy_route",
]
