"""Link-reliability subsystem: faults, recovery, graceful degradation.

Three cooperating layers:

* **Fault model** — :mod:`repro.reliability.channel` turns the link's
  *current* optical operating point (bit rate, optical band) into a
  per-flit error probability through the Gaussian receiver noise model;
  :mod:`repro.reliability.faults` runs the seeded Bernoulli corruption
  trials and scheduled fault scenarios.
* **Recovery** — the link-level CRC + ACK/NACK retransmission protocol in
  :class:`~repro.reliability.faults.LinkFaultState`, with a bounded retry
  budget, ACK timeout and exponential backoff; retries consume real link
  busy-time and energy.
* **Graceful degradation** — fault-aware routing around dead mesh links
  (:meth:`~repro.network.mesh.MeshTopology.fallback_directions`),
  BER margin guards vetoing power descents past the reliability target,
  and the :class:`~repro.metrics.reliability.ReliabilityReport` making
  the cost visible.

Everything is **default-off**: a run with ``faults=None`` takes none of
these code paths and is bit-identical to a build without this package.
"""

from repro.reliability.channel import LinkChannelModel
from repro.reliability.config import (
    DEFAULT_GUARD_MAX_BER,
    DEFAULT_RECEIVED_POWER_W,
    FaultConfig,
    LinkDegradation,
    LinkFailure,
    StuckTransition,
    neutral_fault_config,
    parse_fault_spec,
)
from repro.reliability.faults import LinkFaultState, fault_stream_seed
from repro.reliability.manager import ReliabilityManager, RouteFaultCounters

__all__ = [
    "DEFAULT_GUARD_MAX_BER",
    "DEFAULT_RECEIVED_POWER_W",
    "FaultConfig",
    "LinkChannelModel",
    "LinkDegradation",
    "LinkFailure",
    "LinkFaultState",
    "ReliabilityManager",
    "RouteFaultCounters",
    "StuckTransition",
    "fault_stream_seed",
    "neutral_fault_config",
    "parse_fault_spec",
]
