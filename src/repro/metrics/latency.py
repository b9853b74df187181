"""Latency-derived metrics: zero-load latency and saturation throughput.

The paper defines throughput as "the injection rate at which average
network latency exceeds twice the latency at zero network load"
(Section 4.1).  :func:`zero_load_latency` computes the analytic zero-load
packet latency of our router/link model; :func:`find_throughput` runs the
bisection search over injection rates.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.network.mesh import get_topology


def mean_hop_count(network: NetworkConfig) -> float:
    """Average minimal router-to-router hops under uniform traffic.

    The mean Manhattan distance ``(w^2-1)/(3w) + (h^2-1)/(3h)``.
    Self-pairs are included — for clustered systems the self-pair is a
    real route (two nodes in the same rack).
    """
    return get_topology(network).mean_min_hops()


def zero_load_latency(network: NetworkConfig, packet_size: int,
                      service_time: float = 1.0) -> float:
    """Analytic zero-load packet latency, cycles.

    Composition per the pipeline model:

    * injection link: service + propagation,
    * per router: head pipeline delay + 1 SA cycle is folded into
      ``head_pipeline_delay``; each hop adds link service + propagation,
    * ejection link: service + propagation,
    * serialisation tail: the last flit leaves ``(size-1) * service``
      after the head.
    """
    if packet_size < 1:
        raise ConfigError(f"packet_size must be >= 1, got {packet_size!r}")
    if service_time <= 0.0:
        raise ConfigError(f"service_time must be > 0, got {service_time!r}")
    hops = mean_hop_count(network)
    per_router = network.head_pipeline_delay
    per_link = service_time + network.link_propagation_cycles
    routers_on_path = hops + 1           # source rack router + one per hop
    links_on_path = hops + 2             # injection + mesh hops + ejection
    head_latency = routers_on_path * per_router + links_on_path * per_link
    tail = (packet_size - 1) * service_time
    return head_latency + tail


def find_throughput(latency_at: Callable[[float], float],
                    zero_load: float, low: float, high: float,
                    tolerance: float = 0.05, max_iterations: int = 12) -> float:
    """Bisect for the injection rate where latency crosses 2x zero-load.

    ``latency_at(rate)`` runs a simulation and returns the mean latency
    (may be ``inf``/NaN past saturation — treated as "above threshold").
    Returns the highest rate found below the threshold.
    """
    if zero_load <= 0.0:
        raise ConfigError(f"zero_load must be > 0, got {zero_load!r}")
    if not 0.0 < low < high:
        raise ConfigError(f"need 0 < low < high, got ({low!r}, {high!r})")
    threshold = 2.0 * zero_load

    def exceeds(rate: float) -> bool:
        latency = latency_at(rate)
        return latency != latency or latency > threshold  # NaN-safe

    if exceeds(low):
        return low
    if not exceeds(high):
        return high
    for _ in range(max_iterations):
        if high - low <= tolerance:
            break
        mid = (low + high) / 2.0
        if exceeds(mid):
            high = mid
        else:
            low = mid
    return low
