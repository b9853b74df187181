"""Workload generators and trace handling (paper Section 4.2).

Three workload families drive the evaluation:

* :class:`~repro.traffic.uniform.UniformRandomTraffic` — constant-rate
  uniform traffic, the policy stress test (Fig. 5);
* :class:`~repro.traffic.hotspot.HotspotTraffic` — the time-varying
  hot-spot trace with spatial skew (Fig. 6);
* :mod:`~repro.traffic.splash` — synthetic SPLASH2-like traces replayed via
  :class:`~repro.traffic.trace.TraceReplaySource` (Fig. 7, Table 3).
"""

from repro.traffic.base import DEFAULT_PACKET_SIZE, PoissonSource, TrafficSource
from repro.traffic.hotspot import HotspotTraffic, Phase, paper_like_schedule
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.splash import (
    BENCHMARKS,
    envelope_for,
    generate_splash_trace,
    mean_packet_size,
)
from repro.traffic.trace import (
    TraceRecord,
    TraceReplaySource,
    read_trace,
    read_trace_file,
    trace_from_string,
    write_trace,
    write_trace_file,
)
from repro.traffic.uniform import UniformRandomTraffic

__all__ = [
    "BENCHMARKS",
    "DEFAULT_PACKET_SIZE",
    "HotspotTraffic",
    "OnOffTraffic",
    "Phase",
    "PoissonSource",
    "TraceRecord",
    "TraceReplaySource",
    "TrafficSource",
    "UniformRandomTraffic",
    "envelope_for",
    "generate_splash_trace",
    "mean_packet_size",
    "paper_like_schedule",
    "read_trace",
    "read_trace_file",
    "trace_from_string",
    "write_trace",
    "write_trace_file",
]
