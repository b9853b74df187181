"""Configuration dataclasses for the whole system.

Every experiment is described by a :class:`SimulationConfig`, which nests the
network substrate parameters (:class:`NetworkConfig`), the power-aware
machinery parameters (:class:`PowerAwareConfig` with its
:class:`PolicyConfig` and :class:`TransitionConfig`), or ``power=None`` for
the non-power-aware baseline.

Defaults follow the paper's Section 4.1 setup: an 8x8 mesh of 64 racks with
8 nodes each, 625 MHz routers, 16-flit buffers, 16-bit flits, 10 Gb/s
maximum links, six bit-rate levels from 5 to 10 Gb/s, Tw = 1000 cycles,
Table 1 thresholds, T_br = 20 cycles, T_v = 100 cycles, and 100 us optical
attenuator transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.photonics.constants import MAX_BIT_RATE
from repro.units import MICRO

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.reliability.config import FaultConfig
    from repro.telemetry.config import TelemetryConfig

VCSEL = "vcsel"
MODULATOR = "modulator"

#: Router clock of the paper's evaluation, hertz.
ROUTER_FREQUENCY_HZ = 625e6


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the clustered network substrate.

    A ``mesh_width x mesh_height`` mesh of racks, each a router serving
    ``nodes_per_cluster`` nodes (see :mod:`repro.network.mesh`).
    """

    mesh_width: int = 8
    mesh_height: int = 8
    nodes_per_cluster: int = 8
    buffer_depth: int = 16
    num_vcs: int = 4
    flit_width_bits: int = 16
    router_frequency_hz: float = ROUTER_FREQUENCY_HZ
    head_pipeline_delay: int = 3
    link_propagation_cycles: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mesh_width", "mesh_height", "nodes_per_cluster",
                     "buffer_depth", "flit_width_bits", "num_vcs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.buffer_depth < self.num_vcs:
            raise ConfigError(
                f"buffer_depth {self.buffer_depth} cannot be split across "
                f"{self.num_vcs} virtual channels"
            )
        if self.router_frequency_hz <= 0:
            raise ConfigError("router_frequency_hz must be positive")
        if self.head_pipeline_delay < 0:
            raise ConfigError("head_pipeline_delay must be >= 0")
        if self.link_propagation_cycles < 0:
            raise ConfigError("link_propagation_cycles must be >= 0")

    @property
    def num_routers(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def num_nodes(self) -> int:
        return self.mesh_width * self.mesh_height * self.nodes_per_cluster

    @property
    def cycle_time_s(self) -> float:
        """Duration of one router cycle, seconds."""
        return 1.0 / self.router_frequency_hz

    def flit_service_time(self, bit_rate: float, max_bit_rate: float) -> float:
        """Router cycles one flit occupies a link at ``bit_rate``.

        At the paper's operating point (16 bits x 625 MHz = 10 Gb/s) a flit
        takes exactly one cycle at the maximum rate; lower rates stretch the
        service time proportionally.
        """
        if bit_rate <= 0 or bit_rate > max_bit_rate:
            raise ConfigError(
                f"bit_rate must be in (0, {max_bit_rate}], got {bit_rate!r}"
            )
        return self.flit_width_bits * self.router_frequency_hz / bit_rate

    def microseconds_to_cycles(self, microseconds: float) -> int:
        """Convert wall time to router cycles (rounded up)."""
        return math.ceil(microseconds * MICRO * self.router_frequency_hz)


@dataclass(frozen=True)
class PolicyConfig:
    """Link policy controller parameters (paper Section 3.3, Table 1)."""

    window_cycles: int = 1000
    history_windows: int = 3
    threshold_low_uncongested: float = 0.4
    threshold_high_uncongested: float = 0.6
    threshold_low_congested: float = 0.6
    threshold_high_congested: float = 0.7
    congestion_threshold: float = 0.5
    #: Stability guard (our addition, see DESIGN.md): while the downstream
    #: buffer signals congestion (Bu >= congestion_threshold), down-steps
    #: are inhibited.  A link upstream of a bottleneck idles because it is
    #: credit-starved, so its measured Lu collapses even though demand is
    #: high; stepping it down on that reading cascades the congestion
    #: upstream and the network loses throughput below saturation.  Set to
    #: False to reproduce the paper's literal Table 1 behaviour (the
    #: ablation benchmark shows the cascade).
    congestion_inhibits_downscale: bool = True
    #: Congestion rescue (our addition, see DESIGN.md): when the downstream
    #: buffer is nearly full (Bu >= rescue_threshold), step up regardless of
    #: Lu.  In a congestion tree only the root link measures high
    #: utilisation — everything behind it idles on empty credit counters —
    #: so a pure-Lu policy upgrades one tree frontier per window and takes
    #: tens of thousands of cycles to recover from an overshoot.  Bu is the
    #: paper's own congestion signal; this rule lets all congested links
    #: recover in parallel.  Set >= 1.0 to disable.
    rescue_threshold: float = 0.75
    #: Headroom check (our addition, see DESIGN.md): before stepping down,
    #: project the utilisation at the lower rate (Lu * rate_now/rate_lower)
    #: and hold if it would exceed TH.  The sliding average lags the load,
    #: so an unchecked descent overshoots into oversubscription and the
    #: queues built during the lag take thousands of cycles to drain.
    downscale_headroom_check: bool = True
    #: Starvation-aware utilisation (our addition, see DESIGN.md): measure
    #: Lu as the fraction of cycles the link was busy *or blocked with
    #: queued work* (a work-conserving utilisation counter at the output
    #: port).  A bottleneck link inside a congestion tree can idle on empty
    #: credit counters while demand piles up behind it; pure busy-time Lu
    #: under-reads it and the policy never raises its rate.  Set to False
    #: for the paper's literal busy-time statistic.
    pressure_aware_utilisation: bool = True

    def __post_init__(self) -> None:
        if self.window_cycles < 1:
            raise ConfigError("window_cycles must be >= 1")
        if self.history_windows < 1:
            raise ConfigError("history_windows must be >= 1")
        pairs = (
            (self.threshold_low_uncongested, self.threshold_high_uncongested),
            (self.threshold_low_congested, self.threshold_high_congested),
        )
        for low, high in pairs:
            if not 0.0 <= low < high <= 1.0:
                raise ConfigError(
                    f"thresholds must satisfy 0 <= TL < TH <= 1, got ({low}, {high})"
                )
        if not 0.0 <= self.congestion_threshold <= 1.0:
            raise ConfigError("congestion_threshold must lie in [0, 1]")
        if self.rescue_threshold < self.congestion_threshold:
            raise ConfigError(
                "rescue_threshold must be >= congestion_threshold "
                f"({self.rescue_threshold} < {self.congestion_threshold})"
            )

    def with_average_threshold(self, average: float,
                               separation: float = 0.1) -> "PolicyConfig":
        """Derive a config with the *uncongested* band centred on ``average``.

        The Fig. 5(d-f) sweep fixes TH - TL = 0.1 and moves the band's
        centre; the congested band shifts by the same offset, clamped to
        [0, 1].
        """
        low = average - separation / 2.0
        high = average + separation / 2.0
        if not 0.0 <= low < high <= 1.0:
            raise ConfigError(
                f"average threshold {average!r} with separation {separation!r} "
                "leaves the [0, 1] range"
            )
        shift = average - (self.threshold_low_uncongested
                           + self.threshold_high_uncongested) / 2.0
        congested_low = min(max(self.threshold_low_congested + shift, 0.0), 0.98)
        congested_high = min(max(self.threshold_high_congested + shift,
                                 congested_low + 0.01), 1.0)
        return replace(
            self,
            threshold_low_uncongested=low,
            threshold_high_uncongested=high,
            threshold_low_congested=congested_low,
            threshold_high_congested=congested_high,
        )


@dataclass(frozen=True)
class TransitionConfig:
    """Transition delays of the power-control mechanisms (paper Section 4.1).

    All values are router cycles.  ``optical_transition_cycles`` is the VOA
    response (~100 us = 62 500 cycles at 625 MHz) and ``laser_epoch_cycles``
    is the external-laser controller's decision period (~200 us).
    """

    bit_rate_transition_cycles: int = 20
    voltage_transition_cycles: int = 100
    optical_transition_cycles: int = 62_500
    laser_epoch_cycles: int = 125_000

    def __post_init__(self) -> None:
        for name in ("bit_rate_transition_cycles", "voltage_transition_cycles",
                     "optical_transition_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.laser_epoch_cycles < 1:
            raise ConfigError("laser_epoch_cycles must be >= 1")

    @classmethod
    def ideal(cls) -> "TransitionConfig":
        """Zero electrical transition delays (Fig. 6(b)'s 'w/o delays')."""
        return cls(bit_rate_transition_cycles=0, voltage_transition_cycles=0)


@dataclass(frozen=True)
class PowerAwareConfig:
    """Power-aware machinery: ladder, technology, policy, transitions."""

    technology: str = VCSEL
    min_bit_rate: float = 5e9
    max_bit_rate: float = MAX_BIT_RATE
    num_levels: int = 6
    optical_levels: int = 1
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    transitions: TransitionConfig = field(default_factory=TransitionConfig)

    def __post_init__(self) -> None:
        if self.technology not in (VCSEL, MODULATOR):
            raise ConfigError(
                f"technology must be {VCSEL!r} or {MODULATOR!r}, "
                f"got {self.technology!r}"
            )
        if not 0 < self.min_bit_rate <= self.max_bit_rate:
            raise ConfigError(
                "need 0 < min_bit_rate <= max_bit_rate, got "
                f"({self.min_bit_rate!r}, {self.max_bit_rate!r})"
            )
        if self.num_levels < 1:
            raise ConfigError("num_levels must be >= 1")
        if self.num_levels == 1 and self.min_bit_rate != self.max_bit_rate:
            raise ConfigError("a one-level ladder needs min == max bit rate")
        if self.optical_levels < 1:
            raise ConfigError("optical_levels must be >= 1")
        if self.optical_levels > 1 and self.technology != MODULATOR:
            raise ConfigError(
                "multiple optical power levels require the modulator "
                "technology (VCSELs tune light through their own drive)"
            )


@dataclass(frozen=True)
class SimulationConfig:
    """A complete simulation: substrate + (optional) power-awareness."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    power: PowerAwareConfig | None = field(default_factory=PowerAwareConfig)
    seed: int = 1
    warmup_cycles: int = 0
    sample_interval: int = 1000
    #: Stall watchdog: raise SimulationError if packets are in flight but
    #: no flit moves onto a link for this many cycles (0 = disabled).  A true
    #: deadlock is always a simulator bug (XY routing + credits is
    #: deadlock-free); the watchdog turns a silent hang into a diagnosis.
    stall_limit_cycles: int = 0
    #: Optional link-reliability fault model (see :mod:`repro.reliability`).
    #: ``None`` (the default) disables every fault code path — the run is
    #: bit-identical to a build without the reliability subsystem.
    faults: FaultConfig | None = None
    #: Run :func:`repro.network.validation.validate_topology` on the wired
    #: mesh at simulator construction and refuse to start on any finding.
    validate_topology: bool = False
    #: Optional run-trace recording (see :mod:`repro.telemetry`).  ``None``
    #: (the default) builds no recorder and registers no hooks — the run
    #: is bit-identical to a build without the telemetry subsystem.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ConfigError("warmup_cycles must be >= 0")
        if self.sample_interval < 1:
            raise ConfigError("sample_interval must be >= 1")
        if self.stall_limit_cycles < 0:
            raise ConfigError("stall_limit_cycles must be >= 0")

    @classmethod
    def baseline(cls, network: NetworkConfig | None = None,
                 seed: int = 1) -> "SimulationConfig":
        """The non-power-aware reference network (all links at max rate)."""
        return cls(network=network or NetworkConfig(), power=None, seed=seed)


def small_network(width: int = 4, height: int = 4,
                  nodes_per_cluster: int = 2) -> NetworkConfig:
    """A scaled-down network for tests and fast benchmarks.

    The pure-Python simulator runs the paper's full 8x8x8 system, but at
    ~10^4 cycles/s; tests and the shape-checking benchmarks use this smaller
    instance and EXPERIMENTS.md records the scaling.
    """
    return NetworkConfig(mesh_width=width, mesh_height=height,
                         nodes_per_cluster=nodes_per_cluster)
