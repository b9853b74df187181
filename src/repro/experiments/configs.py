"""Canonical experiment configurations and scaling presets.

The paper simulates a 512-node system for 10^6+ cycles per point.  A pure
Python simulator covers ~4k cycles/s at that size, so sweeps with dozens of
points use *scaled* presets: a smaller mesh and shorter runs, with the
slowest control time constants (the 100 us optical settle and 200 us laser
epoch) compressed by the same factor so every control loop still executes
many times per run.  The ``paper`` preset keeps everything at full scale
for users with hours of patience; EXPERIMENTS.md records which preset each
reported number used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import (
    VCSEL,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    TransitionConfig,
)
from repro.errors import ConfigError
from repro.traffic.base import DEFAULT_PACKET_SIZE


@dataclass(frozen=True)
class ExperimentScale:
    """A coherent (network size, run length, time-constant) preset."""

    name: str
    network: NetworkConfig
    run_cycles: int
    #: Divides the optical settle / laser epoch time constants.
    slow_constant_divisor: int
    warmup_cycles: int
    sample_interval: int
    #: Default policy window at this scale.  Scaled presets compress run
    #: length by ~25-50x, so the window shrinks too — otherwise the policy
    #: would see tens of windows per workload phase at paper scale but only
    #: a couple at bench scale, changing its tracking ability qualitatively.
    policy_window_cycles: int = 1000

    def default_policy(self) -> PolicyConfig:
        return PolicyConfig(window_cycles=self.policy_window_cycles)

    def transitions(self) -> TransitionConfig:
        """Transition delays with the paper's *ratios* to the policy window.

        The paper's operating point is Tw=1000 with Tv=100 and Tbr=20 —
        transitions cost ~12% of a window.  Scaled presets shrink Tw, so the
        electrical delays shrink by the same factor; otherwise every scaled
        run would sit in the pathological Tw~Tv regime that the paper's own
        Fig. 5(a) shows to be bad.
        """
        base = TransitionConfig()
        ratio = self.policy_window_cycles / PolicyConfig.window_cycles
        return replace(
            base,
            bit_rate_transition_cycles=max(
                0, round(base.bit_rate_transition_cycles * ratio)
            ),
            voltage_transition_cycles=max(
                0, round(base.voltage_transition_cycles * ratio)
            ),
            optical_transition_cycles=max(
                1, base.optical_transition_cycles // self.slow_constant_divisor
            ),
            laser_epoch_cycles=max(
                1, base.laser_epoch_cycles // self.slow_constant_divisor
            ),
        )


SCALES: dict[str, ExperimentScale] = {
    # Tiny: CI-grade smoke runs (seconds).  The mesh shrinks to 4x4 but the
    # 8-node racks stay: the paper's behaviour hinges on the ratio of
    # node-facing to mesh links (512/224 at paper scale, 128/48 here), and
    # thinner racks concentrate per-injection-link load far above anything
    # the paper's policy ever sees.
    "smoke": ExperimentScale(
        name="smoke",
        network=NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=8),
        run_cycles=16_000,
        slow_constant_divisor=25,
        warmup_cycles=1_500,
        sample_interval=500,
        policy_window_cycles=200,
    ),
    # Default: the benchmark preset (tens of seconds per point).
    "bench": ExperimentScale(
        name="bench",
        network=NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=8),
        run_cycles=48_000,
        slow_constant_divisor=10,
        warmup_cycles=4_000,
        sample_interval=1_000,
        policy_window_cycles=400,
    ),
    # Full paper configuration (minutes to hours per point).
    "paper": ExperimentScale(
        name="paper",
        network=NetworkConfig(),
        run_cycles=1_000_000,
        slow_constant_divisor=1,
        warmup_cycles=50_000,
        sample_interval=10_000,
    ),
}


def get_scale(name: str) -> ExperimentScale:
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scale {name!r}; known: {sorted(SCALES)}"
        ) from None


def power_config(scale: ExperimentScale, *, technology: str = VCSEL,
                 min_bit_rate: float = 5e9, optical_levels: int = 1,
                 policy: PolicyConfig | None = None,
                 ideal_transitions: bool = False) -> PowerAwareConfig:
    """Build a :class:`PowerAwareConfig` for an experiment scale."""
    transitions = scale.transitions()
    if ideal_transitions:
        transitions = replace(
            transitions,
            bit_rate_transition_cycles=0,
            voltage_transition_cycles=0,
        )
    return PowerAwareConfig(
        technology=technology,
        min_bit_rate=min_bit_rate,
        num_levels=6,
        optical_levels=optical_levels,
        policy=policy or scale.default_policy(),
        transitions=transitions,
    )


def static_rate_config(scale: ExperimentScale, bit_rate: float,
                       technology: str = VCSEL) -> PowerAwareConfig:
    """A network whose links are *statically* pinned at one bit rate.

    Used by Fig. 5(g)'s "statically set at 3.3 Gb/s" comparison; the
    one-level ladder makes the policy a no-op.
    """
    return PowerAwareConfig(
        technology=technology,
        min_bit_rate=bit_rate,
        max_bit_rate=bit_rate,
        num_levels=1,
        optical_levels=1,
        policy=PolicyConfig(),
        transitions=scale.transitions(),
    )


def baseline_link_power(scale: ExperimentScale,
                        power: PowerAwareConfig) -> float:
    """Non-power-aware total link power for a scale's topology, watts.

    The normalisation denominator for power-over-time series: the number
    of fibers in the topology times the configured technology's
    maximum-rate link power.
    """
    from repro.core.manager import power_model_from_config
    from repro.network.stats import StatsCollector
    from repro.network.topology import ClusteredMesh

    topology = ClusteredMesh(scale.network, StatsCollector())
    return len(topology.links) * power_model_from_config(power).max_power


# -- workload reference rates -------------------------------------------------

def uniform_saturation_packets(network: NetworkConfig,
                               packet_size: int = DEFAULT_PACKET_SIZE) -> float:
    """Theoretical uniform-traffic saturation rate, packets/cycle.

    Bisection-bound estimate: a vertical cut of a ``w x h`` mesh is crossed
    by ``2h`` unidirectional links each carrying one flit/cycle at the
    maximum bit rate, and uniform traffic sends half of all flits across
    the cut, giving ``4 * h`` flits/cycle network-wide (matching the
    paper's ~6.4 packets/cycle ceiling for 5-flit packets on 8x8).
    """
    cut_links = 2 * min(network.mesh_width, network.mesh_height)
    max_flits_per_cycle = 2.0 * cut_links
    return max_flits_per_cycle / packet_size


def reference_rates(network: NetworkConfig,
                    packet_size: int = DEFAULT_PACKET_SIZE
                    ) -> dict[str, float]:
    """Light/medium/heavy injection rates scaled to the network size.

    At paper scale these land on the paper's 1.25 / 3.3 / 5 packets-per-
    cycle operating points.
    """
    saturation = uniform_saturation_packets(network, packet_size)
    return {
        "light": 0.195 * saturation,
        "medium": 0.45 * saturation,
        "heavy": 0.65 * saturation,
    }
