"""Simulator microbenchmarks: raw cycle throughput of the substrate.

Not a paper figure — these guard the performance envelope that makes the
figure benchmarks tractable (the pure-Python simulator must sustain
thousands of cycles per second at the scaled sizes).
"""

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
)
from repro.network.simulator import Simulator
from repro.traffic.uniform import UniformRandomTraffic


def make_sim(power: bool, rate: float) -> Simulator:
    network = NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=4)
    config = SimulationConfig(
        network=network,
        power=PowerAwareConfig() if power else None,
        sample_interval=1000,
    )
    traffic = UniformRandomTraffic(network.num_nodes, rate, seed=3)
    return Simulator(config, traffic)


def test_idle_network_cycle_rate(benchmark):
    sim = make_sim(power=False, rate=0.0)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_created == 0


def test_light_load_baseline_cycle_rate(benchmark):
    # Light injection (0.02 pkt/node/cyc) is where the active-component
    # registries pay off: most links/routers/nodes are idle each cycle.
    sim = make_sim(power=False, rate=0.02)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_delivered > 0


def test_light_load_power_aware_cycle_rate(benchmark):
    sim = make_sim(power=True, rate=0.02)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_delivered > 0
    assert sim.relative_power() < 1.0


def test_near_idle_power_aware_parked_cycle_rate(benchmark):
    # A near-idle network over many policy windows: most links settle at
    # the ladder floor and park, so their windows take the closed-form
    # path.  A reference run with a no-op policy hook (which turns
    # parking off) must produce the identical summary.
    network = NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=4)
    config = SimulationConfig(
        network=network,
        power=PowerAwareConfig(policy=PolicyConfig(window_cycles=200)),
        sample_interval=1000,
    )

    def build() -> Simulator:
        traffic = UniformRandomTraffic(network.num_nodes, 0.005, seed=3)
        return Simulator(config, traffic)

    sim = build()

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.relative_power() < 1.0
    assert sim.power.link_windows_parked > 0
    reference = build()
    reference.hooks.add("policy", lambda *args: None)
    reference.run(sim.cycle)
    assert reference.power.link_windows_parked == 0
    assert reference.summary() == sim.summary()


def test_moderate_load_power_aware_cycle_rate(benchmark):
    # 0.25 pkt/node/cyc is the contended-but-not-saturated regime the
    # router work-list optimisations target: every router has work most
    # cycles, but most (port, VC) pairs are still empty.  A fresh
    # reference run cross-checks that the engine's specialised run() loop
    # and the phase-by-phase step path stay bit-identical.
    sim = make_sim(power=True, rate=0.25)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_delivered > 0
    assert sim.relative_power() < 1.0
    reference = make_sim(power=True, rate=0.25)
    while reference.cycle < sim.cycle:
        reference.step()
    assert reference.summary() == sim.summary()


def test_loaded_baseline_cycle_rate(benchmark):
    sim = make_sim(power=False, rate=0.8)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_delivered > 0


def test_loaded_power_aware_cycle_rate(benchmark):
    sim = make_sim(power=True, rate=0.8)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_delivered > 0
    assert sim.relative_power() < 1.0


def test_light_load_power_aware_traced_cycle_rate(benchmark):
    # Full-kind telemetry into a ring buffer must stay within 10% of the
    # untraced power-aware run (the acceptance envelope for the recorder's
    # hot-path cost); the run itself must stay bit-identical.
    from repro.telemetry.config import TelemetryConfig

    network = NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=4)
    config = SimulationConfig(
        network=network,
        power=PowerAwareConfig(),
        sample_interval=1000,
        telemetry=TelemetryConfig(buffer_events=4096),
    )
    traffic = UniformRandomTraffic(network.num_nodes, 0.02, seed=3)
    sim = Simulator(config, traffic)

    def run_chunk():
        sim.run(2000)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1, warmup_rounds=1)
    assert sim.stats.packets_delivered > 0
    assert sim.telemetry is not None and sim.telemetry.counts
    reference = make_sim(power=True, rate=0.02)
    reference.run(sim.cycle)
    assert reference.summary() == sim.summary()


class _FiniteUniformTraffic(UniformRandomTraffic):
    """Uniform traffic that stops at ``until``, so a run can drain."""

    def __init__(self, num_nodes: int, injection_rate: float, until: int,
                 seed: int):
        super().__init__(num_nodes, injection_rate, seed=seed)
        self.until = until

    def _rate_at(self, now: int) -> float:
        return self.injection_rate if now < self.until else 0.0

    def exhausted(self, now: int) -> bool:
        return now >= self.until


def test_fault_injected_retry_drain_rate(benchmark):
    # Low received power with the margin guard off: links step down into
    # high-BER levels and retransmissions fire throughout (about 3,000 of
    # them per run), so every retry re-files its link in the delivery
    # calendar.  The run must still drain every packet.
    from repro.reliability import FaultConfig

    network = NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=4)
    config = SimulationConfig(
        network=network,
        power=PowerAwareConfig(),
        sample_interval=1000,
        faults=FaultConfig(seed=7, received_power_w=10e-6,
                           margin_guard=False),
        stall_limit_cycles=4000,
    )

    def drain() -> tuple[Simulator, bool]:
        traffic = _FiniteUniformTraffic(network.num_nodes, 2.0, until=1500,
                                        seed=3)
        sim = Simulator(config, traffic)
        return sim, sim.run_until_drained(40_000)

    sim, drained = benchmark.pedantic(drain, rounds=3, iterations=1,
                                      warmup_rounds=0)
    assert drained
    assert sim.stats.packets_delivered == sim.stats.packets_created > 0
    assert sim.reliability.report().flits_retransmitted > 0
