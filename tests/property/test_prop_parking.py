"""Property tests: quiet-link parking is invisible in every output.

:meth:`~repro.core.manager.NetworkPowerManager._run_window` closes the
windows of a parked link (idle, at a fixed point of the policy) in
closed form instead of re-running the full evaluation.  Attaching a
``policy`` hook switches parking off, so the same config run with and
without a no-op policy hook compares the parked path against the full
one.  Both must agree on the run summary, power series, level
histogram, transition totals, and every link's window, decision and
utilisation state — over square, wide-router and 1-high meshes, idle,
light uniform and SPLASH trace traffic, faults on and off,
multi-optical modulator links, and warm resets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    MODULATOR,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.links import MESH
from repro.network.simulator import Simulator
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric
from repro.reliability import (
    FaultConfig,
    LinkDegradation,
    LinkFailure,
    StuckTransition,
)
from repro.traffic.splash import generate_splash_trace
from repro.traffic.trace import TraceReplaySource
from repro.traffic.uniform import UniformRandomTraffic

#: (width, height, nodes per rack): a square mesh, a 2x2 mesh of
#: 8-node racks (12-port routers) and a 1-high mesh.
SHAPES = ((3, 3, 2), (2, 2, 8), (9, 1, 2))
TRAFFIC = ("idle", "uniform", "splash")
CYCLES = 900


def network_for(shape: tuple[int, int, int]) -> NetworkConfig:
    width, height, locals_ = shape
    return NetworkConfig(mesh_width=width, mesh_height=height,
                         nodes_per_cluster=locals_, buffer_depth=8,
                         num_vcs=2)


def make_power(*, history: int = 1, optical_levels: int = 1,
               pressure_aware: bool = True, ideal: bool = False,
               window: int = 40) -> PowerAwareConfig:
    # Ideal (zero-delay) transitions complete inside the window that
    # requests them.
    step = 0 if ideal else 2
    return PowerAwareConfig(
        technology=MODULATOR,
        optical_levels=optical_levels,
        policy=PolicyConfig(window_cycles=window, history_windows=history,
                            pressure_aware_utilisation=pressure_aware),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=step,
            voltage_transition_cycles=5 * step,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )


def mesh_link_ids(shape: tuple[int, int, int]) -> list[int]:
    fabric = NetworkFabric(network_for(shape), StatsCollector())
    return [link.link_id for link in fabric.links if link.kind == MESH]


def scenario_faults(shape: tuple[int, int, int],
                    margin_guard: bool) -> FaultConfig:
    """Scheduled scenarios only: most links keep no fault state, so they
    still park, next to a failed, a degraded and a stuck link."""
    ids = mesh_link_ids(shape)
    # A 1-high mesh has no detour around a failed link.
    failures = () if shape[1] == 1 \
        else (LinkFailure(ids[0], at_cycle=150),)
    return FaultConfig(
        seed=3, ber_injection=False, margin_guard=margin_guard,
        failures=failures,
        degradations=(LinkDegradation(ids[1], at_cycle=100,
                                      duration_cycles=200),),
        stuck_transitions=(StuckTransition(ids[-1], at_cycle=300,
                                           duration_cycles=250),),
    )


def make_traffic(kind: str, network: NetworkConfig, rate: float, seed: int):
    nodes = network.num_nodes
    if kind == "idle":
        return UniformRandomTraffic(nodes, 0.0, seed=seed)
    if kind == "uniform":
        return UniformRandomTraffic(nodes, rate, seed=seed)
    # Trace intensities below ~0.3 synthesise no events at this length.
    benchmark = ("fft", "lu", "radix")[seed % 3]
    records = generate_splash_trace(benchmark, nodes, CYCLES // 2,
                                    seed=seed,
                                    intensity=min(1.0, 0.3 + 5.0 * rate))
    return TraceReplaySource(nodes, records)


def make_config(shape: tuple[int, int, int], seed: int,
                power: PowerAwareConfig,
                faults: FaultConfig | None = None) -> SimulationConfig:
    return SimulationConfig(network=network_for(shape), power=power,
                            seed=seed, sample_interval=25,
                            stall_limit_cycles=50_000, faults=faults)


def _no_op(pal, lu, bu, decision, now):
    return None


def outputs(sim: Simulator, cycles: int = CYCLES):
    sim.run(cycles)
    power = sim.power
    per_link = tuple(
        (pal.windows_observed, tuple(sorted(pal.policy.decisions.items())),
         tuple(pal.policy._history), pal.policy.last_sample,
         repr(pal.last_lu), repr(pal.last_bu), pal.last_step_accepted,
         pal.guard_holds, pal.energy_watt_cycles)
        for pal in power.links
    )
    return (sim.summary(), tuple(power.power_series),
            tuple(power.level_histogram()), power.transition_totals(),
            per_link)


def run_pair(config: SimulationConfig, traffic_factory):
    """(parked-path outputs, full-path outputs, parked link-windows)."""
    parked = Simulator(config, traffic_factory())
    parked_out = outputs(parked)
    full = Simulator(config, traffic_factory())
    full.hooks.add("policy", _no_op)
    full_out = outputs(full)
    assert full.power.link_windows_parked == 0
    return parked_out, full_out, parked.power.link_windows_parked


class TestParkingIsExact:
    @settings(max_examples=12, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        traffic=st.sampled_from(TRAFFIC),
        rate=st.floats(min_value=0.005, max_value=0.15),
        history=st.integers(min_value=1, max_value=3),
        pressure_aware=st.booleans(),
        ideal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_parked_matches_full_path(self, shape, traffic, rate,
                                      history, pressure_aware, ideal, seed):
        config = make_config(shape, seed,
                             make_power(history=history,
                                        pressure_aware=pressure_aware,
                                        ideal=ideal))
        parked, full, _ = run_pair(
            config,
            lambda: make_traffic(traffic, config.network, rate, seed))
        assert parked == full

    @settings(max_examples=6, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        traffic=st.sampled_from(TRAFFIC),
        margin_guard=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_parked_matches_full_path_under_faults(self, shape, traffic,
                                                   margin_guard, seed):
        config = make_config(shape, seed, make_power(),
                             faults=scenario_faults(shape, margin_guard))
        parked, full, _ = run_pair(
            config,
            lambda: make_traffic(traffic, config.network, 0.02, seed))
        assert parked == full

    @settings(max_examples=4, deadline=None)
    @given(shape=st.sampled_from(SHAPES),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_default_faults_never_park(self, shape, seed):
        # BER injection gives every link fault state, and the margin
        # guard covers every link: nothing may park.
        config = make_config(shape, seed, make_power(),
                             faults=FaultConfig(seed=3))
        parked, full, windows = run_pair(
            config, lambda: make_traffic("idle", config.network, 0.0, seed))
        assert parked == full
        assert windows == 0

    @settings(max_examples=4, deadline=None)
    @given(shape=st.sampled_from(SHAPES),
           traffic=st.sampled_from(TRAFFIC),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_multi_optical_links_never_park(self, shape, traffic, seed):
        config = make_config(shape, seed, make_power(optical_levels=3))
        parked, full, windows = run_pair(
            config, lambda: make_traffic(traffic, config.network, 0.02, seed))
        assert parked == full
        assert windows == 0

    def test_idle_runs_do_park(self):
        # The oracle above proves nothing if the parked path never runs.
        for shape in SHAPES:
            config = make_config(shape, 5, make_power())
            parked, full, windows = run_pair(
                config, lambda: make_traffic("idle", config.network, 0.0, 5))
            assert parked == full
            assert windows > 0, shape

    @settings(max_examples=5, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        traffic=st.sampled_from(TRAFFIC),
        pressure_aware=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_warm_reset_after_parked_run(self, shape, traffic,
                                         pressure_aware, seed):
        # A simulator that parked links in an idle run, reset onto a new
        # point, must match a freshly built one.
        power = make_power(pressure_aware=pressure_aware)
        config = make_config(shape, seed, power)
        factory = lambda: make_traffic(traffic, config.network, 0.03, seed)  # noqa: E731
        fresh = outputs(Simulator(config, factory()))
        sim = Simulator(make_config(shape, seed + 1,
                                    make_power(
                                        pressure_aware=not pressure_aware)),
                        make_traffic("idle", config.network, 0.0, seed))
        sim.run(CYCLES)
        assert sim.power.link_windows_parked > 0
        sim.reset(config, factory())
        assert sim.power.link_windows_parked == 0
        assert sim.power.link_windows_evaluated == 0
        assert outputs(sim) == fresh
