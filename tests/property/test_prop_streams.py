"""Property tests: worm streams leave exactly the per-flit path's state.

A stepped run (``run(1)`` per cycle) never forms a stream, so it is the
reference.  The same run driven in longer ``run()`` chunks forms streams
for long, uncontended worms and must end bit-identical: summary, power
series, level histogram and every link's busy time, demand pressure and
flit count.  Examples vary the mesh, packet length, power-aware against
baseline, the policy window and the chunk length.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.simulator import Simulator
from repro.traffic.trace import TraceRecord, TraceReplaySource
from repro.traffic.uniform import UniformRandomTraffic

SHAPES = ((3, 3, 2), (2, 2, 4), (4, 1, 2))
CYCLES = 900


def network_for(shape: tuple[int, int, int]) -> NetworkConfig:
    width, height, locals_ = shape
    return NetworkConfig(mesh_width=width, mesh_height=height,
                         nodes_per_cluster=locals_)


def power_for(window: int) -> PowerAwareConfig:
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=window, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=4, voltage_transition_cycles=20,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )


def build(shape, aware: bool, window: int, packet: int, rate: float,
          seed: int) -> Simulator:
    network = network_for(shape)
    config = SimulationConfig(
        network=network, power=power_for(window) if aware else None,
        seed=seed, sample_interval=50, warmup_cycles=0,
    )
    traffic = UniformRandomTraffic(network.num_nodes, rate,
                                   packet_size=packet, seed=seed)
    return Simulator(config, traffic)


def state(sim: Simulator):
    links = tuple((link.busy_accum, link.pressure_accum, link.flits_carried,
                   link.free_at) for link in sim.network.links)
    power = sim.power
    return (
        sim.summary(),
        tuple(power.power_series) if power else (),
        tuple(power.level_histogram()) if power else (),
        links,
    )


def run_chunked(sim: Simulator, cycles: int, chunk: int) -> None:
    while cycles > 0:
        step = min(chunk, cycles)
        sim.run(step)
        cycles -= step


@settings(max_examples=12, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    aware=st.booleans(),
    window=st.sampled_from((40, 100, 250)),
    packet=st.sampled_from((12, 24, 48)),
    rate=st.floats(min_value=0.005, max_value=0.06),
    chunk=st.sampled_from((1, 7, 64, CYCLES)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_chunked_runs_match_stepped_runs(shape, aware, window, packet, rate,
                                         chunk, seed):
    stepped = build(shape, aware, window, packet, rate, seed)
    step = stepped.step
    for _ in range(CYCLES):
        step()
    chunked = build(shape, aware, window, packet, rate, seed)
    run_chunked(chunked, CYCLES, chunk)
    assert stepped.stream_counters()["streams_formed"] == 0
    assert state(chunked) == state(stepped)


def test_streams_form_and_match_on_a_drained_trace():
    # Long worms from a few sources: streams form, are cut by windows,
    # contention and source hand-offs, and the drained run still equals
    # the stepped one.
    network = network_for((3, 3, 2))
    records = [TraceRecord(cycle, (cycle * 7) % 18, (cycle * 11 + 5) % 18,
                           40)
               for cycle in range(0, 1500, 23)
               if (cycle * 7) % 18 != (cycle * 11 + 5) % 18]

    def build_trace(aware: bool) -> Simulator:
        config = SimulationConfig(network=network,
                                  power=power_for(100) if aware else None,
                                  sample_interval=50, warmup_cycles=0)
        return Simulator(config, TraceReplaySource(network.num_nodes,
                                                   records))

    for aware in (False, True):
        chunked = build_trace(aware)
        assert chunked.run_until_drained(4000, 512)
        counters = chunked.stream_counters()
        assert counters["streams_formed"] > 0
        assert counters["flit_hops_streamed"] > 0
        # Step the reference to the poll the drained run stopped on.
        reference = build_trace(aware)
        for _ in range(chunked.cycle):
            reference.step()
        assert state(chunked) == state(reference)


def test_worms_the_recurrence_cannot_settle_keep_stepping(monkeypatch):
    # A worm whose departures the run recurrence cannot settle forms no
    # stream and stays on the per-flit path.
    from repro.network.stream import WormStream

    monkeypatch.setattr(WormStream, "_compute_runs",
                        lambda self, last: False)
    for aware in (False, True):
        stepped = build((3, 3, 2), aware, 100, 48, 0.03, 7)
        for _ in range(CYCLES):
            stepped.step()
        chunked = build((3, 3, 2), aware, 100, 48, 0.03, 7)
        run_chunked(chunked, CYCLES, 64)
        assert chunked.stream_counters()["streams_formed"] == 0
        assert state(chunked) == state(stepped)
