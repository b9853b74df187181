"""Property tests: transition completions applied on read are exact.

Only the end of an up-step's voltage ramp is an event-wheel event; a
relock's end and a down-step's ramp-down end change only the billed
level, and the next reader applies them at their own timestamps (see
:meth:`~repro.core.manager.NetworkPowerManager.catch_up`).  A stepped
run (``run(1)`` per cycle) catches up at the end of every cycle, so it
reads as if each completion were applied in its own cycle.  The same
run driven in ``run()`` chunks of any length must read the same
``current_power()``, level, transition state and energy on every link
after every ``run()`` call, with no completion due by the last control
phase left unapplied, and end with the same summary and power series.
Examples cover windows shorter than T_br + T_v (a window of 20 against
the smoke scale's 4 + 20), bursty traffic that steps idle links back
up, zero-delay transitions and a fault run, whose retransmissions bill
energy at the billed level in the deliver phase.
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
from repro.core.transitions import TransitionState
from repro.network.simulator import Simulator
from repro.reliability import FaultConfig
from repro.traffic.onoff import OnOffTraffic

CYCLES = 700
#: (T_br, T_v): the smoke scale's delays, a one-cycle relock and zero
#: delay (every step completes in the window that requests it).
TIMINGS = ((4, 20), (1, 6), (0, 0))


def build(window: int, timing: tuple[int, int], faults: bool,
          seed: int) -> Simulator:
    network = NetworkConfig(mesh_width=3, mesh_height=2, nodes_per_cluster=2,
                            buffer_depth=8, num_vcs=2)
    relock, ramp = timing
    power = PowerAwareConfig(
        policy=PolicyConfig(window_cycles=window, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=relock,
            voltage_transition_cycles=ramp,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )
    fault_config = FaultConfig(seed=seed, received_power_w=13e-6,
                               margin_guard=False) if faults else None
    config = SimulationConfig(network=network, power=power, seed=seed,
                              sample_interval=15, warmup_cycles=0,
                              faults=fault_config)
    traffic = OnOffTraffic(network.num_nodes, 0.3, duty_cycle=0.3,
                           mean_burst_cycles=60, seed=seed)
    return Simulator(config, traffic)


def readings(sim: Simulator):
    """Every link's billed power, levels, state and energy, after
    checking that no completion due by the last control phase
    (``cycle - 1``) is left unapplied."""
    last = sim.cycle - 1
    for pal in sim.power.links:
        engine = pal.engine
        assert engine.state is TransitionState.STABLE \
            or engine.next_event > last
    return tuple(
        (pal.current_power(), pal.level, pal.engine.target,
         pal.engine.state, pal.energy_watt_cycles)
        for pal in sim.power.links
    )


@settings(max_examples=15, deadline=None)
@given(
    window=st.sampled_from((20, 50)),
    timing=st.sampled_from(TIMINGS),
    faults=st.booleans(),
    chunks=st.lists(st.integers(min_value=1, max_value=150), min_size=1,
                    max_size=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_chunked_runs_read_like_stepped_runs(window, timing, faults, chunks,
                                             seed):
    stepped = build(window, timing, faults, seed)
    chunked = build(window, timing, faults, seed)
    for chunk in chunks:
        for _ in range(chunk):
            stepped.step()
        chunked.run(chunk)
        assert readings(chunked) == readings(stepped)
    rest = CYCLES - chunked.cycle
    if rest > 0:
        for _ in range(rest):
            stepped.step()
        chunked.run(rest)
        assert readings(chunked) == readings(stepped)
    assert chunked.summary() == stepped.summary()
    assert chunked.power.power_series == stepped.power.power_series


def test_the_examples_exercise_every_regime():
    # Links step both ways, completions wait for readers, up-step ramps
    # are events, and the fault run retransmits.
    sim = build(20, TIMINGS[0], True, 11)
    sim.run(CYCLES)
    totals = sim.power.transition_totals()
    counters = sim.control_counters()
    assert totals["up"] > 0 and totals["down"] > 0
    assert counters["transition_events"] > 0
    assert counters["completions_on_read"] > 0
    assert sim.reliability.report().flits_retransmitted > 0
