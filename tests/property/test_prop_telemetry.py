"""Property tests: telemetry is pure observation.

The trace recorder's contract is that attaching it changes *nothing* about
a run: same summary, same power series, same level histogram — whatever
kind subset is enabled.  It only reads simulation state through hooks,
never writes it.
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
from repro.telemetry.config import ALL_KINDS, TelemetryConfig
from repro.traffic.uniform import UniformRandomTraffic

NETWORK = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                        buffer_depth=8, num_vcs=2)


def make_power() -> PowerAwareConfig:
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=60, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )


def run_one(rate: float, seed: int, *, telemetry: TelemetryConfig | None,
            cycles: int = 600):
    config = SimulationConfig(
        network=NETWORK,
        power=make_power(),
        seed=seed,
        sample_interval=50,
        stall_limit_cycles=50_000,
        telemetry=telemetry,
    )
    traffic = UniformRandomTraffic(NETWORK.num_nodes, rate, seed=seed)
    sim = Simulator(config, traffic)
    sim.run(cycles)
    results = (
        sim.summary(),
        tuple(sim.power.power_series),
        tuple(sim.power.level_histogram()),
        sim.power.transition_totals(),
    )
    counts = dict(sim.telemetry.counts) if sim.telemetry is not None else None
    if sim.telemetry is not None:
        sim.telemetry.close()
    return results, counts


class TestRecorderIsPureObservation:
    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
        kinds=st.sets(st.sampled_from(ALL_KINDS), min_size=1).map(
            lambda s: tuple(sorted(s))),
    )
    def test_run_with_recorder_is_bit_identical(self, rate, seed, kinds):
        plain, _ = run_one(rate, seed, telemetry=None)
        telemetry = TelemetryConfig(kinds=kinds, buffer_events=256)
        traced, counts = run_one(rate, seed, telemetry=telemetry)
        assert traced == plain
        assert counts is not None
        # Only enabled kinds may appear in the recorder's counters.
        assert set(counts) <= set(kinds)


class TestFileSinkEquivalence:
    def test_jsonl_sink_matches_ring_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        ring = TelemetryConfig(buffer_events=100_000)
        jsonl = TelemetryConfig(path=str(path))
        in_memory, ring_counts = run_one(0.15, 11, telemetry=ring)
        on_disk, file_counts = run_one(0.15, 11, telemetry=jsonl)
        assert in_memory == on_disk
        assert ring_counts == file_counts
        from repro.telemetry.export import read_trace

        records = read_trace(str(path))
        assert len(records) == sum(file_counts.values())
