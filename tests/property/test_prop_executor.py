"""Property test: an interrupted, resumed sweep equals an unbroken one.

The resilience claim, stated as a property: for *any* interruption point
and either mesh shape (2x2, or the 1-high 4x1), SIGKILL-ing a worker mid-sweep and resuming from
the journal produces results bit-identical to an uninterrupted serial
sweep.  The worker kill is real (chaos ``crash`` → ``SIGKILL`` →
``BrokenProcessPool``), not simulated.
"""

import os
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.executor import ExecutionPlan, execute_sweep

from tests.sweeputil import TINY, tiny_point

N_POINTS = 4

_BASELINES: dict[str, list] = {}


def points_for(shape: str):
    width, height = (int(side) for side in shape.split("x"))
    scale = replace(TINY, network=replace(TINY.network, mesh_width=width,
                                          mesh_height=height))
    return [replace(tiny_point(label=f"{shape}/p{i}", seed=i + 1),
                    scale=scale)
            for i in range(N_POINTS)]


def baseline_for(shape: str):
    if shape not in _BASELINES:
        _BASELINES[shape] = execute_sweep(points_for(shape)).results
    return _BASELINES[shape]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kill_index=st.integers(min_value=0, max_value=N_POINTS - 1),
       shape=st.sampled_from(["2x2", "4x1"]))
def test_killed_then_resumed_sweep_is_bit_identical(kill_index, shape,
                                                    tmp_path_factory):
    expected = baseline_for(shape)
    journal = tmp_path_factory.mktemp("journal") / "sweep.sqlite"
    points = points_for(shape)

    # Pass 1: the point at kill_index SIGKILLs its worker on every
    # attempt; with retries=0 it fails, siblings land in the journal.
    os.environ["REPRO_CHAOS"] = f"crash*9:{shape}/p{kill_index}"
    try:
        interrupted = execute_sweep(
            points, max_workers=2,
            plan=ExecutionPlan(journal=journal, backoff=0.05))
    finally:
        del os.environ["REPRO_CHAOS"]
    assert interrupted.results[kill_index] is None
    assert interrupted.stats.crashes >= 1

    # Pass 2: resume with chaos off; only the killed point re-runs.
    resumed = execute_sweep(
        points, plan=ExecutionPlan(journal=journal, resume=True))
    assert resumed.complete
    assert resumed.stats.executed >= 1
    assert resumed.results == expected
