"""Property test: an interrupted, resumed sweep equals an unbroken one.

The resilience claim, stated as a property: for *any* interruption point
and either mesh shape (2x2, or the 1-high 4x1), SIGKILL-ing a worker
mid-sweep costs only the point that killed it, and resuming from the
journal re-runs exactly that point and produces results bit-identical
to an uninterrupted serial sweep.  The worker kill is real (an injected
``crash`` → ``SIGKILL`` → ``BrokenProcessPool``), not simulated.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.executor import ExecutionPlan, execute_sweep
from repro.experiments.journal import SweepJournal

from tests.chaos import inject
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

    # Pass 1: the point at kill_index SIGKILLs its worker on every run;
    # it alone fails, and every sibling lands in the journal.
    with inject("crash", f"{shape}/p{kill_index}"):
        interrupted = execute_sweep(points, max_workers=2,
                                    plan=ExecutionPlan(journal=journal))
    assert interrupted.results[kill_index] is None
    assert interrupted.stats.crashes >= 1
    with SweepJournal(journal) as j:
        assert j.counts() == {"done": N_POINTS - 1, "failed": 1}

    # Pass 2: resume with the fault gone; only the killed point re-runs.
    resumed = execute_sweep(
        points, plan=ExecutionPlan(journal=journal, resume=True))
    assert resumed.complete
    assert resumed.stats.executed == 1
    assert resumed.stats.cached == N_POINTS - 1
    assert resumed.results == expected
