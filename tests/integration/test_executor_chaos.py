"""Fault-injection integration tests for the sweep executor.

Each test injects a real failure mode — a SIGKILL'd worker, a point that
raises, a supervisor killed mid-sweep — and asserts the executor's core
promise: a failure costs only its own point, and recovery never changes
results.  Every sweep is compared bit-for-bit against an undisturbed
serial baseline.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.hooks import HookRegistry
from repro.errors import SweepExecutionError
from repro.experiments.executor import ExecutionPlan, execute_sweep
from repro.experiments.journal import SweepJournal

from tests.chaos import inject
from tests.sweeputil import tiny_point

REPO_ROOT = Path(__file__).resolve().parents[2]


def sweep_points():
    return [tiny_point(label=f"p{i}", seed=i + 1) for i in range(4)]


@pytest.fixture(scope="module")
def baseline():
    """The undisturbed serial ground truth every recovery must match."""
    return execute_sweep(sweep_points()).results


class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_crash_costs_only_the_crashing_point(self, baseline, workers):
        # The crash breaks the pool under every point in flight; each is
        # re-run alone, and only p0, whose solo run crashes again, fails.
        hooks = HookRegistry()
        crashes = []
        hooks.add("exec_crash", lambda label, key, attempt, cause:
                  crashes.append((label, cause)))
        with inject("crash", "p0"):
            outcome = execute_sweep(sweep_points(), max_workers=workers,
                                    plan=ExecutionPlan(), hooks=hooks)
        assert outcome.results[0] is None
        assert outcome.results[1:] == baseline[1:]
        [failure] = outcome.report.failures
        assert (failure.label, failure.cause) == ("p0", "crash")
        assert outcome.stats.failed == 1
        assert outcome.stats.crashes == 2
        # exec_crash fires with its documented arity: once per point in
        # flight at the first crash, once more for p0's solo re-run.
        assert crashes.count(("p0", "crash")) == 2
        assert {cause for _, cause in crashes} == {"crash"}

    def test_journal_logs_the_attempts_a_crash_cost(self, tmp_path):
        journal = tmp_path / "sweep.sqlite"
        with inject("crash", "p0"):
            execute_sweep(sweep_points(), max_workers=2,
                          plan=ExecutionPlan(journal=journal))
        with SweepJournal(journal) as j:
            log = [(e["label"], e["outcome"], e["cause"])
                   for e in j.attempt_log()]
        # p0 lost its first run to its own crash, then failed alone;
        # whatever else was in flight lost a run and finished alone.
        assert ("p0", "lost", "crash") in log
        assert {cause for _, outcome, cause in log if outcome == "lost"} \
            == {"crash"}
        final = {label: (outcome, cause) for label, outcome, cause in log
                 if outcome != "lost"}
        assert final == {"p0": ("failed", "crash"), "p1": ("done", None),
                         "p2": ("done", None), "p3": ("done", None)}

    def test_strict_crash_raises_with_the_report(self):
        with inject("crash", "p1"), \
                pytest.raises(SweepExecutionError,
                              match="'p1' killed its worker") as raised:
            execute_sweep(sweep_points(), max_workers=2,
                          plan=ExecutionPlan(strict=True))
        [failure] = raised.value.report.failures
        assert (failure.label, failure.cause) == ("p1", "crash")


class TestGracefulDegradation:
    def test_exhausted_point_never_discards_finished_siblings(
            self, baseline):
        with inject("oom", "p0"):
            outcome = execute_sweep(sweep_points(), max_workers=2)
        assert not outcome.complete
        assert outcome.results[0] is None
        assert outcome.results[1:] == baseline[1:]
        [failure] = outcome.report.failures
        assert (failure.label, failure.cause) == ("p0", "error")
        assert "MemoryError" in failure.error
        assert outcome.stats.crashes == 0


_CHILD_SCRIPT = """
import sys
from repro.experiments.executor import ExecutionPlan, execute_sweep
from tests.chaos import inject
from tests.sweeputil import tiny_point

points = [tiny_point(label=f"p{i}", seed=i + 1) for i in range(4)]
with inject("crash", "p2"):
    execute_sweep(points, plan=ExecutionPlan(journal=sys.argv[1]))
"""


class TestJournalResume:
    def test_supervisor_killed_mid_sweep_resumes_bit_identical(
            self, baseline, tmp_path):
        """The acceptance criterion: SIGKILL the whole sweep process at
        point p2, then resume from the journal and match the
        uninterrupted serial baseline exactly."""
        journal = tmp_path / "sweep.sqlite"
        env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}.")
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(journal)],
            cwd=REPO_ROOT, env=env, capture_output=True, timeout=120)
        # The injected crash SIGKILLs the (serial) executing process itself.
        assert child.returncode == -signal.SIGKILL, child.stderr.decode()
        with SweepJournal(journal) as j:
            assert j.counts() == {"done": 2}  # p0, p1 committed pre-kill

        outcome = execute_sweep(
            sweep_points(),
            plan=ExecutionPlan(journal=journal, resume=True))
        assert outcome.complete
        assert outcome.stats.cached == 2
        assert outcome.stats.executed == 2
        assert outcome.results == baseline

    def test_finished_journal_replays_without_executing(self, baseline,
                                                        tmp_path):
        journal = tmp_path / "sweep.sqlite"
        execute_sweep(sweep_points(), plan=ExecutionPlan(journal=journal))
        outcome = execute_sweep(
            sweep_points(),
            plan=ExecutionPlan(journal=journal, resume=True))
        assert outcome.stats.executed == 0
        assert outcome.stats.cached == 4
        assert outcome.results == baseline
