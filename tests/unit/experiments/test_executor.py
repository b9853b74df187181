"""Unit tests for the sweep executor (serial paths).

Parallel and crash recovery live in
tests/integration/test_executor_chaos.py; these tests cover plan
validation, failure accounting, journaling, dedup, hooks and the strict
vs degraded contract — all in-process, so they are fast.
"""

import json
from dataclasses import dataclass, fields

import pytest

from repro.engine.hooks import HookRegistry
from repro.errors import ConfigError
from repro.experiments.executor import (
    ExecutionPlan,
    ResilientSweepExecutor,
    SweepOutcome,
    execute_sweep,
)
from repro.experiments.runner import run_sweep

from tests.chaos import inject
from tests.sweeputil import run_fresh, tiny_point


@dataclass(frozen=True)
class MisconfiguredFactory:
    """A picklable traffic factory that refuses to build."""

    def __call__(self, num_nodes, seed):
        raise ConfigError("rate table is empty")


class TestExecutionPlan:
    @pytest.mark.parametrize("kwargs", [
        {"resume": True},  # resume without a journal path
    ], ids=lambda kwargs: next(iter(kwargs)))
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutionPlan(**kwargs)

    def test_one_attempt_per_point_has_no_knobs(self):
        assert [field.name for field in fields(ExecutionPlan)] == \
            ["journal", "resume", "strict", "trace_path"]


class TestValidation:
    def test_executor_rejects_bad_worker_count(self):
        with pytest.raises(ConfigError, match="max_workers"):
            ResilientSweepExecutor(max_workers=0)

    def test_run_sweep_validates_workers_before_listing_points(self):
        consumed = []

        def points():
            consumed.append(True)
            yield tiny_point()

        with pytest.raises(ConfigError, match="max_workers"):
            run_sweep(points(), max_workers=0)
        assert not consumed


class TestSerialExecution:
    def test_results_align_with_points(self):
        points = [tiny_point(label=f"p{i}", seed=i + 1) for i in range(3)]
        outcome = execute_sweep(points)
        assert isinstance(outcome, SweepOutcome)
        assert outcome.complete
        assert not outcome.report
        assert [r.label for r in outcome.results] == ["p0", "p1", "p2"]
        assert outcome.stats.executed == 3
        assert outcome.stats.cached == 0
        assert outcome.results == [run_fresh(p) for p in points]

    def test_journal_dedups_identical_points_within_a_sweep(self, tmp_path):
        plan = ExecutionPlan(journal=tmp_path / "j.sqlite")
        point = tiny_point(label="dup")
        outcome = execute_sweep([point, point], plan=plan)
        assert outcome.stats.executed == 1
        assert outcome.results[0] == outcome.results[1]
        assert outcome.results[0] is not None

    def test_resume_serves_journal_and_is_bit_identical(self, tmp_path):
        points = [tiny_point(label=f"p{i}", seed=i + 1) for i in range(3)]
        journal = tmp_path / "j.sqlite"
        first = execute_sweep(points, plan=ExecutionPlan(journal=journal))
        events = []
        hooks = HookRegistry()
        hooks.add("exec_point",
                  lambda label, key, status, attempt, elapsed:
                  events.append((label, status, attempt)))
        second = execute_sweep(
            points, plan=ExecutionPlan(journal=journal, resume=True),
            hooks=hooks)
        assert second.stats.executed == 0
        assert second.stats.cached == 3
        assert second.results == first.results
        assert events == [("p0", "cached", 0), ("p1", "cached", 0),
                          ("p2", "cached", 0)]

    def test_one_journal_commit_per_executed_point(self, monkeypatch,
                                                   tmp_path):
        # A finished point's final attempt row and its points row share
        # one transaction, whether the point is done or failed.
        statements = []
        open_journal = ResilientSweepExecutor._open_journal

        def traced(executor):
            journal = open_journal(executor)
            journal._conn.set_trace_callback(statements.append)
            return journal

        monkeypatch.setattr(ResilientSweepExecutor, "_open_journal", traced)
        points = [tiny_point(label=f"p{i}", seed=i + 1) for i in range(3)]
        points.append(tiny_point(label="doomed", seed=4))
        with inject("oom", "doomed"):
            outcome = execute_sweep(
                points, plan=ExecutionPlan(journal=tmp_path / "j.sqlite"))
        assert outcome.stats.executed == 3
        assert outcome.stats.failed == 1
        assert statements.count("COMMIT") == len(points)

    def test_resume_requires_existing_journal(self, tmp_path):
        plan = ExecutionPlan(journal=tmp_path / "absent.sqlite",
                             resume=True)
        with pytest.raises(ConfigError, match="does not exist"):
            execute_sweep([tiny_point()], plan=plan)


class TestRetriesAndDegradation:
    """One attempt per point: a failed point degrades, nothing retries."""

    def test_exhausted_point_degrades_without_losing_siblings(
            self, tmp_path):
        plan = ExecutionPlan(journal=tmp_path / "j.sqlite")
        points = [tiny_point(label="p0"), tiny_point(label="doomed", seed=2),
                  tiny_point(label="p2", seed=3)]
        with inject("oom", "doomed"):
            outcome = execute_sweep(points, plan=plan)
        assert not outcome.complete
        assert outcome.results[0] == run_fresh(points[0])
        assert outcome.results[1] is None
        assert outcome.results[2] == run_fresh(points[2])
        assert outcome.stats.executed == 2
        assert outcome.stats.failed == 1
        [failure] = outcome.report.failures
        assert failure.label == "doomed"
        assert failure.cause == "error"
        assert "MemoryError" in failure.error
        assert "doomed" in outcome.report.summary()
        # The journal agrees: siblings done, the doomed point failed once.
        from repro.experiments.journal import SweepJournal
        with SweepJournal(tmp_path / "j.sqlite") as j:
            assert j.counts() == {"done": 2, "failed": 1}
            [failed] = j.failures()
            assert failed["attempts"] == 1

    def test_hooks_see_the_whole_lifecycle(self):
        hooks = HookRegistry()
        points_seen = []
        hooks.add("exec_point",
                  lambda label, key, status, attempt, elapsed:
                  points_seen.append((label, status, attempt)))
        with inject("error", "flaky"):
            execute_sweep([tiny_point(label="flaky"),
                           tiny_point(label="solid", seed=2)], hooks=hooks)
        assert points_seen == [("flaky", "failed", 1), ("solid", "done", 1)]

    def test_trace_path_writes_lifecycle_events(self, tmp_path):
        trace = tmp_path / "exec.jsonl"
        plan = ExecutionPlan(trace_path=str(trace))
        execute_sweep([tiny_point(label="traced")], plan=plan)
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert [(r["kind"], r["label"], r["status"]) for r in records] == \
            [("exec_point", "traced", "done")]


class TestStrictMode:
    def test_strict_reraises_the_injected_error(self):
        plan = ExecutionPlan(strict=True)
        with inject("error", "bad"), \
                pytest.raises(RuntimeError, match="injected error"):
            execute_sweep([tiny_point(label="bad")], plan=plan)

    def test_strict_config_error_names_the_point(self):
        from dataclasses import replace
        point = replace(tiny_point(label="built-wrong"),
                        traffic_factory=MisconfiguredFactory())
        with pytest.raises(ConfigError,
                           match="sweep point 'built-wrong'.*rate table"):
            run_sweep([point])  # legacy path defaults to strict

    def test_run_sweep_degraded_returns_none_gaps(self):
        with inject("error", "bad"):
            results = run_sweep(
                [tiny_point(label="good"), tiny_point(label="bad", seed=2)],
                execution=ExecutionPlan())
        assert results[0] is not None
        assert results[1] is None
