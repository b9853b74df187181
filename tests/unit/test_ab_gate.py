"""Unit tests for the A/B benchmark gate's decision (benchmarks/ab_gate.py)."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "ab_gate", _ROOT / "benchmarks" / "ab_gate.py")
ab_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_gate)


def record(cpu_s: float, correct: bool = True, failed: int = 0) -> dict:
    """A simbench result object with only the fields the gate reads."""
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"cpu_s": {"value": cpu_s, "unit": "s"}}}


def pairs_at(ratios: list[float]) -> list[tuple[dict, dict]]:
    return [(record(1.0), record(ratio)) for ratio in ratios]


def test_equal_runs_pass():
    assert ab_gate.verdict("w", pairs_at([1.0] * 5)) == []


def test_noise_inside_the_bound_passes():
    assert ab_gate.verdict("w", pairs_at([0.9, 1.2, 1.01, 0.97, 1.03])) == []


def test_a_fifteen_percent_slowdown_fails():
    reasons = ab_gate.verdict("w", pairs_at([1.15] * 5))
    assert len(reasons) == 1
    assert "median head/base cpu_s ratio 1.150" in reasons[0]


def test_the_median_not_the_mean_decides():
    # One pair slowed by a burst of host load does not fail the gate;
    # a slowdown in most pairs does.
    assert ab_gate.verdict("w", pairs_at([1.0, 1.0, 1.0, 1.0, 3.0])) == []
    assert ab_gate.verdict("w", pairs_at([1.0, 1.0, 1.15, 1.15, 1.15]))


def test_an_incorrect_head_run_fails():
    pairs = pairs_at([1.0] * 5)
    pairs[2] = (record(1.0), record(1.0, correct=False, failed=1))
    reasons = ab_gate.verdict("w", pairs)
    assert any("head run is not correct" in r for r in reasons)


def test_more_head_failures_than_base_fail():
    pairs = pairs_at([1.0] * 5)
    pairs[0] = (record(1.0, correct=False, failed=1),
                record(1.0, correct=False, failed=2))
    reasons = ab_gate.verdict("w", pairs)
    assert any("head failed 2 operations, base 1" in r for r in reasons)


def test_the_gate_runs_the_benchmark_workloads():
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())
    assert ab_gate.WORKLOADS == tuple(
        w["name"] for w in declared["workloads"])
