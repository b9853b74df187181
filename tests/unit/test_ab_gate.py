"""Unit tests for the A/B benchmark gate's decision (benchmarks/ab_gate.py)."""

import importlib.util
import json
import subprocess
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "ab_gate", _ROOT / "benchmarks" / "ab_gate.py")
ab_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_gate)


def record(cpu_s: float, correct: bool = True, failed: int = 0,
           digest: str = "d1") -> dict:
    """A simbench result object with only the fields the gate reads."""
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"cpu_s": {"value": cpu_s, "unit": "s"}},
            "info": {"workload": "w", "seed": 1, "digest": [digest]}}


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


def test_digests_are_reported_not_gated():
    same = (record(1.0), record(1.0))
    changed = (record(1.0), record(1.0, digest="d2"))
    assert ab_gate.digest_note(*same) == "digest equal"
    assert ab_gate.digest_note(*changed) == "digest CHANGED"
    assert ab_gate.verdict("w", [changed] * 5) == []


def test_run_simbench_reads_the_info_line(tmp_path, monkeypatch):
    info = {"workload": "w", "seed": 3, "digest": ["abc"], "host": {}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    stdout = json.dumps({"info": info}) + "\n" + json.dumps(result) + "\n"

    def fake_run(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, stdout, "")

    monkeypatch.setattr(ab_gate.subprocess, "run", fake_run)
    got = ab_gate.run_simbench(tmp_path, "w", 3)
    assert got["info"]["digest"] == ["abc"]
    assert got["correct"] is True



class FakeGit:
    """Stands in for ``subprocess.run``: records every command and answers
    ``git status`` with ``status``."""

    def __init__(self, status: str = ""):
        self.status = status
        self.commands: list[list[str]] = []

    def __call__(self, command, **kwargs):
        self.commands.append(list(command))
        stdout = self.status if command[:2] == ["git", "status"] else ""
        return subprocess.CompletedProcess(command, 0, stdout, "")

    def worktrees(self, verb: str) -> list[list[str]]:
        return [c for c in self.commands if c[:3] == ["git", "worktree", verb]]


def test_head_runs_from_a_worktree_beside_base(monkeypatch):
    git = FakeGit()
    checkouts = []

    def fake_simbench(checkout, workload, seed):
        checkouts.append(checkout)
        return record(1.0)

    monkeypatch.setattr(ab_gate.subprocess, "run", git)
    monkeypatch.setattr(ab_gate, "run_simbench", fake_simbench)
    assert ab_gate.main(["base-rev"]) == 0
    added = git.worktrees("add")
    assert [command[-1] for command in added] == ["base-rev", "HEAD"]
    assert all("--detach" in command for command in added)
    base_dir, head_dir = (Path(command[-2]) for command in added)
    assert base_dir.parent == head_dir.parent
    assert set(checkouts) == {base_dir, head_dir}
    assert ab_gate.ROOT not in checkouts
    assert len(checkouts) == 2 * len(ab_gate.SEEDS) * len(ab_gate.WORKLOADS)
    removed = {Path(command[-1]) for command in git.worktrees("remove")}
    assert removed == {base_dir, head_dir}


def test_uncommitted_measured_changes_are_refused(monkeypatch, capsys):
    git = FakeGit(status=" M src/repro/network/simulator.py\n")

    def fake_simbench(checkout, workload, seed):  # pragma: no cover
        raise AssertionError("no benchmark may run on a dirty tree")

    monkeypatch.setattr(ab_gate.subprocess, "run", git)
    monkeypatch.setattr(ab_gate, "run_simbench", fake_simbench)
    assert ab_gate.main(["base-rev"]) == 2
    assert "uncommitted changes" in capsys.readouterr().err
    assert git.worktrees("add") == []
    [status] = [c for c in git.commands if c[:2] == ["git", "status"]]
    assert status[-2:] == list(ab_gate.MEASURED_PATHS)
