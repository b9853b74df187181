"""Self-test of the benchmark: quick runs of every workload.

    python3 simbench/selftest.py

Runs each workload briefly (``--seconds 1``: three repetitions), untraced
and traced, and asserts that every run passes its output checks and emits
exactly the metric names and units ``BENCHMARK.json`` declares.  That
includes ``uniform_heavy``, which ``BENCHMARK.json`` does not list.  Then
copies only ``BENCHMARK.json`` and the benchmark's own files into an empty
directory and asserts that a run there fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "simbench")]
from workloads import WORKLOADS  # noqa: E402
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_workload(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}, emitted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    print(f"ok  {workload} --trace {trace}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
