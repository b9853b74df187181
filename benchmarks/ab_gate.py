"""Same-machine A/B benchmark gate: this checkout against a base revision.

    python3 benchmarks/ab_gate.py BASE_REV

Run from the root of a git checkout whose history holds ``BASE_REV``.
The gate checks ``BASE_REV`` and ``HEAD`` out as two detached git
worktrees side by side under one temporary directory, so both sides run
from the same kind of path, and then alternates unmodified simbench
runs of base and head
(``python3 simbench/run.py --workload W --seed S --seconds SECONDS``),
one pair per workload and seed, the pair's order flipping from seed to
seed.  Head is the committed ``HEAD``: the gate refuses to start (exit
2) while ``src/`` or ``simbench/`` has uncommitted changes, which its
worktree would not contain.  It reads each run's last stdout line and
fails (exit 1) when, on any workload,

- the median of the paired head/base ``cpu_s`` ratios exceeds
  ``1 + BOUND``;
- a head run reports ``correct: false``; or
- a head run reports more failed operations than its base partner.

It also reports, per workload and seed, whether head's simulated-
statistics digest (simbench's info line, the one before the result)
equals base's.  A changed digest is printed, not failed on: a change
that means to alter behaviour changes it.

Both sides of a pair run back to back on the same machine, so host speed
cancels out of the ratio: there is no calibration score and no committed
baseline to re-record.  docs/performance.md records how ``BOUND``,
``SECONDS`` and the pair count were chosen.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workloads ``BENCHMARK.json`` lists.
WORKLOADS = ("splash_trace", "figure_sweep")
#: One base/head pair per seed and workload (simbench's held-out seeds).
SEEDS = (101, 102, 103, 104, 105, 106, 107)
#: ``--seconds`` of every run: seven to ten repetitions of either workload.
SECONDS = 10
#: The trees a simbench run reads: uncommitted changes here would be
#: measured by nobody, so the gate refuses to start.
MEASURED_PATHS = ("src", "simbench")
#: Largest tolerated median head/base ``cpu_s`` ratio, minus one: above
#: every median of identical trees measured on a shared 2-CPU host
#: (highest 1.084), below the 15% slowdown the gate is meant to catch.
BOUND = 0.10


def run_simbench(checkout: Path, workload: str, seed: int) -> dict:
    """One simbench run in ``checkout``: its result object (last line),
    with the info line before it under ``"info"``."""
    command = [sys.executable, "simbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"simbench {workload} seed {seed} in {checkout} exited "
            f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def cpu_ratio(base: dict, head: dict) -> float:
    return head["metrics"]["cpu_s"]["value"] / base["metrics"]["cpu_s"]["value"]


def digest_note(base: dict, head: dict) -> str:
    """Whether head's simulated-statistics digest equals base's."""
    if head["info"]["digest"] == base["info"]["digest"]:
        return "digest equal"
    return "digest CHANGED"


def median_ratio(pairs: list[tuple[dict, dict]]) -> float:
    return statistics.median(cpu_ratio(base, head) for base, head in pairs)


def verdict(workload: str, pairs: list[tuple[dict, dict]]) -> list[str]:
    """Why head fails against base on ``workload``; empty when it passes.

    ``pairs`` holds (base, head) result objects, one per seed.
    """
    reasons = []
    median = median_ratio(pairs)
    if median > 1 + BOUND:
        reasons.append(f"{workload}: median head/base cpu_s ratio "
                       f"{median:.3f} exceeds {1 + BOUND:.2f}")
    for index, (base, head) in enumerate(pairs):
        if not head["correct"]:
            reasons.append(f"{workload} pair {index}: head run is not correct")
        if head["failed"] > base["failed"]:
            reasons.append(f"{workload} pair {index}: head failed "
                           f"{head['failed']} operations, base "
                           f"{base['failed']}")
    return reasons


def uncommitted_changes() -> list[str]:
    """``git status --porcelain`` lines for the measured trees."""
    proc = subprocess.run(["git", "status", "--porcelain", "--",
                           *MEASURED_PATHS], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 benchmarks/ab_gate.py BASE_REV", file=sys.stderr)
        return 2
    dirty = uncommitted_changes()
    if dirty:
        print("refusing to run: uncommitted changes under "
              f"{' or '.join(MEASURED_PATHS)} would not be measured; "
              "commit or stash them first:\n  " + "\n  ".join(dirty),
              file=sys.stderr)
        return 2
    pairs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as scratch:
        base_dir, head_dir = Path(scratch) / "base", Path(scratch) / "head"
        added: list[Path] = []
        try:
            for checkout, rev in ((base_dir, argv[0]), (head_dir, "HEAD")):
                subprocess.run(["git", "worktree", "add", "--detach",
                                str(checkout), rev], cwd=ROOT, check=True)
                added.append(checkout)
            for index, seed in enumerate(SEEDS):
                for workload in WORKLOADS:
                    order = [base_dir, head_dir] if index % 2 == 0 else [
                        head_dir, base_dir]
                    runs = {checkout: run_simbench(checkout, workload, seed)
                            for checkout in order}
                    base, head = runs[base_dir], runs[head_dir]
                    pairs[workload].append((base, head))
                    print(f"{workload} seed {seed}: base cpu_s "
                          f"{base['metrics']['cpu_s']['value']:.3f}, head "
                          f"{head['metrics']['cpu_s']['value']:.3f}, ratio "
                          f"{cpu_ratio(base, head):.3f}, "
                          f"{digest_note(base, head)}", flush=True)
        finally:
            for checkout in added:
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(checkout)], cwd=ROOT, check=False)
    reasons = [reason for workload in WORKLOADS
               for reason in verdict(workload, pairs[workload])]
    for workload in WORKLOADS:
        print(f"{workload}: median head/base cpu_s ratio "
              f"{median_ratio(pairs[workload]):.3f} (bound {1 + BOUND:.2f})")
    for reason in reasons:
        print(f"FAIL {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
