"""Benchmark entry point: one workload, one seed, one fresh interpreter.

    python3 simbench/run.py --workload splash_trace --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The run

1. builds the workload's inputs from ``--seed`` (this process's set-up);
2. measures set-up time: it starts ``SETUP_PROBES`` fresh interpreters one
   after another, each importing the simulator and building the same
   inputs, and takes the median time from spawn to the first call into a
   simulator layer;
3. repeats the workload's job serially, in this one process, until
   ``--seconds`` have passed (at least ``MIN_REPS`` times), checking every
   repetition's outputs and reporting the fastest repetition.

With ``--trace 1`` the first half of the time runs untraced and the
second half traced (see ``tracing.py``); the traced digest must equal the
untraced one.  The last line of standard output is the result object;
the line before it carries host facts and the simulated-statistics
digest.  Outputs (result record, Chrome trace, per-layer table, the
workload's scratch journal) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SRC = ROOT / "src"

#: Fresh interpreters started to measure set-up time.
SETUP_PROBES = 5
#: Fewest repetitions a run measures, however short ``--seconds`` is.
MIN_REPS = 3
#: A repetition still running after this many seconds counts as failed.
REP_TIMEOUT_S = 60.0

UNITS = {"wall_s": "s", "cpu_s": "s", "sim_cycles_per_s": "1/s",
         "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class RepTimeout(BaseException):
    """A repetition ran past ``REP_TIMEOUT_S``.  Not an ``Exception``, so
    the sweep executor's per-point error handling cannot absorb it."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup(args: argparse.Namespace):
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads, workloads.build(args.workload, args.seed,
                                      out_dir=OUT_DIR)


def _probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _on_alarm(signum, frame):
    raise RepTimeout(f"repetition exceeded {REP_TIMEOUT_S:g} s")


def _measure(workloads, workload, seconds: float, min_reps: int,
             span=None) -> list[dict]:
    """Repeat the job for ``seconds`` (at least ``min_reps`` times)."""
    span = span or (lambda name: nullcontext())
    deadline = time.perf_counter() + seconds
    reps: list[dict] = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        while len(reps) < min_reps or time.perf_counter() < deadline:
            workloads.prepare()
            gc.collect()
            signal.setitimer(signal.ITIMER_REAL, REP_TIMEOUT_S)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                rep = workload.run_once(span)
                error = None
            except (Exception, RepTimeout) as exc:  # an operation raised
                rep, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if rep is None:
                reps.append({"wall": wall, "cpu": cpu, "attempted":
                             workload.operations, "failed":
                             workload.operations, "errors": [error]})
                break
            reps.append({"wall": wall, "cpu": cpu,
                         "attempted": rep.operations,
                         "failed": len(rep.failures),
                         "errors": rep.failures[:5],
                         "sim_cycles": rep.sim_cycles, "points": rep.points,
                         "digest": rep.digest})
    finally:
        signal.signal(signal.SIGALRM, previous)
    return reps


def _host_facts() -> dict:
    online = Path("/sys/devices/system/cpu/online")
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_online": online.read_text().strip() if online.exists() else None,
        "load_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_sha256": sources.hexdigest(),
    }


def _git_rev() -> str | None:
    """HEAD's commit when the checkout is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def _end_to_end(reps: list[dict], setup: list[float]) -> dict[str, float]:
    """Each timing as its fastest repetition, each rate as its highest.

    Interference from other tenants of a shared host only ever slows a
    repetition, in bursts of seconds that can cover most of a run, so the
    median repetition moves with the neighbours' load while the fastest
    one tracks the code's own cost.
    """
    ok = [r for r in reps if "digest" in r] or reps
    return {
        "wall_s": min(r["wall"] for r in ok),
        "cpu_s": min(r["cpu"] for r in ok),
        "sim_cycles_per_s": max(r.get("sim_cycles", 0) / r["wall"] for r in ok),
        "points_per_s": max(r.get("points", 0) / r["wall"] for r in ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    workloads, workload = _setup(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    try:
        setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        facts = _host_facts()
        if args.trace:
            from tracing import LAYER_UNITS, Tracer

            reps = _measure(workloads, workload, args.seconds / 2, 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _measure(workloads, workload, args.seconds / 2, 1,
                                  span=tracer.span)
            finally:
                tracer.uninstall()
        else:
            reps = _measure(workloads, workload, args.seconds, MIN_REPS)
            traced = []
    finally:
        workload.close()
    facts["load_1m_end"] = os.getloadavg()[0]

    every = reps + traced
    digests = {r.get("digest") for r in every}
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    if len(digests) > 1:
        # Equal inputs must give equal statistics: warm == cold across
        # repetitions, traced == untraced.
        failed += sum(r["attempted"] - r["failed"] for r in every)
    correct = failed == 0
    if args.trace:
        ok = [r for r in traced if "digest" in r] or traced
        metrics = tracer.layer_metrics(
            reps=len(ok), points_requested=workload.operations,
            traced_wall=min(r["wall"] for r in ok),
            untraced_wall=_end_to_end(reps, setup)["wall_s"])
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (OUT_DIR / f"{stem}.trace.json").write_text(
            json.dumps(tracer.chrome_trace()))
        (OUT_DIR / f"{stem}.layers.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True))
        result_metrics = {k: {"value": metrics[k], "unit": unit}
                          for k, unit in LAYER_UNITS.items()}
    else:
        result_metrics = {k: {"value": v, "unit": UNITS[k]}
                          for k, v in _end_to_end(reps, setup).items()}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "digest": sorted(d for d in digests if d),
            "setup_samples": setup, "reps": every, "host": facts}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"info": info, "metrics": result_metrics},
                             indent=2))
    print(json.dumps({"info": {k: info[k] for k in
                               ("workload", "seed", "digest", "host")}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
