"""Sweep execution: one attempt per point, a journal, crash isolation.

:func:`~repro.experiments.runner.run_sweep` answers "run these points";
this module answers the production question underneath it: run these
points and keep everything that finished — through a worker dying, or a
whole study killed halfway and restarted tomorrow.  Every point gets
exactly one attempt.  Points are deterministic (bit-identity is the
contract), so a point that raised would raise again, and no simulator
loop is unbounded.  The executor wraps the existing
:class:`~repro.experiments.runner.SweepPoint` machinery with three
guarantees:

* **Resume.**  With a journal (:mod:`repro.experiments.journal`), every
  completed point is committed the moment it finishes, keyed by a
  content hash of the point; a re-run loads completed points instead of
  recomputing them, and is bit-identical to an uninterrupted run.  This
  is the recovery story: re-run the command with the journal to finish
  what a crash or a kill left undone.
* **Isolation.**  Parallel execution goes through
  ``ProcessPoolExecutor`` *futures*, never ``pool.map``: one point's
  exception costs that point only.  A worker death breaks the whole
  pool, which cannot say whose point killed it, so the supervisor
  respawns the pool and re-runs every point that was in flight one at a
  time.  The point whose solo run breaks its pool again is the crashed
  point; it alone fails, with cause ``crash``.
* **Graceful degradation.**  By default a failed point becomes an entry
  in a structured :class:`SweepFailureReport` and a ``None`` in the
  result list; ``strict=True`` restores fail-fast.

Lifecycle is observable: the executor owns a
:class:`~repro.engine.hooks.HookRegistry` and fires ``exec_point`` /
``exec_crash`` (see docs/simulator.md); the telemetry bridge
(:class:`~repro.telemetry.recorder.ExecutorRecorder`) turns those into
typed trace events when ``trace_path`` is set.

Determinism: every point carries its own seed and runs on a simulator
in its freshly constructed state, so *when* and *where* a point
executes — serial, parallel, re-run alone after a sibling's crash,
loaded from a journal — never changes its result.  The crash tests
(which patch ``warm.run_point_warm``, see ``tests/chaos.py``) and the
property suite prove it.  Wall-clock is read only through the injected
``clock`` callable, keeping the determinism rules honest.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from time import monotonic as _monotonic
from typing import TYPE_CHECKING

from repro.engine.hooks import HookRegistry
from repro.errors import ConfigError, SweepExecutionError
from repro.experiments.journal import SweepJournal, point_key

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.experiments.runner import SweepPoint
    from repro.metrics.summary import RunResult

#: Failure causes carried by reports, hooks and the journal.
CAUSE_ERROR = "error"
CAUSE_CRASH = "crash"


@dataclass(frozen=True)
class ExecutionPlan:
    """How a sweep should be executed.

    Every point gets exactly one attempt.  The default plan has no
    journal and *degraded* completion (failures reported, siblings
    kept).  Pass ``strict=True`` for fail-fast.
    """

    #: Journal file path; ``None`` disables journaling (and resume).
    journal: str | Path | None = None
    #: Require ``journal`` to already exist (guards resume typos).
    resume: bool = False
    #: ``True`` restores fail-fast: the first failed point aborts the
    #: sweep (completed siblings stay journaled).
    strict: bool = False
    #: JSONL path for executor lifecycle trace events; ``None`` = off.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.resume and self.journal is None:
            raise ConfigError("resume=True needs a journal path")


@dataclass(frozen=True)
class PointFailure:
    """One point whose attempt failed."""

    label: str
    key: str
    #: ``error`` (the point raised) or ``crash`` (its run killed the
    #: worker process).
    cause: str
    #: Exception text.
    error: str
    #: Wall seconds the failed attempt took.
    elapsed: float


@dataclass(frozen=True)
class SweepFailureReport:
    """Structured account of everything a degraded sweep lost."""

    failures: tuple[PointFailure, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.failures)

    def summary(self) -> str:
        """Human-readable one-failure-per-line digest."""
        if not self.failures:
            return "no failures"
        return "\n".join(
            f"{failure.label}: [{failure.cause}] in "
            f"{failure.elapsed:.1f}s — {failure.error}"
            for failure in self.failures
        )


@dataclass
class ExecutorStats:
    """Counters describing how a sweep actually executed."""

    executed: int = 0
    cached: int = 0
    #: Worker-process deaths seen (each one breaks the pool it ran in).
    crashes: int = 0
    failed: int = 0


@dataclass
class SweepOutcome:
    """Everything a sweep produced.

    ``results`` is aligned with the input points; entries are ``None``
    exactly for the points listed in ``report`` (degraded mode only —
    strict mode raises instead of returning holes).
    """

    results: list["RunResult | None"]
    report: SweepFailureReport
    stats: ExecutorStats

    @property
    def complete(self) -> bool:
        return not self.report


def _run_point(point: "SweepPoint") -> "RunResult":
    """Run one point in this process (a pool worker or the supervisor).

    Module-level so process pools can pickle it.  The point runs through
    the per-process construction cache (:mod:`repro.experiments.warm`):
    each worker reruns the next structurally-matching point on the same
    reset fabric, bit-identical to a fresh build (hypothesis-tested), and
    a respawned worker simply starts with a cold cache.  The runner is
    looked up as a module attribute for every point, so a wrapper
    patched onto ``warm.run_point_warm`` is honoured.
    """
    from repro.experiments.warm import run_point_warm

    return run_point_warm(point)


@dataclass
class _Slot:
    """Supervisor-side bookkeeping for one point of the running sweep."""

    index: int
    point: "SweepPoint"
    key: str
    #: Indices sharing this slot's key (journal dedup), including index.
    indices: tuple[int, ...]
    #: Set when the point's attempt failed.
    failure: PointFailure | None = None
    exception: BaseException | None = None


class ResilientSweepExecutor:
    """Executes one sweep under an :class:`ExecutionPlan`.

    One instance per sweep; ``hooks`` may be shared so long-lived
    observers (a service's metrics exporter, say) can follow many
    sweeps.  ``clock`` is injectable so that wall time never leaks
    anywhere the determinism rules patrol.
    """

    def __init__(self, plan: ExecutionPlan | None = None, *,
                 max_workers: int | None = 1,
                 hooks: HookRegistry | None = None,
                 clock: Callable[[], float] = _monotonic):
        if max_workers is not None and max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1 or None, got {max_workers!r}"
            )
        self.plan = plan or ExecutionPlan()
        self.max_workers = max_workers
        self.hooks = hooks or HookRegistry()
        self.clock = clock
        self.stats = ExecutorStats()
        self._recorder = None
        if self.plan.trace_path is not None:
            from repro.telemetry.recorder import ExecutorRecorder

            self._recorder = ExecutorRecorder(self.plan.trace_path)
            self._recorder.attach(self.hooks)

    # -- public API ------------------------------------------------------------

    def execute(self, points: Iterable["SweepPoint"]) -> SweepOutcome:
        """Run every point; never raises in degraded mode.

        Strict mode re-raises the first failed point's exception
        (:class:`ConfigError` gains the point label;
        worker crashes surface as :class:`SweepExecutionError`).
        """
        points = list(points)
        journal = self._open_journal()
        try:
            results: list[RunResult | None] = [None] * len(points)
            slots = self._build_slots(points, journal, results)
            if slots:
                workers = self._worker_count(len(slots))
                if workers == 1:
                    self._run_serial(slots, results, journal)
                else:
                    self._run_parallel(slots, results, journal, workers)
            report = SweepFailureReport(failures=tuple(
                slot.failure for slot in slots if slot.failure is not None
            ))
            if self.plan.strict and report:
                self._raise_strict(report, slots)
            return SweepOutcome(results=results, report=report,
                                stats=self.stats)
        finally:
            if journal is not None:
                journal.close()
            if self._recorder is not None:
                self._recorder.close()
                self._recorder = None

    # -- setup -----------------------------------------------------------------

    def _open_journal(self) -> SweepJournal | None:
        if self.plan.journal is None:
            return None
        path = Path(self.plan.journal)
        if self.plan.resume and not path.exists():
            raise ConfigError(
                f"--resume requested but journal {path} does not exist"
            )
        return SweepJournal(path)

    def _worker_count(self, pending: int) -> int:
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, pending))

    def _build_slots(self, points: Sequence["SweepPoint"],
                     journal: SweepJournal | None,
                     results: list["RunResult | None"]) -> list[_Slot]:
        """Resolve journal hits and dedup same-key points; returns the
        slots that still need executing."""
        slots: list[_Slot] = []
        by_key: dict[str, list[int]] = {}
        keys: list[str] = []
        for index, point in enumerate(points):
            key = point_key(point) if journal is not None else f"#{index}"
            keys.append(key)
            by_key.setdefault(key, []).append(index)
        seen: set[str] = set()
        for index, point in enumerate(points):
            key = keys[index]
            if key in seen:
                continue
            seen.add(key)
            indices = tuple(by_key[key])
            if journal is not None:
                cached = journal.get(key)
                if cached is not None:
                    for slot_index in indices:
                        results[slot_index] = cached
                        self.stats.cached += 1
                        self._fire_point(points[slot_index].label, key,
                                         "cached", 0, 0.0)
                    continue
            slots.append(_Slot(index=index, point=point, key=key,
                               indices=indices))
        return slots

    # -- serial path -----------------------------------------------------------

    def _run_serial(self, slots: list[_Slot],
                    results: list["RunResult | None"],
                    journal: SweepJournal | None) -> None:
        for slot in slots:
            started = self.clock()
            try:
                result = _run_point(slot.point)
            except Exception as exc:
                self._fail(slot, CAUSE_ERROR, exc, self.clock() - started,
                           journal)
                if self.plan.strict:
                    break  # Fail fast: later slots are never attempted.
            else:
                self._complete(slot, result, self.clock() - started,
                               results, journal)

    # -- parallel path ---------------------------------------------------------

    def _run_parallel(self, slots: list[_Slot],
                      results: list["RunResult | None"],
                      journal: SweepJournal | None, workers: int) -> None:
        queue = deque(slots)
        inflight: dict[Future, tuple[_Slot, float]] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while queue or inflight:
                broken = False
                while queue and len(inflight) < workers:
                    slot = queue.popleft()
                    try:
                        future = pool.submit(_run_point, slot.point)
                    except BrokenProcessPool:
                        # A worker died between rounds, so the breakage
                        # surfaces here: this point never started.
                        queue.appendleft(slot)
                        broken = True
                        break
                    inflight[future] = (slot, self.clock())
                if not broken:
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in sorted(done,
                                         key=lambda f: inflight[f][0].index):
                        slot, started = inflight[future]
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True  # stays in flight: it is lost
                            continue
                        except Exception as exc:
                            self._fail(slot, CAUSE_ERROR, exc,
                                       self.clock() - started, journal)
                        else:
                            self._complete(slot, result,
                                           self.clock() - started, results,
                                           journal)
                        del inflight[future]
                if broken:
                    # The pool marks every in-flight future broken on any
                    # worker death, so every one of them is lost.
                    pool.shutdown(wait=False, cancel_futures=True)
                    lost = sorted(inflight.values(),
                                  key=lambda entry: entry[0].index)
                    inflight.clear()
                    self._rerun_alone(lost, results, journal)
                    pool = ProcessPoolExecutor(max_workers=workers)
                if self.plan.strict and self.stats.failed:
                    queue.clear()  # Fail fast: drain what runs, stop there.
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _rerun_alone(self, lost: list[tuple[_Slot, float]],
                     results: list["RunResult | None"],
                     journal: SweepJournal | None) -> None:
        """Re-run, one at a time, the points a broken pool lost.

        Each lost point runs alone in a fresh one-worker pool.  A point
        whose solo run breaks that pool too is the crashed point and
        fails with cause ``crash``; the others are not charged an
        attempt (the journal logs the attempt they lost as ``lost``).
        """
        self.stats.crashes += 1
        for slot, started in lost:
            self._fire_crash(slot.point.label, slot.key, 1, CAUSE_CRASH)
            if journal is not None:
                journal.record_attempt(slot.key, slot.point.label, 1,
                                       "lost", CAUSE_CRASH,
                                       self.clock() - started)
        for slot, _ in lost:
            started = self.clock()
            with ProcessPoolExecutor(max_workers=1) as pool:
                future = pool.submit(_run_point, slot.point)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    self.stats.crashes += 1
                    self._fire_crash(slot.point.label, slot.key, 1,
                                     CAUSE_CRASH)
                    self._fail(slot, CAUSE_CRASH, exc,
                               self.clock() - started, journal)
                except Exception as exc:
                    self._fail(slot, CAUSE_ERROR, exc,
                               self.clock() - started, journal)
                else:
                    self._complete(slot, result, self.clock() - started,
                                   results, journal)

    # -- shared bookkeeping ----------------------------------------------------

    def _complete(self, slot: _Slot, result: "RunResult", elapsed: float,
                  results: list["RunResult | None"],
                  journal: SweepJournal | None) -> None:
        self.stats.executed += 1
        for index in slot.indices:
            results[index] = result
        if journal is not None:
            journal.record_done(slot.key, slot.point.label, result, 1,
                                elapsed, attempt_elapsed=elapsed)
        self._fire_point(slot.point.label, slot.key, "done", 1, elapsed)

    def _fail(self, slot: _Slot, cause: str, exc: BaseException,
              elapsed: float, journal: SweepJournal | None) -> None:
        error = f"{type(exc).__name__}: {exc}"
        slot.exception = exc
        slot.failure = PointFailure(label=slot.point.label, key=slot.key,
                                    cause=cause, error=error,
                                    elapsed=elapsed)
        self.stats.failed += 1
        if journal is not None:
            journal.record_failed(slot.key, slot.point.label, 1, error,
                                  elapsed, cause=cause,
                                  attempt_elapsed=elapsed)
        self._fire_point(slot.point.label, slot.key, "failed", 1, elapsed)

    def _raise_strict(self, report: SweepFailureReport,
                      slots: list[_Slot]) -> None:
        """Fail-fast: surface the lowest-index failed point's error."""
        slot = next(slot for slot in slots if slot.failure is not None)
        exc = slot.exception
        label = slot.point.label
        if isinstance(exc, ConfigError):
            raise ConfigError(f"sweep point {label!r}: {exc}") from exc
        if slot.failure.cause == CAUSE_CRASH:
            raise SweepExecutionError(
                f"sweep point {label!r} killed its worker process: {exc}",
                report,
            ) from exc
        assert exc is not None
        raise exc

    # -- hook fire sites -------------------------------------------------------

    def _fire_point(self, label: str, key: str, status: str, attempt: int,
                    elapsed: float) -> None:
        for callback in self.hooks.exec_point:
            callback(label, key, status, attempt, elapsed)

    def _fire_crash(self, label: str, key: str, attempt: int,
                    cause: str) -> None:
        for callback in self.hooks.exec_crash:
            callback(label, key, attempt, cause)


def execute_sweep(points: Iterable["SweepPoint"], *,
                  max_workers: int | None = 1,
                  plan: ExecutionPlan | None = None,
                  hooks: HookRegistry | None = None,
                  clock: Callable[[], float] = _monotonic) -> SweepOutcome:
    """Run a sweep under ``plan``; the module's one-call entry point."""
    executor = ResilientSweepExecutor(plan, max_workers=max_workers,
                                      hooks=hooks, clock=clock)
    return executor.execute(points)
