"""Fault-tolerant sweep execution: journal, timeouts, retries, recovery.

:func:`~repro.experiments.runner.run_sweep` answers "run these points";
this module answers the production question underneath it: run these
points **and survive** — a worker segfaulting, a point wedging forever,
a whole study killed halfway and restarted tomorrow.  The executor wraps
the existing :class:`~repro.experiments.runner.SweepPoint` machinery
with four guarantees:

* **Resume.**  With a journal (:mod:`repro.experiments.journal`), every
  completed point is committed the moment it finishes, keyed by a
  content hash of the point; a re-run loads completed points instead of
  recomputing them, and is bit-identical to an uninterrupted run.
* **Isolation.**  Parallel execution goes through
  ``ProcessPoolExecutor`` *futures*, never ``pool.map``: one point's
  exception, crash or hang costs that point (plus a bounded retry), not
  its siblings' results.  A broken pool is respawned and undelivered
  work resubmitted.
* **Timeouts and retries.**  A per-attempt wall-clock timeout is
  enforced twice — a ``SIGALRM`` guard inside the worker (cheap, exact)
  and a hard supervisor deadline that kills and respawns the pool when
  a worker is so wedged the alarm cannot fire.  Failed attempts retry
  with exponential backoff, up to ``retries`` times.
* **Graceful degradation.**  By default an exhausted point becomes an
  entry in a structured :class:`SweepFailureReport` and a ``None`` in
  the result list; ``strict=True`` restores fail-fast.

Lifecycle is observable: the executor owns a
:class:`~repro.engine.hooks.HookRegistry` and fires ``exec_point`` /
``exec_retry`` / ``exec_crash`` (see docs/simulator.md); the telemetry
bridge (:class:`~repro.telemetry.recorder.ExecutorRecorder`) turns those
into typed trace events when ``trace_path`` is set.

Determinism: every point carries its own seed and runs in a fresh
simulator, so *when* and *where* a point executes — serial, parallel,
after three crashes, loaded from a journal — never changes its result.
The chaos harness (:mod:`repro.experiments.chaos`) plus the property
suite prove it.  Wall-clock is read only through the injected ``clock``
/ ``sleep`` callables, keeping the determinism rules honest.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import TYPE_CHECKING

from repro.engine.hooks import HookRegistry
from repro.errors import ConfigError, PointTimeoutError, SweepExecutionError
from repro.experiments.journal import SweepJournal, point_key

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.experiments.runner import SweepPoint
    from repro.metrics.summary import RunResult

#: Failure causes threaded through retries, hooks and reports.
CAUSE_ERROR = "error"
CAUSE_TIMEOUT = "timeout"
CAUSE_CRASH = "crash"


@dataclass(frozen=True)
class ExecutionPlan:
    """How a sweep should be executed (the resilience knobs).

    The default plan is maximally conservative about behaviour change:
    no journal, no timeout, no retries — exactly one attempt per point —
    but *degraded* completion (failures reported, siblings kept).  Pass
    ``strict=True`` for fail-fast.
    """

    #: Journal file path; ``None`` disables journaling (and resume).
    journal: str | Path | None = None
    #: Require ``journal`` to already exist (guards resume typos).
    resume: bool = False
    #: Per-attempt wall-clock budget, seconds; ``None`` = unbounded.
    timeout: float | None = None
    #: Extra retries after the first attempt (0 = single attempt).
    retries: int = 0
    #: Base backoff delay, seconds; attempt ``n`` waits
    #: ``backoff * 2**(n-1)`` (capped) before re-running.
    backoff: float = 0.5
    #: Upper bound on one backoff delay, seconds.
    backoff_cap: float = 30.0
    #: Seconds past ``timeout`` before the supervisor hard-kills a
    #: worker that the in-worker alarm failed to unwedge.
    grace: float = 2.0
    #: ``True`` restores fail-fast: the first exhausted point aborts the
    #: sweep (completed siblings stay journaled).
    strict: bool = False
    #: JSONL path for executor lifecycle trace events; ``None`` = off.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(
                f"timeout must be > 0 seconds or None, got {self.timeout!r}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries!r}")
        if self.backoff < 0:
            raise ConfigError(f"backoff must be >= 0, got {self.backoff!r}")
        if self.backoff_cap < 0:
            raise ConfigError(
                f"backoff_cap must be >= 0, got {self.backoff_cap!r}"
            )
        if self.grace < 0:
            raise ConfigError(f"grace must be >= 0, got {self.grace!r}")
        if self.resume and self.journal is None:
            raise ConfigError("resume=True needs a journal path")

    @property
    def attempts_allowed(self) -> int:
        return 1 + self.retries

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before re-running after failed attempt ``attempt``."""
        if self.backoff == 0.0:
            return 0.0
        return min(self.backoff * (2.0 ** (attempt - 1)), self.backoff_cap)


@dataclass(frozen=True)
class PointFailure:
    """One point that exhausted its retry budget."""

    label: str
    key: str
    attempts: int
    #: Cause of each failed attempt, in attempt order.
    causes: tuple[str, ...]
    #: Exception text of the last attempt.
    error: str
    #: Wall seconds spent across every attempt.
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
        lines = []
        for failure in self.failures:
            causes = ",".join(failure.causes)
            lines.append(
                f"{failure.label}: {failure.attempts} attempt(s) "
                f"[{causes}] in {failure.elapsed:.1f}s — {failure.error}"
            )
        return "\n".join(lines)


@dataclass
class ExecutorStats:
    """Counters describing how a sweep actually executed."""

    executed: int = 0
    cached: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    failed: int = 0


@dataclass
class SweepOutcome:
    """Everything a resilient sweep produced.

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


def _guarded_attempt(point: "SweepPoint", attempt: int,
                     timeout_s: float | None) -> "RunResult":
    """One attempt at one point, under the soft-timeout alarm guard.

    Module-level so process pools can pickle it.  The point runs through
    the per-process construction cache (:mod:`repro.experiments.warm`):
    each worker reruns the next structurally-matching point on the same
    reset fabric, bit-identical to a fresh build (hypothesis-tested), and
    a respawned worker simply starts with a cold cache.  The runner is
    looked up as a module attribute on every attempt, so a wrapper
    patched onto ``warm.run_point_warm`` is honoured.  The guard uses
    ``SIGALRM`` (delivered between bytecodes, so it interrupts any
    pure-Python hang); it is skipped off the main thread or on platforms
    without ``setitimer``, where only the supervisor's hard deadline
    applies.
    """
    from repro.experiments.warm import run_point_warm as run_attempt

    usable = (timeout_s is not None
              and hasattr(signal, "setitimer")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        return run_attempt(point, attempt)

    def _on_alarm(signum: int, frame: object) -> None:
        raise PointTimeoutError(
            f"sweep point {point.label!r} exceeded its {timeout_s:g}s "
            f"timeout (attempt {attempt})"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return run_attempt(point, attempt)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class _Slot:
    """Supervisor-side bookkeeping for one point of the running sweep."""

    index: int
    point: "SweepPoint"
    key: str
    #: Indices sharing this slot's key (journal dedup), including index.
    indices: tuple[int, ...]
    attempts: int = 0
    causes: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    last_error: str = ""
    last_exception: BaseException | None = None


class ResilientSweepExecutor:
    """Executes one sweep under an :class:`ExecutionPlan`.

    One instance per sweep; ``hooks`` may be shared so long-lived
    observers (a service's metrics exporter, say) can follow many
    sweeps.  ``clock``/``sleep`` are injectable for tests — and so that
    wall time never leaks anywhere the determinism rules patrol.
    """

    def __init__(self, plan: ExecutionPlan | None = None, *,
                 max_workers: int | None = 1,
                 hooks: HookRegistry | None = None,
                 clock: Callable[[], float] = _monotonic,
                 sleep: Callable[[float], None] = _sleep):
        if max_workers is not None and max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1 or None, got {max_workers!r}"
            )
        self.plan = plan or ExecutionPlan()
        self.max_workers = max_workers
        self.hooks = hooks or HookRegistry()
        self.clock = clock
        self.sleep = sleep
        self.stats = ExecutorStats()
        self._recorder = None
        if self.plan.trace_path is not None:
            from repro.telemetry.recorder import ExecutorRecorder

            self._recorder = ExecutorRecorder(self.plan.trace_path)
            self._recorder.attach(self.hooks)

    # -- public API ------------------------------------------------------------

    def execute(self, points: Iterable["SweepPoint"]) -> SweepOutcome:
        """Run every point; never raises in degraded mode.

        Strict mode re-raises the first exhausted point's exception
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
            failures = self._collect_failures(slots if slots else [])
            report = SweepFailureReport(failures=tuple(failures))
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
            while True:
                started = self.clock()
                try:
                    result = _guarded_attempt(slot.point, slot.attempts + 1,
                                              self.plan.timeout)
                except Exception as exc:
                    cause = (CAUSE_TIMEOUT
                             if isinstance(exc, PointTimeoutError)
                             else CAUSE_ERROR)
                    retrying = self._note_failure(
                        slot, cause, exc, self.clock() - started, journal)
                    if not retrying:
                        break
                    self.sleep(self.plan.backoff_delay(slot.attempts))
                else:
                    self._complete(slot, result, self.clock() - started,
                                   results, journal)
                    break
            if self.plan.strict and slot.last_exception is not None \
                    and results[slot.index] is None:
                # Fail fast: later slots are never attempted.
                break

    # -- parallel path ---------------------------------------------------------

    def _run_parallel(self, slots: list[_Slot],
                      results: list["RunResult | None"],
                      journal: SweepJournal | None, workers: int) -> None:
        plan = self.plan
        hard = (plan.timeout + plan.grace if plan.timeout is not None
                else None)
        #: (ready_at, slot position) — a heap, so backoff delays and
        #: submission order stay deterministic.
        waiting: list[tuple[float, int]] = [
            (0.0, position) for position in range(len(slots))
        ]
        heapq.heapify(waiting)
        inflight: dict[Future, tuple[_Slot, float]] = {}
        aborting = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while waiting or inflight:
                now = self.clock()
                while (waiting and len(inflight) < workers
                        and not aborting and waiting[0][0] <= now):
                    _, position = heapq.heappop(waiting)
                    slot = slots[position]
                    try:
                        future = pool.submit(_guarded_attempt, slot.point,
                                             slot.attempts + 1, plan.timeout)
                    except BrokenProcessPool:
                        # A worker died between wait() rounds, so the
                        # breakage surfaces here rather than through a
                        # future.  This slot never started: requeue it at
                        # the same attempt count.  The in-flight attempts
                        # are doomed; they pay the crash attempt.
                        heapq.heappush(waiting, (now, position))
                        for doomed in sorted(
                                inflight,
                                key=lambda f: inflight[f][0].index):
                            doomed_slot, started = inflight[doomed]
                            self._note_crash(doomed_slot, None,
                                             self.clock() - started,
                                             journal, waiting, slots,
                                             now=self.clock())
                        inflight.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=workers)
                        break
                    inflight[future] = (slot, now)
                if not inflight:
                    if aborting or not waiting:
                        break
                    self.sleep(max(0.0, waiting[0][0] - self.clock()))
                    continue
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED,
                               timeout=self._wait_budget(waiting, inflight,
                                                         hard))
                pool_broken = False
                for future in sorted(done,
                                     key=lambda f: inflight[f][0].index):
                    slot, started = inflight.pop(future)
                    elapsed = self.clock() - started
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        self._note_crash(slot, exc, elapsed, journal,
                                         waiting, slots,
                                         now=self.clock())
                    except Exception as exc:
                        cause = (CAUSE_TIMEOUT
                                 if isinstance(exc, PointTimeoutError)
                                 else CAUSE_ERROR)
                        if cause == CAUSE_TIMEOUT:
                            self.stats.timeouts += 1
                        self._schedule_or_fail(slot, cause, exc, elapsed,
                                               journal, waiting, slots,
                                               now=self.clock())
                    else:
                        self._complete(slot, result, elapsed, results,
                                       journal)
                if pool_broken:
                    # Every other in-flight future is doomed too: the
                    # pool marks itself broken on any worker death.
                    for future in sorted(
                            inflight,
                            key=lambda f: inflight[f][0].index):
                        slot, started = inflight[future]
                        self._note_crash(slot, None,
                                         self.clock() - started, journal,
                                         waiting, slots, now=self.clock())
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=workers)
                elif hard is not None:
                    now = self.clock()
                    expired = [
                        future for future, (slot, started) in
                        inflight.items() if now - started > hard
                    ]
                    if expired:
                        pool = self._hard_kill(pool, workers, inflight,
                                               expired, journal, waiting,
                                               slots)
                if self.plan.strict and any(
                        slot.last_exception is not None
                        and results[slot.index] is None
                        and slot.attempts >= plan.attempts_allowed
                        for slot in slots):
                    # Fail fast: stop feeding the pool, drain what runs.
                    aborting = True
                    waiting.clear()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _wait_budget(self, waiting: list[tuple[float, int]],
                     inflight: dict[Future, tuple[_Slot, float]],
                     hard: float | None) -> float | None:
        """How long the supervisor may block before it must act again."""
        now = self.clock()
        budgets = []
        if waiting:
            budgets.append(waiting[0][0] - now)
        if hard is not None:
            budgets.extend(started + hard - now
                           for _, started in inflight.values())
        if not budgets:
            return None
        return max(0.05, min(budgets))

    def _hard_kill(self, pool: ProcessPoolExecutor, workers: int,
                   inflight: dict[Future, tuple[_Slot, float]],
                   expired: list[Future], journal: SweepJournal | None,
                   waiting: list[tuple[float, int]],
                   slots: list[_Slot]) -> ProcessPoolExecutor:
        """Kill a pool hosting wedged workers; respawn; resubmit.

        The expired points pay a timeout attempt; innocent in-flight
        siblings are resubmitted at their *same* attempt number — their
        work was lost to the kill, not to any fault of their own.
        """
        # ``_processes`` is private but stable across CPython 3.9..3.13;
        # without it the orphaned workers would linger until exit.
        processes = getattr(pool, "_processes", None) or {}
        pool.shutdown(wait=False, cancel_futures=True)
        for process in list(processes.values()):
            process.kill()
        now = self.clock()
        for future in sorted(expired, key=lambda f: inflight[f][0].index):
            slot, started = inflight.pop(future)
            self.stats.timeouts += 1
            self._fire_crash(slot.point.label, slot.key, slot.attempts + 1,
                             CAUSE_TIMEOUT)
            exc = PointTimeoutError(
                f"sweep point {slot.point.label!r} hard-killed after "
                f"{now - started:.1f}s (soft timeout did not fire)"
            )
            self._schedule_or_fail(slot, CAUSE_TIMEOUT, exc, now - started,
                                   journal, waiting, slots, now=now)
        for future in sorted(inflight,
                             key=lambda f: inflight[f][0].index):
            slot, _started = inflight[future]
            position = slots.index(slot)
            heapq.heappush(waiting, (now, position))
        inflight.clear()
        return ProcessPoolExecutor(max_workers=workers)

    # -- shared bookkeeping ----------------------------------------------------

    def _complete(self, slot: _Slot, result: "RunResult", elapsed: float,
                  results: list["RunResult | None"],
                  journal: SweepJournal | None) -> None:
        slot.attempts += 1
        slot.elapsed += elapsed
        slot.last_exception = None
        self.stats.executed += 1
        for index in slot.indices:
            results[index] = result
        if journal is not None:
            journal.record_done(slot.key, slot.point.label, result,
                                slot.attempts, slot.elapsed,
                                attempt_elapsed=elapsed)
        self._fire_point(slot.point.label, slot.key, "done", slot.attempts,
                         slot.elapsed)

    def _note_failure(self, slot: _Slot, cause: str, exc: BaseException,
                      elapsed: float,
                      journal: SweepJournal | None) -> bool:
        """Account one failed attempt; ``True`` if a retry is due."""
        slot.attempts += 1
        slot.elapsed += elapsed
        slot.causes.append(cause)
        slot.last_error = f"{type(exc).__name__}: {exc}"
        slot.last_exception = exc
        if cause == CAUSE_TIMEOUT:
            self.stats.timeouts += 1
        retrying = slot.attempts < self.plan.attempts_allowed
        if retrying:
            if journal is not None:
                journal.record_attempt(slot.key, slot.point.label,
                                       slot.attempts, "retry", cause, elapsed)
            self.stats.retries += 1
            self._fire_retry(slot.point.label, slot.key, slot.attempts,
                             cause, self.plan.backoff_delay(slot.attempts))
        else:
            self.stats.failed += 1
            if journal is not None:
                journal.record_failed(slot.key, slot.point.label,
                                      slot.attempts, slot.last_error,
                                      slot.elapsed, cause=cause,
                                      attempt_elapsed=elapsed)
            self._fire_point(slot.point.label, slot.key, "failed",
                             slot.attempts, slot.elapsed)
        return retrying

    def _schedule_or_fail(self, slot: _Slot, cause: str,
                          exc: BaseException, elapsed: float,
                          journal: SweepJournal | None,
                          waiting: list[tuple[float, int]],
                          slots: list[_Slot], *, now: float) -> None:
        """Parallel-path failure accounting: requeue with backoff or give
        up, consuming one attempt either way."""
        # Timeout stats are counted by the callers that know the flavour
        # (soft alarm vs hard kill), so _note_failure must not re-count.
        timeouts_before = self.stats.timeouts
        retrying = self._note_failure(slot, cause, exc, elapsed, journal)
        if cause == CAUSE_TIMEOUT:
            self.stats.timeouts = timeouts_before
        if retrying:
            delay = self.plan.backoff_delay(slot.attempts)
            heapq.heappush(waiting, (now + delay, slots.index(slot)))

    def _note_crash(self, slot: _Slot, exc: BaseException | None,
                    elapsed: float, journal: SweepJournal | None,
                    waiting: list[tuple[float, int]], slots: list[_Slot],
                    *, now: float) -> None:
        """A worker died under (or alongside) this slot's attempt."""
        self.stats.crashes += 1
        self._fire_crash(slot.point.label, slot.key, slot.attempts + 1,
                         CAUSE_CRASH)
        crash_exc: BaseException = exc if exc is not None else \
            SweepExecutionError(
                f"worker process died while sweep point "
                f"{slot.point.label!r} was in flight"
            )
        self._schedule_or_fail(slot, CAUSE_CRASH, crash_exc, elapsed,
                               journal, waiting, slots, now=now)

    def _collect_failures(self, slots: list[_Slot]) -> list[PointFailure]:
        failures = []
        for slot in slots:
            if slot.last_exception is None:
                continue
            if slot.attempts < self.plan.attempts_allowed:
                # Strict-mode abort left this slot mid-budget; it still
                # failed from the caller's point of view.
                pass
            failures.append(PointFailure(
                label=slot.point.label, key=slot.key,
                attempts=slot.attempts, causes=tuple(slot.causes),
                error=slot.last_error, elapsed=slot.elapsed,
            ))
        return failures

    def _raise_strict(self, report: SweepFailureReport,
                      slots: list[_Slot]) -> None:
        """Fail-fast: surface the lowest-index exhausted point's error."""
        exhausted = [slot for slot in slots
                     if slot.last_exception is not None]
        exhausted.sort(key=lambda slot: slot.index)
        slot = exhausted[0]
        exc = slot.last_exception
        label = slot.point.label
        if isinstance(exc, ConfigError):
            raise ConfigError(f"sweep point {label!r}: {exc}") from exc
        if isinstance(exc, SweepExecutionError):
            raise SweepExecutionError(str(exc), report) from None
        if exc is not None and slot.causes \
                and slot.causes[-1] == CAUSE_CRASH:
            raise SweepExecutionError(
                f"sweep point {label!r} lost to a worker crash: {exc}",
                report,
            ) from exc
        assert exc is not None
        raise exc

    # -- hook fire sites -------------------------------------------------------

    def _fire_point(self, label: str, key: str, status: str, attempt: int,
                    elapsed: float) -> None:
        for callback in self.hooks.exec_point:
            callback(label, key, status, attempt, elapsed)

    def _fire_retry(self, label: str, key: str, attempt: int, cause: str,
                    delay: float) -> None:
        for callback in self.hooks.exec_retry:
            callback(label, key, attempt, cause, delay)

    def _fire_crash(self, label: str, key: str, attempt: int,
                    cause: str) -> None:
        for callback in self.hooks.exec_crash:
            callback(label, key, attempt, cause)


def execute_sweep(points: Iterable["SweepPoint"], *,
                  max_workers: int | None = 1,
                  plan: ExecutionPlan | None = None,
                  hooks: HookRegistry | None = None,
                  clock: Callable[[], float] = _monotonic,
                  sleep: Callable[[float], None] = _sleep) -> SweepOutcome:
    """Run a sweep under ``plan``; the module's one-call entry point."""
    executor = ResilientSweepExecutor(plan, max_workers=max_workers,
                                      hooks=hooks, clock=clock, sleep=sleep)
    return executor.execute(points)
