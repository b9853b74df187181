"""The traced run: spans around the layers' public calls, per-phase times.

Tracing is installed only for the traced repetitions of a ``--trace 1``
run; the timed repetitions never load any of this.  :meth:`Tracer.install`
wraps, for the duration of the traced repetitions, the public entry
points of each layer:

* ``experiments``: ``warm.run_point_warm`` (one span per executed sweep
  point), ``runner.collect_result``, every ``SweepJournal`` method, and
  ``Simulator.__init__`` / ``Simulator.reset`` (construction vs reset);
* ``network``: ``Simulator.run`` / ``Simulator.run_until_drained``, whose
  first entry on each run attaches a :class:`~repro.engine.profiler.PhaseProfiler`
  and a :class:`CycleCounter` through ``sim.hooks``.

The per-phase seconds map to layers as deliver/route/inject -> network,
generate -> traffic and control (the EventWheel) -> core.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.engine.profiler import PhaseProfiler
from repro.experiments import journal, runner, warm
from repro.network.simulator import Simulator

_PHASE_METRICS = {
    "deliver": "network.deliver_s",
    "route": "network.route_s",
    "inject": "network.inject_s",
    "generate": "traffic.generate_s",
    "control": "core.control_s",
}

_JOURNAL_METHODS = ("__init__", "get", "record_attempt", "record_done",
                    "record_failed", "close")

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "network.route_s": "s",
    "network.deliver_s": "s",
    "network.inject_s": "s",
    "network.run_s": "s",
    "network.cycles": "count",
    "network.packets_delivered": "count",
    "network.idle_cycle_frac": "ratio",
    "traffic.generate_s": "s",
    "traffic.nonempty_frac": "ratio",
    "core.control_s": "s",
    "core.transitions": "count",
    "core.relative_power": "ratio",
    "experiments.construct_s": "s",
    "experiments.constructs": "count",
    "experiments.reset_s": "s",
    "experiments.resets": "count",
    "experiments.collect_s": "s",
    "experiments.journal_s": "s",
    "experiments.points_requested": "count",
    "experiments.points_executed": "count",
    "experiments.reuse_frac": "ratio",
    "experiments.point_s_p50": "s",
    "experiments.point_s_p90": "s",
    "reliability.flits_corrupted": "count",
    "reliability.flits_retransmitted": "count",
    "reliability.goodput": "ratio",
    "trace.overhead_frac": "ratio",
}


class CycleCounter:
    """Counts simulated cycles, idle cycles and non-empty generate calls.

    A cycle is idle when no packet was in flight as it began and the
    traffic source created none during it: the cycles an idle-span skip
    could jump over.
    """

    __slots__ = ("stats", "cycles", "idle", "nonempty",
                 "_in_flight_at_start", "_created_before")

    def __init__(self, stats: Any):
        self.stats = stats
        self.cycles = 0
        self.idle = 0
        self.nonempty = 0
        self._in_flight_at_start = 0
        self._created_before = 0

    def attach(self, hooks: Any) -> None:
        hooks.add("phase_start", self._on_start)
        hooks.add("phase_end", self._on_end)

    def _on_start(self, phase: str, cycle: int) -> None:
        if phase == "deliver":
            self._in_flight_at_start = self.stats.in_flight
        elif phase == "generate":
            self._created_before = self.stats.packets_created

    def _on_end(self, phase: str, cycle: int) -> None:
        if phase != "generate":
            return
        self.cycles += 1
        if self.stats.packets_created != self._created_before:
            self.nonempty += 1
        elif not self._in_flight_at_start:
            self.idle += 1


class Tracer:
    """Spans (name, start, end, parent) plus per-run phase observers."""

    def __init__(self) -> None:
        #: (span id, parent id or None, name, start ns, end ns).
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.profilers: list[PhaseProfiler] = []
        self.counters: list[CycleCounter] = []
        #: Every RunResult collected while tracing (executed runs only).
        self.results: list[Any] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []
        self._observed: dict[int, Any] = {}
        self._in_run = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patch(owner, attr, traced)

    def install(self) -> None:
        self._spanned(warm, "run_point_warm", "point")
        self._spanned(Simulator, "__init__", "construct")
        self._spanned(Simulator, "reset", "reset")
        for name in _JOURNAL_METHODS:
            self._spanned(journal.SweepJournal, name, f"journal.{name}")
        for attr in ("run", "run_until_drained"):
            self._patch(Simulator, attr, self._run_wrapper(Simulator.__dict__[attr]))
        original_collect = runner.collect_result

        def collect(sim: Simulator, label: str) -> Any:
            with self.span("collect_result"):
                result = original_collect(sim, label)
            self.results.append(result)
            return result

        # ``warm`` binds its own name for collect_result at import.
        self._patch(runner, "collect_result", collect)
        self._patch(warm, "collect_result", collect)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._observed.clear()

    def _run_wrapper(self, original: Callable) -> Callable:
        tracer = self

        def traced(sim: Simulator, *args: Any, **kwargs: Any) -> Any:
            if tracer._in_run:  # run_until_drained drives run() in chunks
                return original(sim, *args, **kwargs)
            tracer._observe(sim)
            tracer._in_run = True
            try:
                with tracer.span("run"):
                    return original(sim, *args, **kwargs)
            finally:
                tracer._in_run = False

        return traced

    def _observe(self, sim: Simulator) -> None:
        """Attach phase observers once per run (a reset or rebuilt
        simulator gets a fresh hook registry)."""
        if self._observed.get(id(sim)) is sim.hooks:
            return
        counter = CycleCounter(sim.stats)
        counter.attach(sim.hooks)
        self.counters.append(counter)
        self.profilers.append(PhaseProfiler().attach(sim.hooks))
        self._observed[id(sim)] = sim.hooks

    # -- results ---------------------------------------------------------------

    def _seconds(self, predicate: Callable[[str], bool]) -> list[float]:
        return [(end - start) / 1e9 for _, _, name, start, end in self.spans
                if predicate(name)]

    def layer_metrics(self, reps: int, points_requested: int,
                      traced_wall: float, untraced_wall: float
                      ) -> dict[str, float]:
        """The per-layer table, per repetition of the workload's job."""
        per = 1.0 / reps
        metrics: dict[str, float] = {}
        phase_total = 0.0
        for phase, metric in _PHASE_METRICS.items():
            seconds = sum(p.seconds.get(phase, 0.0) for p in self.profilers)
            phase_total += seconds
            metrics[metric] = seconds * per
        run_total = sum(self._seconds(lambda n: n == "run"))
        metrics["network.run_s"] = (run_total - phase_total) * per
        cycles = sum(c.cycles for c in self.counters)
        metrics["network.cycles"] = cycles * per
        metrics["network.packets_delivered"] = per * sum(
            r.packets_delivered for r in self.results)
        metrics["network.idle_cycle_frac"] = (
            sum(c.idle for c in self.counters) / cycles if cycles else 0.0)
        metrics["traffic.nonempty_frac"] = (
            sum(c.nonempty for c in self.counters) / cycles if cycles else 0.0)

        aware = [r for r in self.results if r.level_histogram]
        metrics["core.transitions"] = per * sum(
            r.transitions_up + r.transitions_down for r in aware)
        metrics["core.relative_power"] = (
            statistics.fmean(r.relative_power for r in aware) if aware else 1.0)

        for kind in ("construct", "reset"):
            seconds = self._seconds(lambda n, kind=kind: n == kind)
            metrics[f"experiments.{kind}_s"] = sum(seconds) * per
            metrics[f"experiments.{kind}s"] = len(seconds) * per
        metrics["experiments.collect_s"] = per * sum(
            self._seconds(lambda n: n == "collect_result"))
        metrics["experiments.journal_s"] = per * sum(
            self._seconds(lambda n: n.startswith("journal.")))
        points = self._seconds(lambda n: n.startswith("point"))
        executed = len(points) * per
        metrics["experiments.points_requested"] = float(points_requested)
        metrics["experiments.points_executed"] = executed
        metrics["experiments.reuse_frac"] = (
            (points_requested - executed) / points_requested)
        metrics["experiments.point_s_p50"] = statistics.median(points)
        metrics["experiments.point_s_p90"] = (
            statistics.quantiles(points, n=10)[-1] if len(points) > 1
            else points[0])

        faulty = [r.reliability for r in self.results if r.reliability]
        retransmitted = sum(f.flits_retransmitted for f in faulty)
        carried = sum(f.flits_carried for f in faulty)
        metrics["reliability.flits_corrupted"] = per * sum(
            f.flits_corrupted for f in faulty)
        metrics["reliability.flits_retransmitted"] = per * retransmitted
        metrics["reliability.goodput"] = (
            (carried - sum(f.flits_dropped for f in faulty))
            / (carried + retransmitted) if carried + retransmitted else 1.0)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return metrics

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (open in Perfetto)."""
        origin = min((s[3] for s in self.spans), default=0)
        events = [
            {"name": name, "cat": name.split(":")[0].split(".")[0], "ph": "X",
             "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
             "pid": 1, "tid": 1, "args": {"id": span_id, "parent": parent}}
            for span_id, parent, name, start, end in sorted(
                self.spans, key=lambda s: (s[3], -s[4]))
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
