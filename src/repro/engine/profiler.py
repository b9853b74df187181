"""Per-phase wall-time profiler.

Answers "where does a run actually spend its time?" — delivery, routing,
injection, traffic generation or power control — by attaching to the
engine's ``phase_start``/``phase_end`` hooks.  A profiled run executes the
same loop as an unprofiled one, plus two hook calls and two clock reads
per phase, so profile dedicated runs rather than leaving a profiler
attached in benchmarks.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.engine.hooks import HookRegistry
from repro.errors import ConfigError


class PhaseProfiler:
    """Accumulates wall-clock seconds per simulator phase."""

    __slots__ = ("seconds", "calls", "_clock", "_entered_at", "_registry")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        #: phase name -> accumulated wall seconds.
        self.seconds: dict[str, float] = {}
        #: phase name -> number of timed executions.
        self.calls: dict[str, int] = {}
        self._clock = clock
        self._entered_at = 0.0
        self._registry: HookRegistry | None = None

    def attach(self, hooks: HookRegistry) -> "PhaseProfiler":
        """Start timing phases announced by ``hooks``; returns self."""
        if self._registry is not None:
            raise ConfigError("profiler is already attached")
        hooks.add("phase_start", self._on_phase_start)
        hooks.add("phase_end", self._on_phase_end)
        self._registry = hooks
        return self

    def detach(self) -> None:
        """Stop timing; runs started afterwards fire no phase hooks."""
        if self._registry is None:
            raise ConfigError("profiler is not attached")
        self._registry.remove("phase_start", self._on_phase_start)
        self._registry.remove("phase_end", self._on_phase_end)
        self._registry = None

    # Phases never nest, so one entry timestamp suffices.
    def _on_phase_start(self, phase: str, cycle: int) -> None:
        self._entered_at = self._clock()

    def _on_phase_end(self, phase: str, cycle: int) -> None:
        elapsed = self._clock() - self._entered_at
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
        self.calls[phase] = self.calls.get(phase, 0) + 1

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def report(self) -> str:
        """An aligned per-phase timing table, slowest phase first."""
        if not self.seconds:
            return "no phases timed (profiler attached but nothing ran)"
        total = self.total_seconds or 1e-12
        rows = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        width = max(len(name) for name, _ in rows)
        lines = [f"{'phase'.ljust(width)}  {'seconds':>9}  {'share':>6}  {'calls':>9}"]
        for name, seconds in rows:
            lines.append(
                f"{name.ljust(width)}  {seconds:9.4f}  "
                f"{100.0 * seconds / total:5.1f}%  {self.calls[name]:9d}"
            )
        lines.append(f"{'total'.ljust(width)}  {self.total_seconds:9.4f}")
        return "\n".join(lines)
