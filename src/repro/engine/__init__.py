"""The pluggable simulation engine.

Substrate-agnostic machinery the network, power-control and experiment
layers plug into:

* :class:`~repro.engine.active.ActiveSet` — registries of components that
  currently hold work, so a cycle costs O(active) instead of O(network);
* :class:`~repro.engine.schedule.DeliverySchedule` — the per-flit
  arrival calendar the deliver phase pops once per cycle;
* :class:`~repro.engine.wheel.EventWheel` — deterministic scheduled
  wake-ups replacing per-cycle ``now % period`` polling;
* :class:`~repro.engine.hooks.HookRegistry` — typed observer hooks
  (``phase_start``/``phase_end``, ``window``, ``transition``,
  ``delivery``) for profilers, recorders and metrics samplers;
* :class:`~repro.engine.profiler.PhaseProfiler` — per-phase wall-time
  attribution built on the phase hooks.

Nothing in this package imports the network or core layers; it sits below
both.
"""

from repro.engine.active import ActiveSet
from repro.engine.hooks import EVENTS, HookRegistry
from repro.engine.profiler import PhaseProfiler
from repro.engine.wheel import (
    NEVER,
    PRI_EPOCH,
    PRI_FAULT,
    PRI_SAMPLE,
    PRI_TRANSITION,
    PRI_WATCHDOG,
    PRI_WINDOW,
    EventWheel,
)

__all__ = [
    "ActiveSet",
    "EventWheel",
    "HookRegistry",
    "PhaseProfiler",
    "EVENTS",
    "NEVER",
    "PRI_TRANSITION",
    "PRI_WINDOW",
    "PRI_EPOCH",
    "PRI_SAMPLE",
    "PRI_WATCHDOG",
    "PRI_FAULT",
]
