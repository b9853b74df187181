"""A small integer-cycle event wheel.

The simulator used to poll for control work every cycle — ``now % window``,
``now % epoch``, ``now % sample_interval`` and a per-cycle sweep over every
link in transition.  All of those are *scheduled* events: their next firing
time is known exactly when the previous one completes.  The
:class:`EventWheel` turns the polling into wake-ups, so an idle cycle costs
one integer comparison (``wheel.next_cycle <= now``) instead of a handful
of modulo checks and set scans.

Ordering is fully deterministic: events firing on the same cycle run in
``(priority, insertion order)``.  The priorities below fix the control
phase's within-cycle order: transition completions, then window policy,
then laser epochs, then power sampling, then the stall watchdog.

Callbacks receive the current cycle: ``callback(now)``.  Recurring timers
reschedule themselves from inside their callback; an event scheduled at or
before the cycle being serviced fires within the same :meth:`service` call.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import ConfigError

#: Within-cycle firing order (see module docstring).
PRI_TRANSITION = 0
PRI_WINDOW = 1
PRI_EPOCH = 2
PRI_SAMPLE = 3
PRI_WATCHDOG = 4
#: Scheduled fault-scenario onsets (link failures, degradations) — after
#: all regular control work so a fault lands on a consistent cycle state.
PRI_FAULT = 5

#: ``next_cycle`` when nothing is scheduled: compares greater than any cycle.
NEVER = math.inf


class EventWheel:
    """Deterministic integer-cycle event scheduler."""

    __slots__ = ("_buckets", "_seq", "next_cycle")

    def __init__(self) -> None:
        #: cycle -> list of (priority, insertion seq, callback).
        self._buckets: dict[int, list[tuple[int, int, Callable[[int], None]]]] = {}
        self._seq = 0
        #: Earliest scheduled cycle (``NEVER`` when empty).  Hot loops read
        #: this directly: ``if wheel.next_cycle <= now: wheel.service(now)``.
        self.next_cycle: float = NEVER

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def schedule(self, when: float, callback: Callable[[int], None],
                 priority: int = 0) -> None:
        """Schedule ``callback(now)`` for the first cycle at/after ``when``.

        ``when`` may be fractional (transition completion times are): the
        event fires on ``ceil(when)``, the first integer cycle at which a
        per-cycle poll of ``now >= when`` would have seen it.
        """
        if not math.isfinite(when):
            raise ConfigError(f"event time must be finite, got {when!r}")
        cycle = math.ceil(when)
        entry = (priority, self._seq, callback)
        self._seq += 1
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [entry]
        else:
            bucket.append(entry)
        if cycle < self.next_cycle:
            self.next_cycle = cycle

    def service(self, now: int) -> int:
        """Run every event due at or before cycle ``now``; return the count.

        Events scheduled *during* servicing at a cycle <= ``now`` are
        serviced in the same call (after the bucket that scheduled them).
        """
        fired = 0
        while self.next_cycle <= now:
            bucket = self._buckets.pop(int(self.next_cycle))
            self.next_cycle = min(self._buckets) if self._buckets else NEVER
            bucket.sort()
            for _, _, callback in bucket:
                callback(now)
                fired += 1
        return fired
