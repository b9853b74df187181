"""Switch-allocation arbiter.

Each router output port arbitrates among the input ports requesting it every
cycle.  :class:`RoundRobinArbiter` is strongly fair, one-hot grant, rotating
priority (what PopNet-style simulators use for SA).

The arbiter is a tiny piece of mutable state with a single ``grant`` method
so it can be unit- and property-tested in isolation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigError


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``size`` requesters."""

    __slots__ = ("size", "_next")

    def __init__(self, size: int):
        if size < 1:
            raise ConfigError(f"arbiter size must be >= 1, got {size!r}")
        self.size = size
        self._next = 0

    def reset(self) -> None:
        """Restore construction-time priority (warm rerun)."""
        self._next = 0

    def grant(self, requests: Sequence[int]) -> int:
        """Grant one requester and rotate priority past it.

        ``requests`` is the collection of requesting indices (any order).
        Returns the granted index, or -1 if no one requested.
        """
        if not requests:
            return -1
        best = -1
        best_key = self.size  # larger than any rotated distance
        for r in requests:
            if not 0 <= r < self.size:
                raise ConfigError(f"request index {r!r} outside [0, {self.size})")
            key = (r - self._next) % self.size
            if key < best_key:
                best_key = key
                best = r
        self._next = (best + 1) % self.size
        return best

