"""Active-component registries.

The simulator's cost model is energy-proportional, like the networks it
simulates: components register themselves while they hold work
(buffered flits in a router, queued flits at a node) and are skipped
entirely otherwise, so a light-load cycle costs O(active) instead of
O(network).  Links need no registry: every flit with a hand-over to
make is filed in the :class:`~repro.engine.schedule.DeliverySchedule`
arrival calendar.

Determinism: membership is unordered (O(1) add/discard from hot paths),
but iteration always goes through :meth:`ActiveSet.snapshot`, which sorts
by the component's stable key — so two runs that activate the same
components in any order still step them identically.

Internally members are stored in a dict keyed by their integer key: the
snapshot then sorts plain ints (a single specialised ``sorted`` call) and
gathers members by lookup, instead of calling a Python-level key function
per member per cycle — at load, the snapshot is taken every cycle for
every registry, and the callback overhead dominated the sort itself.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Generic, TypeVar

T = TypeVar("T")


class ActiveSet(Generic[T]):
    """A set of components with pending work, iterated in key order."""

    __slots__ = ("_members", "_key", "_cache")

    def __init__(self, key: Callable[[T], int]):
        self._members: dict[int, T] = {}
        self._key = key
        #: Memoised sorted snapshot; ``None`` while membership is dirty.
        #: At load the membership is near-stable cycle to cycle, so the
        #: per-cycle snapshot is usually a cache hit instead of a sort.
        self._cache: list[T] | None = []

    def add(self, member: T) -> None:
        """Register a component (idempotent)."""
        self._members[self._key(member)] = member
        self._cache = None

    def discard(self, member: T) -> None:
        """Deregister a component (idempotent)."""
        if self._members.pop(self._key(member), None) is not None:
            self._cache = None

    def __contains__(self, member: T) -> bool:
        return self._key(member) in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __iter__(self) -> Iterator[T]:
        return iter(self.snapshot())

    def snapshot(self) -> list[T]:
        """The current members sorted by key.

        Safe to iterate while members register/deregister (mutation
        invalidates the memo, not the returned list).  Callers must treat
        the result as read-only — it may be served again on a later call.
        """
        cache = self._cache
        if cache is not None:
            return cache
        members = self._members
        if len(members) < 2:
            cache = list(members.values())
        else:
            # Runs only on a cache miss (membership changed since the last
            # snapshot); steady-state windows reuse the memoised list.
            cache = [members[k] for k in sorted(members)]
        self._cache = cache
        return cache

    def clear(self) -> None:
        self._members.clear()
        self._cache = []
