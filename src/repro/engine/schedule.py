"""Per-flit arrival calendar driving the deliver phase.

The deliver phase's job is "hand over every flit whose link arrival time
has passed".  A flit's arrival time is fully known the moment it is
pushed, so :class:`DeliverySchedule` files one entry per flit — the
link's id — in a calendar of per-cycle buckets, under ``ceil(arrival)``:
exactly the first integer cycle at which an ``arrival <= now`` scan
would fire.  Pushers file straight into :attr:`DeliverySchedule.buckets`
through the link's ``calendar`` reference (``Link.push`` and its inlined
copies in ``Router._forward`` and ``Node.step``), so filing costs one
``ceil`` and one list append.

The deliver phase pops the current cycle's bucket, sorts it (ascending
link id — the order the step-everything scan over all links produces,
keeping runs bit-identical) and hands over ``link._in_flight.popleft()``
once per entry.  Entries are bare link ids, so sorting compares ints
only; a link's entries are interchangeable, and popping its deque once
per entry keeps per-link FIFO order.  The link deque stays the single
record of filed flits in flight — the calendar holds no flits.

Only flits with a hand-over to make are filed.  ``Router._forward``
moves the non-tail flits of a fault-free ejection link as a *run*
(``Link.body_runs``): their node sink ignores them, so they are billed
and counted but neither queued nor filed, and the link keeps only the
run's ``last_arrival`` (``Link.in_flight_at``).  A registered
``delivery`` hook turns filing back on for every flit.

A plain dict-of-lists beats a heap because the simulator visits the
integer cycles in order and pushes always land on *future* cycles
(service and propagation are positive, so ``ceil(arrival) > now`` for a
push at integer ``now``): each bucket is built, popped once and never
revisited.  The run loop skips only cycles with no bucket, and moves the
cursor past them with :meth:`DeliverySchedule.skip_to`.

Fault-injected links share the calendar.  A corrupted flit's
retransmission moves its arrival later; ``LinkFaultState._schedule_retry``
files a fresh entry at ``ceil`` of the new arrival, and the deliver phase
runs such links through ``LinkFaultState.filter_arrivals``, which hands
over every due flit at the front of the deque.  Entries whose flits left
with an earlier call (the flits queued behind a retried head) find
nothing due, and ``filter_arrivals`` draws no random number for them, so
they are harmless no-ops.  Every filed flit in flight therefore has an
entry in an unpopped bucket (its own, or the retried head's it queues
behind), and every entry in an unpopped bucket belongs to a flit still
in flight: :meth:`DeliverySchedule.pending` is the drain check's "links
idle" view.  A run's body flits arrive before its tail, which is filed,
and the tail's packet counts as in flight until it is delivered.

An entry filed for a cycle whose bucket has already been popped would
never be delivered and would silently stall the drain.  Filing stays
unchecked on the hot path; :meth:`DeliverySchedule.pending` and the
catch-up branch of :meth:`DeliverySchedule.pop_due` raise
:class:`~repro.errors.SimulationError` for such stranded entries.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SimulationError


class DeliverySchedule:
    """A per-cycle calendar of flit arrivals, one link-id entry per flit."""

    __slots__ = ("buckets", "_cursor")

    def __init__(self) -> None:
        #: due cycle -> link ids, one per flit arriving in that cycle
        #: (unsorted until popped).  Links hold a direct reference and
        #: file into it themselves; only read it with ``get``/``pop`` so
        #: the default factory never plants empty buckets.
        self.buckets: defaultdict[int, list[int]] = defaultdict(list)
        #: Next cycle whose bucket has not been popped yet.
        self._cursor = 0

    def pop_due(self, now: int) -> list[int]:
        """Link ids of every flit due at ``now``, ascending.

        A link with ``k`` flits due appears ``k`` times.  The engine pops
        each cycle exactly once, in order; a call that skips ahead merges
        the skipped buckets, and a call for a cycle already popped
        returns nothing.
        """
        cursor = self._cursor
        if now != cursor:
            return self._catch_up(now)
        self._cursor = now + 1
        due = self.buckets.pop(now, None)
        if due is None:
            return _NOTHING_DUE
        if len(due) > 1:
            due.sort()
        return due

    def skip_to(self, cycle: int) -> None:
        """Make ``cycle`` the next cycle to pop, passing over cycles the
        caller knows have no bucket."""
        self._cursor = cycle

    def _catch_up(self, now: int) -> list[int]:
        """Pop every bucket from the cursor through ``now`` (cold path)."""
        cursor = self._cursor
        if now < cursor:
            return _NOTHING_DUE
        self._cursor = now + 1
        buckets = self.buckets
        due: list[int] = []
        for cycle in range(cursor, now + 1):
            due.extend(buckets.pop(cycle, ()))
        self._check_stranded()
        due.sort()
        return due

    def pending(self) -> bool:
        """Whether any filed flit is still waiting for its cycle.

        Raises :class:`~repro.errors.SimulationError` if an entry was
        filed for a cycle that has already been popped.
        """
        self._check_stranded()
        return bool(self.buckets)

    def _check_stranded(self) -> None:
        buckets = self.buckets
        if buckets:
            earliest = min(buckets)
            if earliest < self._cursor:
                raise SimulationError(
                    f"{len(buckets[earliest])} flit arrival(s) filed for "
                    f"cycle {earliest}, which the deliver phase already "
                    f"passed (next cycle {self._cursor}); a push or "
                    f"retransmission was timed in the past"
                )


#: Shared empty result for cycles with nothing due (the common case).
_NOTHING_DUE: list[int] = []
