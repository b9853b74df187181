"""Input buffering and credit accounting.

The paper's routers have 16-flit input buffers per port with credit-based
backpressure: the upstream side of each link holds a credit counter equal to
the free slots downstream and may only forward a flit while credits remain.

:class:`InputBuffer` is the downstream FIFO; :class:`CreditCounter` is the
upstream view.  They are kept separate (rather than peeking across the link)
because that is the invariant hardware must maintain — the property tests
drive both ends and assert they never disagree.

The buffer also integrates its own occupancy over time.  The power-aware
policy (paper Eq. 10) needs the *average* buffer utilisation ``Bu`` over a
sampling window; integrating at push/pop events makes that O(flits) instead
of O(cycles x ports).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError, SimulationError
from repro.network.flit import Flit


class InputBuffer:
    """A bounded FIFO of flits at a router input port.

    ``push``/``pop`` take the current cycle so the buffer can maintain a
    time-weighted occupancy integral for the policy's ``Bu`` statistic.
    """

    __slots__ = ("capacity", "_fifo", "_occ_integral", "_last_event")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._fifo: deque[Flit] = deque()
        self._occ_integral = 0.0
        self._last_event = 0.0

    def reset(self) -> None:
        """Drop buffered flits and zero the occupancy integral (warm rerun)."""
        self._fifo.clear()
        self._occ_integral = 0.0
        self._last_event = 0.0

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def occupancy(self) -> int:
        """Number of flits currently buffered."""
        return len(self._fifo)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._fifo)

    @property
    def is_empty(self) -> bool:
        return not self._fifo

    @property
    def is_full(self) -> bool:
        return len(self._fifo) >= self.capacity

    def head(self) -> Flit:
        """Peek the oldest buffered flit (raises if empty)."""
        if not self._fifo:
            raise SimulationError("head() on an empty input buffer")
        return self._fifo[0]

    def push(self, flit: Flit, now: float) -> None:
        """Append an arriving flit at cycle ``now``.

        Overflow is a credit-protocol violation, so it raises
        :class:`SimulationError` instead of dropping silently.
        """
        fifo = self._fifo
        if len(fifo) >= self.capacity:
            raise SimulationError(
                "input buffer overflow: upstream sent a flit without credit"
            )
        self._occ_integral += len(fifo) * (now - self._last_event)
        self._last_event = now
        fifo.append(flit)

    def pop(self, now: float) -> Flit:
        """Remove and return the oldest flit at cycle ``now``."""
        fifo = self._fifo
        if not fifo:
            raise SimulationError("pop() on an empty input buffer")
        self._occ_integral += len(fifo) * (now - self._last_event)
        self._last_event = now
        return fifo.popleft()



def mean_utilisation(buffers: tuple[InputBuffer, ...], window_start: float,
                     window_end: float) -> float:
    """Mean fraction of slots occupied over a closed window, averaged over
    ``buffers`` (one input port's virtual-channel buffers).

    Implements the ``Bu`` term of paper Eq. 10.  Call at each window
    boundary; each buffer's occupancy integral is then reset so the next
    window starts fresh.  One call reads the whole port: the policy reads
    every link's downstream port once per window.
    """
    if window_end <= window_start:
        raise ConfigError(
            f"window must have positive length: [{window_start}, {window_end}]"
        )
    window = window_end - window_start
    utilisations = []
    for buffer in buffers:
        buffer._occ_integral += len(buffer._fifo) * (
            window_end - buffer._last_event)
        buffer._last_event = window_end
        mean_occupancy = buffer._occ_integral / window
        buffer._occ_integral = 0.0
        utilisations.append(min(1.0, mean_occupancy / buffer.capacity))
    return sum(utilisations) / len(buffers)

class CreditCounter:
    """Upstream credit state for one downstream input buffer.

    ``available`` is a plain slot attribute (not a property): the router's
    switch-allocation loop reads it once per candidate VC per cycle, and a
    property descriptor call there is measurable.  Mutate it through
    :meth:`consume`/:meth:`refill`, which enforce the credit-protocol
    bounds; the per-flit paths (``Router._forward``, ``Node.step``)
    inline them and call them only where a bound is violated, so the
    diagnostics stay theirs.
    """

    __slots__ = ("capacity", "available")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"credit capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.available = capacity

    def reset(self) -> None:
        """Restore the full credit pool (warm rerun)."""
        self.available = self.capacity

    def can_send(self) -> bool:
        return self.available > 0

    def consume(self) -> None:
        """Spend one credit when forwarding a flit downstream."""
        if self.available <= 0:
            raise SimulationError("credit underflow: sent a flit with zero credits")
        self.available -= 1

    def refill(self) -> None:
        """Return one credit when the downstream buffer drains a flit."""
        if self.available >= self.capacity:
            raise SimulationError("credit overflow: more credits than buffer slots")
        self.available += 1
