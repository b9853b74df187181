"""Variable-bit-rate link transport.

Routers operate on fixed-size flits off a fixed 625 MHz clock while every
link has its own dynamically tuned clock (paper Section 4.1, "separate clock
domains").  We model a link's bit rate as a *service time*: at bit rate
``BR`` a 16-bit flit occupies the link for ``BR_max / BR`` router cycles
(1.0 cycle at 10 Gb/s, 2.0 at 5 Gb/s, fractional in between), after which a
fixed propagation delay applies.

Bit-rate transitions disable the link: pushes are refused while
``now < disabled_until`` (the CDR relock window, T_br = 20 cycles).  Flits
already serialised keep their scheduled arrival times — the policy changes
rates only at window boundaries, after in-progress flits have left the
serialiser.

The link also accumulates *busy time* per sampling window, which is exactly
the ``Lu`` numerator of paper Eq. 10.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable
from math import ceil

from repro.errors import ConfigError, LinkStateError
from repro.network.flit import Flit

#: Link roles within the clustered system (used for reporting and for the
#: power manager to pick Bu sources).
INJECTION = "injection"
EJECTION = "ejection"
MESH = "mesh"


class Link:
    """One unidirectional opto-electronic link.

    Parameters
    ----------
    link_id:
        Global index assigned by the topology builder.
    kind:
        One of :data:`INJECTION`, :data:`EJECTION`, :data:`MESH`.
    propagation_cycles:
        Fixed pipeline + time-of-flight delay added after serialisation.
    service_time:
        Router cycles one flit occupies the serialiser (>= 1.0 at full rate).
    """

    __slots__ = (
        "link_id",
        "kind",
        "propagation_cycles",
        "service_time",
        "free_at",
        "disabled_until",
        "deliver",
        "_in_flight",
        "busy_accum",
        "pressure_accum",
        "flits_carried",
        "calendar",
        "failed",
        "faults",
    )

    def __init__(
        self,
        link_id: int,
        kind: str,
        propagation_cycles: float = 1.0,
        service_time: float = 1.0,
    ):
        if kind not in (INJECTION, EJECTION, MESH):
            raise ConfigError(f"unknown link kind {kind!r}")
        if propagation_cycles < 0.0:
            raise ConfigError(
                f"propagation_cycles must be >= 0, got {propagation_cycles!r}"
            )
        if service_time <= 0.0:
            raise ConfigError(f"service_time must be > 0, got {service_time!r}")
        self.link_id = link_id
        self.kind = kind
        self.propagation_cycles = propagation_cycles
        self.service_time = service_time
        self.free_at = 0.0
        self.disabled_until = 0.0
        #: Destination callback, assigned by the topology builder:
        #: ``deliver(flit, now)`` pushes into a router buffer or a node sink.
        self.deliver: Callable[[Flit, float], None] | None = None
        self._in_flight: deque[tuple[float, Flit]] = deque()
        self.busy_accum = 0.0
        #: Cycles in which at least one flit wanted this link (whether or
        #: not it could be served) — the work-conserving utilisation signal.
        #: Incremented by the router/node feeding the link.
        self.pressure_accum = 0.0
        self.flits_carried = 0
        #: The bucket dict of the simulator's
        #: :class:`~repro.engine.schedule.DeliverySchedule` (due cycle ->
        #: link ids): every push files this link's id under
        #: ``ceil(arrival)``, so the deliver phase visits a link exactly
        #: in the cycles a flit of it arrives.  ``None`` for a standalone
        #: link outside any simulator (unit tests).
        self.calendar: defaultdict[int, list[int]] | None = None
        #: Hard-failure flag set by the reliability manager.  Routing
        #: refuses to send *new* packets over a failed link; flits already
        #: committed (wormhole worms in progress) drain normally — the
        #: detection/drain window of a real failure.
        self.failed = False
        #: Optional :class:`~repro.reliability.faults.LinkFaultState`
        #: (fault-injected runs only); ``None`` keeps arrival handling on
        #: the plain fast path.
        self.faults = None

    def reset(self) -> None:
        """Restore construction-time transport state for a warm rerun.

        ``deliver`` (the wiring) is structural and survives; ``calendar``
        is reassigned by the simulator's run-state init, so clearing it
        here just drops the previous run's engine object.
        """
        self.service_time = 1.0
        self.free_at = 0.0
        self.disabled_until = 0.0
        self._in_flight.clear()
        self.busy_accum = 0.0
        self.pressure_accum = 0.0
        self.flits_carried = 0
        self.calendar = None
        self.failed = False
        self.faults = None

    @property
    def has_in_flight(self) -> bool:
        return bool(self._in_flight)

    def can_accept(self, now: float) -> bool:
        """Whether a new flit may start serialising at cycle ``now``."""
        return now >= self.disabled_until and now >= self.free_at

    def push(self, flit: Flit, now: float) -> None:
        """Start serialising ``flit`` at cycle ``now``.

        The flit arrives downstream after the service time plus propagation.
        Pushing onto a busy or disabled link raises
        :class:`~repro.errors.LinkStateError` — callers must gate on
        :meth:`can_accept`.
        """
        if now < self.disabled_until or now < self.free_at:
            if now < self.disabled_until:
                reason = (
                    "disabled for a bit-rate transition until cycle "
                    f"{self.disabled_until}"
                )
            else:
                reason = f"busy serialising until cycle {self.free_at}"
            raise LinkStateError(
                f"{self.kind} link {self.link_id} cannot accept a flit at "
                f"cycle {now}: {reason} "
                f"(free_at={self.free_at}, "
                f"disabled_until={self.disabled_until})"
            )
        service_time = self.service_time
        self.free_at = now + service_time
        self.busy_accum += service_time
        self.flits_carried += 1
        arrival = self.free_at + self.propagation_cycles
        self._in_flight.append((arrival, flit))
        calendar = self.calendar
        if calendar is not None:
            calendar[ceil(arrival)].append(self.link_id)

    def pop_arrivals(self, now: float) -> list[Flit]:
        """Remove and return every flit whose arrival time has passed.

        Arrival times are monotonic (serialisation starts are monotonic and
        each arrival adds a positive service time), so a deque scan from the
        front is sufficient.  Under fault injection the pop is delegated to
        the link's :attr:`faults` state, which subjects each arrival to a
        CRC-corruption trial and runs the retransmission protocol.
        """
        if self.faults is not None:
            return self.faults.filter_arrivals(now)
        arrivals: list[Flit] = []
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            arrivals.append(in_flight.popleft()[1])
        return arrivals

    def set_service_time(self, service_time: float) -> None:
        """Retune the serialiser (a bit-rate change)."""
        if service_time <= 0.0:
            raise ConfigError(f"service_time must be > 0, got {service_time!r}")
        self.service_time = service_time

    def disable_for(self, now: float, cycles: float) -> None:
        """Disable the link for ``cycles`` starting at ``now`` (CDR relock)."""
        if cycles < 0.0:
            raise ConfigError(f"disable cycles must be >= 0, got {cycles!r}")
        self.disabled_until = max(self.disabled_until, now + cycles)

    def take_busy_time(self, now: float | None = None) -> float:
        """Return and reset the accumulated busy time (Eq. 10 numerator).

        ``push`` bills a flit's full service time up front, so a flit that
        straddles a sampling-window boundary would otherwise be counted
        entirely in the window where the push happened.  Passing the window
        end as ``now`` pro-rates that flit: the serialisation time still
        ahead (``free_at - now``) is carried into the next window instead of
        being billed to this one, making per-window Lu exact.  With ``now``
        omitted the full accumulator is taken (manual probes, tests).
        """
        busy = self.busy_accum
        if now is not None and self.free_at > now:
            carry = self.free_at - now
            if carry > busy:  # pragma: no cover - defensive (push invariant)
                carry = busy
            busy -= carry
            self.busy_accum = carry
        else:
            self.busy_accum = 0.0
        return busy

    def take_pressure_time(self) -> float:
        """Return and reset the accumulated demand-pressure time.

        Pressure counts cycles where the upstream side had a flit destined
        for this link, including cycles where credits, virtual channels or
        the serialiser blocked it.  A link can be the bottleneck of a
        congestion tree while its serialiser idles on empty credit
        counters; pressure sees that, busy time does not.
        """
        pressure = self.pressure_accum
        self.pressure_accum = 0.0
        return pressure
