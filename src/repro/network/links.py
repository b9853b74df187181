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
        "sink",
        "_in_flight",
        "busy_accum",
        "pressure_accum",
        "pressure_cycle",
        "flits_carried",
        "calendar",
        "failed",
        "faults",
        "body_runs",
        "last_arrival",
        "delivery_hooks",
        "worms",
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
        #: ``(router, port, input_port)`` for a link feeding a router
        #: input, set with ``deliver`` by the topology builder: the
        #: deliver phase pushes into that port's VC buffers
        #: itself instead of calling ``deliver``.  ``None`` (ejection
        #: links, standalone links) always goes through ``deliver``; a
        #: caller that replaces ``deliver`` must clear it (and, on an
        #: ejection link, ``body_runs``).
        self.sink: tuple | None = None
        self._in_flight: deque[tuple[float, Flit]] = deque()
        self.busy_accum = 0.0
        #: Cycles in which at least one flit wanted this link (whether or
        #: not it could be served) — the work-conserving utilisation signal.
        #: Incremented by the router/node feeding the link; a router
        #: stamps the cycle it last counted in ``pressure_cycle`` so
        #: several VCs wanting the link count once.
        self.pressure_accum = 0.0
        self.pressure_cycle = -1
        self.flits_carried = 0
        #: The bucket dict of the simulator's
        #: :class:`~repro.engine.schedule.DeliverySchedule` (due cycle ->
        #: link ids): every push files this link's id under
        #: ``ceil(arrival)`` (run body flits excepted, see
        #: ``body_runs``), so the deliver phase visits a link exactly in
        #: the cycles a flit of it has a hand-over to make.  ``None`` for a standalone
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
        #: Whether the router feeding this link may move non-tail flits
        #: as a *run*: billed and counted like any flit, but never filed
        #: in ``_in_flight`` or the calendar, because their only hand-over
        #: would be to a node sink that ignores them.  Set by the
        #: simulator for fault-free ejection links; only the run's
        #: ``last_arrival`` is kept.  A registered ``delivery`` hook
        #: (``delivery_hooks``, the simulator's list, aliased) restores
        #: per-flit filing so the hook sees every hand-over.
        self.body_runs = False
        self.last_arrival = 0.0
        self.delivery_hooks: list | tuple = ()
        #: The simulator's list of worms whose head has just taken this
        #: ejection link (:attr:`WormStreams.fresh
        #: <repro.network.stream.WormStreams.fresh>`, aliased), or
        #: ``None`` where no stream may form.
        self.worms: list | None = None

    def reset(self) -> None:
        """Restore construction-time transport state for a warm rerun.

        ``deliver`` and ``sink`` (the wiring) are structural and
        survive; ``calendar``, ``delivery_hooks`` and ``body_runs`` are
        reassigned by the simulator's run-state init, so clearing them
        here just drops the previous run's engine objects.
        """
        self.service_time = 1.0
        self.free_at = 0.0
        self.disabled_until = 0.0
        self._in_flight.clear()
        self.busy_accum = 0.0
        self.pressure_accum = 0.0
        self.pressure_cycle = -1
        self.flits_carried = 0
        self.calendar = None
        self.failed = False
        self.faults = None
        self.body_runs = False
        self.last_arrival = 0.0
        self.delivery_hooks = ()
        self.worms = None

    @property
    def has_in_flight(self) -> bool:
        """Whether a flit filed in ``_in_flight`` is still on the link.

        Run body flits are not filed; :meth:`in_flight_at` counts them.
        """
        return bool(self._in_flight)

    def in_flight_at(self, now: float) -> bool:
        """Whether any flit pushed so far is still in flight at ``now``.

        Exact once the deliver phase of integer cycle ``now`` has run: a
        filed flit is then gone iff it arrived by ``now``, and a run's
        flits arrive in push order, the last at ``last_arrival``.
        """
        return bool(self._in_flight) or self.last_arrival > now

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

    def take_counters(self, now: float | None = None) -> tuple[float, float]:
        """Return and reset the (busy, pressure) times (Eq. 10 numerators).

        *Busy* time is serialisation time.  ``push`` bills a flit's full
        service time up front, so a flit that straddles a sampling-window
        boundary would otherwise be counted entirely in the window where
        the push happened.  Passing the window end as ``now`` pro-rates
        that flit: the serialisation time still ahead (``free_at - now``)
        is carried into the next window instead of being billed to this
        one, making per-window Lu exact.  With ``now`` omitted the full
        accumulator is taken (manual probes, tests).

        *Pressure* time counts cycles where the upstream side had a flit
        destined for this link, including cycles where credits, virtual
        channels or the serialiser blocked it.  A link can be the
        bottleneck of a congestion tree while its serialiser idles on
        empty credit counters; pressure sees that, busy time does not.
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
        pressure = self.pressure_accum
        self.pressure_accum = 0.0
        return busy, pressure
