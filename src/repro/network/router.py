"""The 5-stage pipelined virtual-channel wormhole router (paper Fig. 4(b)).

Each router has ``L`` local ports (injection inputs / ejection outputs to
the processing nodes of its rack) plus four mesh ports.  The pipeline is
the classic BW -> RC -> VA -> SA -> ST/LT of the PopNet simulator the paper
builds on: a head flit that reaches the front of its virtual-channel (VC)
buffer spends :attr:`Router.head_delay` cycles in route computation and
allocation before competing for the switch; body flits inherit the route
and VC and flow one per cycle behind it.

Virtual channels: every input port's buffer space is divided among
``num_vcs`` VCs.  A packet claims one downstream VC per hop (VC
allocation) and holds it until its tail leaves, but the *link* serialiser
is shared flit by flit — two packets heading over the same fiber interleave
at flit granularity instead of blocking each other for a whole 48-flit
packet.  Credits are per-VC.

The router core runs at a fixed frequency while links run at their own
(variable) rates — a flit only wins switch allocation when its output link
can start serialising (``link.can_accept``) and a downstream credit exists,
so slow or disabled links exert backpressure exactly as in the paper.
"""

from __future__ import annotations

from math import ceil
from typing import TYPE_CHECKING

from repro.errors import ConfigError, SimulationError
from repro.network.arbiters import RoundRobinArbiter
from repro.network.buffers import CreditCounter, InputBuffer
from repro.network.flit import Flit
from repro.network.links import Link

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.network.topologies.base import Topology

#: Shared empty result for step calls that forward nothing (the common
#: case) — callers treat the return value as read-only.
_NO_FORWARDS: list[tuple[int, "Flit"]] = []

#: Bitmask -> ascending set-bit indices, e.g. ``_BITS[0b10010] == (1, 4)``.
#: The allocation scan iterates these precomputed tuples instead of
#: peeling bits arithmetically (``mask & -mask`` / ``bit_length``), which
#: costs four interpreter operations per member per cycle.  Grown on
#: demand by :func:`_ensure_bits` to cover ``1 << num_ports`` entries.
_BITS: list[tuple[int, ...]] = [()]

#: Masks at or above this (more than 16 set-bit positions) have no
#: precomputed expansion — the table would be exponential in port count,
#: and a concentrated cmesh rack has ``P*c^2 + 4`` ports.  Such masks
#: take :func:`_wide_bits`; every mask on narrower routers (every mesh,
#: torus and line configuration) still indexes :data:`_BITS` directly.
_BITS_LIMIT = 1 << 16


def _ensure_bits(limit: int) -> None:
    """Extend :data:`_BITS` to cover every mask below ``limit``."""
    while len(_BITS) < limit:
        n = len(_BITS)
        low = ((0,) if n & 1 else ())
        _BITS.append(low + tuple(b + 1 for b in _BITS[n >> 1]))


def _wide_bits(mask: int) -> list[int]:
    """Ascending set-bit indices of a mask too wide for :data:`_BITS`.

    16-bit chunked decode through the precomputed table, preserving the
    canonical ascending order the allocation scan's tie-breaks rely on.
    """
    out = []
    base = 0
    bits = _BITS
    while mask:
        word = mask & 0xFFFF
        if word:
            for bit in bits[word]:
                out.append(base + bit)
        mask >>= 16
        base += 16
    return out


class VirtualChannel:
    """Per-VC state at an input port: buffer + wormhole route/VC latches."""

    __slots__ = ("buffer", "route_out", "eligible_at", "out_vc", "vc_class")

    def __init__(self, buffer: InputBuffer):
        self.buffer = buffer
        self.route_out = -1
        self.eligible_at = 0.0
        self.out_vc = -1
        #: VC class latched at RC time (deadlock-avoidance band the next
        #: hop's VC must come from); always 0 on single-class topologies.
        self.vc_class = 0


class InputPort:
    """An input port: ``num_vcs`` virtual channels plus upstream credits.

    The port keeps two incrementally maintained work-list fields so the
    switch-allocation loop touches only VCs that can actually move:
    ``nonempty`` is a bitmask with bit ``v`` set while VC ``v`` buffers at
    least one flit, and ``occupancy`` is the total buffered flit count
    (formerly an O(num_vcs) sum recomputed per query).  Both are updated
    only by :meth:`Router.receive_flit` and the forwarding loop of
    :meth:`Router.step` — the only two places flits enter or leave a VC.
    """

    __slots__ = ("vcs", "upstream_credits", "nonempty", "occupancy")

    def __init__(self, num_vcs: int, vc_depth: int):
        self.vcs = [VirtualChannel(InputBuffer(vc_depth))
                    for _ in range(num_vcs)]
        #: Per-VC credit counters held by whoever feeds this port (the
        #: upstream router's output port, or the node for injection ports).
        self.upstream_credits: list[CreditCounter] | None = None
        #: Bitmask of VCs with buffered flits (bit ``v`` <-> ``vcs[v]``).
        self.nonempty = 0
        #: Total flits buffered across all VCs.
        self.occupancy = 0

    def buffers(self) -> tuple[InputBuffer, ...]:
        return tuple(vc.buffer for vc in self.vcs)


class OutputPort:
    """An output port: the link, downstream VC ownership and credits."""

    __slots__ = ("link", "credits", "vc_owner", "arbiter")

    def __init__(self, link: Link, credits: list[CreditCounter] | None,
                 num_vcs: int, arbiter: RoundRobinArbiter):
        self.link = link
        #: Per-VC credits for the downstream input port; ``None`` for
        #: ejection ports, whose node sinks consume flits unconditionally.
        self.credits = credits
        #: Which (input port, input VC) owns each downstream VC, or None.
        self.vc_owner: list[tuple[int, int] | None] = [None] * num_vcs
        self.arbiter = arbiter

    def free_vc(self) -> int:
        """Lowest-index unowned downstream VC, or -1 if none."""
        for index, owner in enumerate(self.vc_owner):
            if owner is None:
                return index
        return -1

    def free_vc_in(self, lo: int, hi: int) -> int:
        """Lowest unowned downstream VC in ``[lo, hi)``, or -1 if none.

        The class-restricted variant of :meth:`free_vc`, used by
        topologies whose deadlock avoidance partitions VCs into bands
        (torus datelines).
        """
        vc_owner = self.vc_owner
        for index in range(lo, hi):
            if vc_owner[index] is None:
                return index
        return -1


class Router:
    """One communication router of the clustered system."""

    __slots__ = (
        "router_id", "x", "y", "num_local", "num_ports",
        "num_vcs", "inputs", "outputs", "head_delay", "topology",
        "_active_mask", "_requests", "_route_table",
        "_vc_classes", "_class_bounds", "_rc_class",
        "registry", "fault_stats",
    )

    def __init__(self, router_id: int, num_local: int, buffer_depth: int,
                 num_vcs: int, head_delay: int, topology: "Topology"):
        if num_local < 1:
            raise ConfigError(f"num_local must be >= 1, got {num_local!r}")
        if num_vcs < 1:
            raise ConfigError(f"num_vcs must be >= 1, got {num_vcs!r}")
        if buffer_depth < num_vcs:
            raise ConfigError(
                f"buffer_depth {buffer_depth} cannot hold {num_vcs} VCs"
            )
        self.router_id = router_id
        #: The topology owns all geometry: coordinates, neighbour maps,
        #: the routing relation and the fault-fallback order.  The router
        #: only consumes the tables it derives from it.
        self.topology = topology
        self.x, self.y = topology.router_coords(router_id)
        self.num_local = num_local
        self.num_ports = num_local + 4
        self.num_vcs = num_vcs
        vc_depth = buffer_depth // num_vcs
        self.inputs = [InputPort(num_vcs, vc_depth)
                       for _ in range(self.num_ports)]
        # Output ports are attached by the fabric builder; missing mesh
        # directions (edge routers) stay None and must never be routed to.
        self.outputs: list[OutputPort | None] = [None] * self.num_ports
        self.head_delay = head_delay
        if num_vcs > 16:
            # The per-port VC work-list mask must stay within the
            # precomputed _BITS table (the port mask may chunk through
            # _wide_bits, the inner VC scan does not).
            raise ConfigError(f"num_vcs must be <= 16, got {num_vcs!r}")
        _ensure_bits(min(1 << max(self.num_ports, num_vcs), _BITS_LIMIT))
        #: Bitmask of input ports with buffered flits (the router-local
        #: work-list; invariant: bit ``i`` set <-> ``inputs[i].nonempty``).
        self._active_mask = 0
        #: Scratch request map reused across :meth:`step` calls (allocating
        #: a fresh dict per router per cycle showed up in profiles).
        self._requests: dict[int, list[tuple[int, int]]] = {}
        #: Per-destination-router output-port lookup, resolved from the
        #: topology (:meth:`build_route_table`); ``None`` for standalone
        #: routers (unit tests), ``-1`` entries fall back to
        #: :meth:`_route_slow`.
        self._route_table: list[int] | None = None
        #: Per-destination VC-class lookup (same indexing); ``None`` on
        #: single-class topologies, keeping their allocation path intact.
        self._vc_classes: list[int] | None = None
        #: Per-class (lo, hi) VC allocation bands, set with ``_vc_classes``.
        self._class_bounds: tuple[tuple[int, int], ...] = ((0, num_vcs),)
        #: Class of the route most recently computed by :meth:`_route`
        #: (only maintained while ``_vc_classes`` is not None).
        self._rc_class = 0
        #: Optional active-router registry maintained by the simulator: a
        #: router registers itself while any input port holds flits, so the
        #: routing phase only steps routers with work (see
        #: :class:`repro.engine.active.ActiveSet`).
        self.registry = None
        #: Optional shared reliability counter object (assigned by the
        #: reliability manager); ``None`` keeps routing on the fast path.
        self.fault_stats = None

    def attach_output(self, port: int, output: OutputPort) -> None:
        """Wire an output port (done once by the topology builder)."""
        if self.outputs[port] is not None:
            raise ConfigError(
                f"router {self.router_id} output {port} already attached"
            )
        self.outputs[port] = output

    def receive_flit(self, port: int, flit: Flit, now: float) -> None:
        """Accept a flit delivered by the input link of ``port``."""
        if not 0 <= flit.vc < self.num_vcs:
            raise SimulationError(
                f"flit arrived on router {self.router_id} port {port} with "
                f"VC {flit.vc} outside [0, {self.num_vcs})"
            )
        if not self._active_mask and self.registry is not None:
            self.registry.add(self)
        ip = self.inputs[port]
        buf = ip.vcs[flit.vc].buffer
        fifo = buf._fifo
        if len(fifo) >= buf.capacity:
            buf.push(flit, now)  # raises the credit-violation diagnostic
        buf._occ_integral += len(fifo) * (now - buf._last_event)
        buf._last_event = now
        fifo.append(flit)
        ip.nonempty |= 1 << flit.vc
        ip.occupancy += 1
        self._active_mask |= 1 << port

    def build_route_table(self) -> None:
        """Resolve the topology's routing relation into lookup tables.

        Called once by the fabric builder **after** all links are wired;
        the RC stage then indexes ``_route_table[dst_router]`` instead of
        re-running the routing relation per head flit.  The entry for this
        router itself is ``-1`` (local delivery resolves before the
        lookup), as is any destination whose route the reliability manager
        has invalidated (:meth:`invalidate_routes_via`).

        Raises :class:`~repro.errors.ConfigError` if a routed direction
        has no output attached — building the table before wiring would
        otherwise produce entries pointing at dead ports that only
        surface as cryptic stall diagnostics at forward time.

        Multi-class topologies (torus datelines) additionally get a
        per-destination VC-class table and the per-class allocation
        bands the switch-allocation stage restricts VC grants to.

        The resolved tables are memoised on the (shared, stateless)
        topology instance, keyed by everything they depend on, because
        resolving the routing relation for every destination is the
        single most expensive part of fabric construction.  The cached
        tuples are pristine masters: each build hands out fresh list
        copies, so :meth:`invalidate_routes_via` (which mutates the
        router's table in place when a link fails) never corrupts the
        cache — copy-on-write by construction.
        """
        topology = self.topology
        cache = getattr(topology, "_route_table_cache", None)
        if cache is None:
            cache = {}
            topology._route_table_cache = cache
        cache_key = (self.router_id, self.num_local, self.num_vcs)
        cached = cache.get(cache_key)
        if cached is None:
            table = []
            for dst_router in range(topology.num_routers):
                if dst_router == self.router_id:
                    table.append(-1)
                    continue
                direction = topology.route_direction(self.router_id,
                                                     dst_router)
                table.append(-1 if direction < 0
                             else self.num_local + direction)
            classes: tuple[int, ...] | None = None
            bounds: tuple[tuple[int, int], ...] = ((0, self.num_vcs),)
            num_classes = topology.num_vc_classes
            if num_classes > 1:
                if self.num_vcs < num_classes:
                    raise ConfigError(
                        f"topology {topology.name!r} needs {num_classes} VC "
                        f"classes but the router has only {self.num_vcs} VCs"
                    )
                classes = tuple(
                    topology.vc_class(self.router_id, dst_router)
                    for dst_router in range(topology.num_routers)
                )
                num_vcs = self.num_vcs
                bounds = tuple(
                    (cls * num_vcs // num_classes,
                     (cls + 1) * num_vcs // num_classes)
                    for cls in range(num_classes)
                )
            cached = (tuple(table), classes, bounds)
            cache[cache_key] = cached
        master_table, master_classes, master_bounds = cached
        # Wiring is validated on every build (cached or not): a table
        # entry pointing at a dead port would only surface as a cryptic
        # stall diagnostic at forward time.
        for dst_router, out in enumerate(master_table):
            if out >= 0 and self.outputs[out] is None:
                raise ConfigError(
                    f"router {self.router_id} routes toward router "
                    f"{dst_router} over output port {out}, which has no "
                    f"link attached — build_route_table must be called "
                    f"after the fabric wires all links"
                )
        self._route_table = list(master_table)
        if master_classes is not None:
            self._vc_classes = list(master_classes)
            self._class_bounds = master_bounds

    def invalidate_routes_via(self, port: int) -> None:
        """Drop cached routes through ``port`` (a link just failed).

        Invalidated destinations fall back to :meth:`_route_slow`, which
        re-runs the routing function and detours around the dead link —
        preserving the per-head-flit reroute accounting.
        """
        table = self._route_table
        if table is None:
            return
        for dst, out in enumerate(table):
            if out == port:
                table[dst] = -1

    def reset(self) -> None:
        """Restore construction-time dynamic state for a warm rerun.

        Wiring (attached outputs, links, credit-counter identity) is
        structural and survives; everything a run mutates — VC buffers
        and latches, credits, arbiters, work-list masks, fault hooks and
        any routes :meth:`invalidate_routes_via` dropped — is restored
        to its freshly-constructed value.
        """
        for port in self.inputs:
            for vc in port.vcs:
                vc.buffer.reset()
                vc.route_out = -1
                vc.eligible_at = 0.0
                vc.out_vc = -1
                vc.vc_class = 0
            if port.upstream_credits is not None:
                for credit in port.upstream_credits:
                    credit.reset()
            port.nonempty = 0
            port.occupancy = 0
        for output in self.outputs:
            if output is None:
                continue
            if output.credits is not None:
                for credit in output.credits:
                    credit.reset()
            vc_owner = output.vc_owner
            for index in range(len(vc_owner)):
                vc_owner[index] = None
            output.arbiter.reset()
        self._active_mask = 0
        self._requests.clear()
        self._rc_class = 0
        self.registry = None
        self.fault_stats = None
        if self._route_table is not None:
            # Cache hit by construction (the first build populated it);
            # this restores entries a failed link invalidated.
            self.build_route_table()

    def _route(self, flit: Flit) -> int:
        """Compute the output port for a head flit (the RC stage)."""
        dst_router, dst_local = divmod(flit.packet.dst, self.num_local)
        if dst_router == self.router_id:
            if self._vc_classes is not None:
                self._rc_class = 0
            return dst_local
        vc_classes = self._vc_classes
        if vc_classes is not None:
            self._rc_class = vc_classes[dst_router]
        table = self._route_table
        if table is not None:
            out = table[dst_router]
            if out >= 0:
                # Defensive failed-link check: invalidation should have
                # cleared this entry, but a stale hit must never route a
                # new worm onto a dead fiber.
                op = self.outputs[out]
                if op is None or not op.link.failed:
                    return out
        return self._route_slow(dst_router)

    def _route_slow(self, dst_router: int) -> int:
        """Topology fallback for untabulated or invalidated routes."""
        direction = self.topology.route_direction(self.router_id, dst_router)
        if direction < 0:
            raise SimulationError(
                f"routing returned 'arrived' for a remote destination "
                f"router {dst_router!r} at router {self.router_id}"
            )
        out = self.num_local + direction
        op = self.outputs[out]
        if op is not None and op.link.failed:
            return self._route_around(dst_router)
        return out

    def _route_around(self, dst_router: int) -> int:
        """Fault-aware fallback when the default route's link is dead.

        Walks the topology's fixed detour preference order and takes the
        first attached, unfailed direction — the same deterministic order
        :func:`repro.network.routing.fault_aware_route` defines for the
        mesh, generalised per topology.

        On multi-class topologies the deadlock-avoidance class latched by
        :meth:`_route` described the *canonical* direction; a detour can
        leave the fabric travelling a different way (e.g. a torus wrap
        edge the minimal route never crossed), so the class is re-derived
        from the direction actually chosen
        (:meth:`~repro.network.topologies.base.Topology.detour_vc_class`).
        """
        outputs = self.outputs
        num_local = self.num_local
        for direction in self.topology.fallback_directions(
                self.router_id, dst_router):
            op = outputs[num_local + direction]
            if op is not None and not op.link.failed:
                if self.fault_stats is not None:
                    self.fault_stats.reroutes += 1
                if self._vc_classes is not None:
                    self._rc_class = self.topology.detour_vc_class(
                        self.router_id, dst_router, direction)
                return num_local + direction
        raise SimulationError(
            f"router {self.router_id} is disconnected: every direction "
            f"toward router {dst_router} is failed or absent"
        )

    def step(self, now: float) -> list[tuple[int, Flit]]:
        """One allocation + traversal cycle.

        Returns the (output port, flit) pairs forwarded this cycle — used
        by tests; the flits are already on their links.

        The allocation scan walks the ``_active_mask``/``nonempty``
        work-list bitmasks in canonical ascending (port, VC) order, so only
        VCs holding flits are touched and every tie-break the arbiters see
        is deterministic.
        """
        active = self._active_mask
        if not active:
            if self.registry is not None:
                self.registry.discard(self)
            return _NO_FORWARDS
        inputs = self.inputs
        outputs = self.outputs
        # Most step calls produce zero or one switch request (measured 0.6
        # per call at saturation), so the first candidate is held in plain
        # locals and the per-output request map is only materialised when a
        # second candidate appears.
        nreq = 0
        out0 = i0 = v0 = -1
        requests = None
        pressured = 0
        bits = _BITS
        vc_classes = self._vc_classes
        for i in bits[active] if active < _BITS_LIMIT else _wide_bits(active):
            port = inputs[i]
            vcs = port.vcs
            for v in bits[port.nonempty]:
                vc = vcs[v]
                out_idx = vc.route_out
                if out_idx < 0:
                    head = vc.buffer.head()
                    if not head.is_head:
                        raise SimulationError(
                            "wormhole invariant broken: body flit at VC head "
                            "with no latched route"
                        )
                    out_idx = vc.route_out = self._route(head)
                    if outputs[out_idx] is None:
                        raise SimulationError(
                            f"routing chose unattached output {out_idx} "
                            f"at router {self.router_id}"
                        )
                    if vc_classes is not None:
                        vc.vc_class = self._rc_class
                    vc.eligible_at = now + self.head_delay
                pressured |= 1 << out_idx
                if now < vc.eligible_at:
                    continue
                op = outputs[out_idx]
                if vc.out_vc < 0:
                    # VC allocation: claim a free downstream VC — from the
                    # head's deadlock-avoidance band on multi-class
                    # topologies, from the full range otherwise.
                    if vc_classes is None:
                        grant = op.free_vc()
                    else:
                        lo, hi = self._class_bounds[vc.vc_class]
                        grant = op.free_vc_in(lo, hi)
                    if grant < 0:
                        continue
                    op.vc_owner[grant] = (i, v)
                    vc.out_vc = grant
                link = op.link
                if now < link.disabled_until or now < link.free_at:
                    continue
                credits = op.credits
                if credits is not None and credits[vc.out_vc].available <= 0:
                    continue
                if nreq == 0:
                    out0, i0, v0 = out_idx, i, v
                    nreq = 1
                    continue
                if requests is None:
                    requests = self._requests
                    requests.clear()
                    requests[out0] = [(i0, v0)]
                reqs = requests.get(out_idx)
                if reqs is None:
                    requests[out_idx] = [(i, v)]
                else:
                    reqs.append((i, v))
        for out_idx in (bits[pressured] if pressured < _BITS_LIMIT
                        else _wide_bits(pressured)):
            outputs[out_idx].link.pressure_accum += 1.0

        if nreq == 0:
            if not self._active_mask and self.registry is not None:
                self.registry.discard(self)
            return _NO_FORWARDS
        if requests is None:
            # Single granted request: one shared switch-traversal body
            # (:meth:`_forward`) serves this common case and the contested
            # loop below — a divergence between an inlined copy and the
            # method cannot happen by construction.
            flit = self._forward(out0, i0, v0, now)
            if not self._active_mask and self.registry is not None:
                self.registry.discard(self)
            return [(out0, flit)]
        forwarded: list[tuple[int, Flit]] = []
        num_vcs = self.num_vcs
        for out_idx, reqs in requests.items():
            if len(reqs) == 1:
                winner_port, winner_vc = reqs[0]
            else:
                encoded = outputs[out_idx].arbiter.grant(
                    # Contested-arbitration branch: >=2 requesters for one
                    # output port, measured at <2% of router steps.
                    [p * num_vcs + v for p, v in reqs]  # repro: noqa[HP004] cold branch, see above
                )
                winner_port, winner_vc = divmod(encoded, num_vcs)
            forwarded.append(
                (out_idx, self._forward(out_idx, winner_port, winner_vc, now))
            )
        requests.clear()
        if not self._active_mask and self.registry is not None:
            self.registry.discard(self)
        return forwarded

    def _forward(self, out_idx: int, winner_port: int, winner_vc: int,
                 now: float) -> Flit:
        """Switch traversal for one granted (input port, VC) -> output.

        Returns the forwarded flit (already pushed onto the output link).
        """
        op = self.outputs[out_idx]
        port = self.inputs[winner_port]
        vc = port.vcs[winner_vc]
        buf = vc.buffer
        fifo = buf._fifo
        if not fifo:
            buf.pop(now)  # raises with the canonical message
        buf._occ_integral += len(fifo) * (now - buf._last_event)
        buf._last_event = now
        flit = fifo.popleft()
        port.occupancy -= 1
        flit.vc = vc.out_vc
        if op.credits is not None:
            op.credits[vc.out_vc].consume()
        if port.upstream_credits is not None:
            port.upstream_credits[winner_vc].refill()
        link = op.link
        if now < link.disabled_until or now < link.free_at:
            link.push(flit, now)  # unreachable (scan gate); raises
        service_time = link.service_time
        link.free_at = now + service_time
        link.busy_accum += service_time
        link.flits_carried += 1
        arrival = link.free_at + link.propagation_cycles
        link._in_flight.append((arrival, flit))
        calendar = link.calendar
        if calendar is not None:
            calendar[ceil(arrival)].append(link.link_id)
        if flit.is_tail:
            op.vc_owner[vc.out_vc] = None
            vc.route_out = -1
            vc.out_vc = -1
        else:
            vc.eligible_at = now + 1.0
        if buf.is_empty:
            port.nonempty &= ~(1 << winner_vc)
            if not port.nonempty:
                self._active_mask &= ~(1 << winner_port)
        return flit
