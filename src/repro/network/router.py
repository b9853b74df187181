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
    from repro.network.mesh import MeshTopology

#: Bitmask -> ascending set-bit indices, e.g. ``_BITS[0b10010] == (1, 4)``.
#: The allocation scan iterates these precomputed tuples instead of
#: peeling bits arithmetically (``mask & -mask`` / ``bit_length``), which
#: costs four interpreter operations per member per cycle.  Grown on
#: demand by :func:`_ensure_bits` to cover ``1 << num_ports`` entries;
#: the table is exponential in width, so routers cap ports and VCs at 16.
_BITS: list[tuple[int, ...]] = [()]


def _ensure_bits(limit: int) -> None:
    """Extend :data:`_BITS` to cover every mask below ``limit``."""
    while len(_BITS) < limit:
        n = len(_BITS)
        low = ((0,) if n & 1 else ())
        _BITS.append(low + tuple(b + 1 for b in _BITS[n >> 1]))


class VirtualChannel:
    """Per-VC state at an input port: buffer + wormhole route/VC latches."""

    __slots__ = ("buffer", "route_out", "eligible_at", "out_vc", "out_credit")

    def __init__(self, buffer: InputBuffer):
        self.buffer = buffer
        self.route_out = -1
        self.eligible_at = 0.0
        self.out_vc = -1
        #: The downstream VC's credit counter (None on ejection ports),
        #: latched with ``out_vc`` at VC allocation and cleared with it
        #: at the tail, so the per-flit scan and traversal skip the
        #: output-port lookups.
        self.out_credit: CreditCounter | None = None

    def release(self) -> None:
        """Drop the route and downstream-VC latches (tail sent, or reset)."""
        self.route_out = -1
        self.out_vc = -1
        self.out_credit = None


class InputPort:
    """An input port: ``num_vcs`` virtual channels plus upstream credits.

    The port keeps one incrementally maintained work-list field so the
    switch-allocation loop touches only VCs that can actually move:
    ``nonempty`` is a bitmask with bit ``v`` set while VC ``v`` buffers at
    least one flit and the router steps it.  The flit-moving paths keep
    it: :meth:`Router.receive_flit`, the deliver phase, the forwarding
    loop of :meth:`Router.step` and the worm streams of
    :mod:`repro.network.stream`, which clear a streamed VC's bit.
    """

    __slots__ = ("vcs", "upstream_credits", "nonempty")

    def __init__(self, num_vcs: int, vc_depth: int):
        self.vcs = [VirtualChannel(InputBuffer(vc_depth))
                    for _ in range(num_vcs)]
        #: Per-VC credit counters held by whoever feeds this port (the
        #: upstream router's output port, or the node for injection ports).
        self.upstream_credits: list[CreditCounter] | None = None
        #: Bitmask of VCs with buffered flits (bit ``v`` <-> ``vcs[v]``).
        self.nonempty = 0

    @property
    def occupancy(self) -> int:
        """Total flits buffered across all VCs (diagnostics only)."""
        return sum(len(vc.buffer._fifo) for vc in self.vcs)

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


class Router:
    """One communication router of the clustered system."""

    __slots__ = (
        "router_id", "x", "y", "num_local", "num_ports",
        "num_vcs", "inputs", "outputs", "head_delay", "topology",
        "_active_mask", "_requests", "_route_table",
        "registry", "fault_stats", "_out_links", "stream_outs",
        "_latched",
    )

    def __init__(self, router_id: int, num_local: int, buffer_depth: int,
                 num_vcs: int, head_delay: int, topology: "MeshTopology"):
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
        #: ``outputs[p].link`` per port, flat: the allocation scan needs
        #: a VC's output link every cycle (demand pressure, serialiser
        #: gate), before and after its downstream VC is allocated.
        self._out_links: list[Link | None] = [None] * self.num_ports
        self.head_delay = head_delay
        # The port and VC work-list masks index the precomputed _BITS
        # table, whose size is exponential in their width.
        if num_vcs > 16:
            raise ConfigError(f"num_vcs must be <= 16, got {num_vcs!r}")
        if self.num_ports > 16:
            raise ConfigError(
                f"a router has at most 16 ports (12 local), got "
                f"num_local={num_local!r}"
            )
        _ensure_bits(1 << max(self.num_ports, num_vcs))
        #: Bitmask of input ports with buffered flits (the router-local
        #: work-list; invariant: bit ``i`` set <-> ``inputs[i].nonempty``).
        self._active_mask = 0
        #: Scratch request map reused across :meth:`step` calls (allocating
        #: a fresh dict per router per cycle showed up in profiles):
        #: output port -> requesters encoded ``port * num_vcs + vc``, the
        #: arbiter's index space.
        self._requests: dict[int, list[int]] = {}
        #: Per-destination-router output-port lookup, resolved from the
        #: topology (:meth:`build_route_table`); ``None`` for standalone
        #: routers (unit tests), ``-1`` entries fall back to
        #: :meth:`_route_slow`.
        self._route_table: list[int] | None = None
        #: Optional active-router registry maintained by the simulator: a
        #: router registers itself while any input port holds flits, so the
        #: routing phase only steps routers with work (see
        #: :class:`repro.engine.active.ActiveSet`).
        self.registry = None
        #: Optional shared reliability counter object (assigned by the
        #: reliability manager); ``None`` keeps routing on the fast path.
        self.fault_stats = None
        #: Bitmask of output ports that live worm streams hold or watch
        #: here (:mod:`repro.network.stream`): a head delivered to this
        #: router that routes to one of them cuts the stream.
        self.stream_outs = 0
        #: Per output port, how many VCs hold a latched route to it.
        self._latched = [0] * self.num_ports

    def attach_output(self, port: int, output: OutputPort) -> None:
        """Wire an output port (done once by the topology builder)."""
        if self.outputs[port] is not None:
            raise ConfigError(
                f"router {self.router_id} output {port} already attached"
            )
        self.outputs[port] = output
        self._out_links[port] = output.link

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
        self._active_mask |= 1 << port

    def build_route_table(self) -> None:
        """Resolve the topology's routing relation into a lookup table.

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

        The resolved table is memoised on the (shared, stateless)
        topology instance, keyed by everything it depends on, because
        resolving the routing relation for every destination is the
        single most expensive part of fabric construction.  The cached
        tuple is a pristine master: each build hands out a fresh list
        copy, so :meth:`invalidate_routes_via` (which mutates the
        router's table in place when a link fails) never corrupts the
        cache — copy-on-write by construction.
        """
        topology = self.topology
        cache = getattr(topology, "_route_table_cache", None)
        if cache is None:
            cache = {}
            topology._route_table_cache = cache
        cache_key = (self.router_id, self.num_local)
        master_table = cache.get(cache_key)
        if master_table is None:
            table = []
            for dst_router in range(topology.num_routers):
                if dst_router == self.router_id:
                    table.append(-1)
                    continue
                direction = topology.route_direction(self.router_id,
                                                     dst_router)
                table.append(-1 if direction < 0
                             else self.num_local + direction)
            master_table = tuple(table)
            cache[cache_key] = master_table
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
                vc.release()
                vc.eligible_at = 0.0
            if port.upstream_credits is not None:
                for credit in port.upstream_credits:
                    credit.reset()
            port.nonempty = 0
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
        self.registry = None
        self.fault_stats = None
        self.stream_outs = 0
        latched = self._latched
        for index in range(len(latched)):
            latched[index] = 0
        if self._route_table is not None:
            # Cache hit by construction (the first build populated it);
            # this restores entries a failed link invalidated.
            self.build_route_table()

    def _route(self, flit: Flit) -> int:
        """Compute the output port for a head flit (the RC stage)."""
        dst_router, dst_local = divmod(flit.packet.dst, self.num_local)
        if dst_router == self.router_id:
            return dst_local
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

        Walks the topology's fixed detour preference order
        (:meth:`~repro.network.mesh.MeshTopology.fallback_directions`)
        and takes the first attached, unfailed direction.
        """
        outputs = self.outputs
        num_local = self.num_local
        for direction in self.topology.fallback_directions(
                self.router_id, dst_router):
            op = outputs[num_local + direction]
            if op is not None and not op.link.failed:
                if self.fault_stats is not None:
                    self.fault_stats.reroutes += 1
                return num_local + direction
        raise SimulationError(
            f"router {self.router_id} is disconnected: every direction "
            f"toward router {dst_router} is failed or absent"
        )

    def step(self, now: float) -> None:
        """One allocation + traversal cycle.

        Forwarded flits go straight onto their output links.  The
        allocation scan walks the ``_active_mask``/``nonempty`` work-list
        bitmasks in canonical ascending (port, VC) order, so only VCs
        holding flits are touched and every tie-break the arbiters see is
        deterministic.
        """
        active = self._active_mask
        if not active:
            if self.registry is not None:
                self.registry.discard(self)
            return
        inputs = self.inputs
        outputs = self.outputs
        # Most step calls produce zero or one switch request (measured 0.6
        # per call at saturation), so the first candidate is held in plain
        # locals and the per-output request map is only materialised when a
        # second candidate appears.
        out0 = i0 = v0 = -1
        requests = None
        bits = _BITS
        out_links = self._out_links
        for i in bits[active]:
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
                    self._latched[out_idx] += 1
                    vc.eligible_at = now + self.head_delay
                # Demand pressure: one count per output link per cycle,
                # however many VCs want it.
                link = out_links[out_idx]
                if link.pressure_cycle != now:
                    link.pressure_cycle = now
                    link.pressure_accum += 1.0
                if now < vc.eligible_at:
                    continue
                if vc.out_vc < 0:
                    # VC allocation: claim a free downstream VC.
                    op = outputs[out_idx]
                    grant = op.free_vc()
                    if grant < 0:
                        continue
                    op.vc_owner[grant] = (i, v)
                    vc.out_vc = grant
                    credits = op.credits
                    vc.out_credit = (None if credits is None
                                     else credits[grant])
                if now < link.disabled_until or now < link.free_at:
                    continue
                credit = vc.out_credit
                if credit is not None and credit.available <= 0:
                    continue
                if out0 < 0:
                    out0, i0, v0 = out_idx, i, v
                    continue
                num_vcs = self.num_vcs
                if requests is None:
                    requests = self._requests
                    requests.clear()
                    requests[out0] = [i0 * num_vcs + v0]
                reqs = requests.get(out_idx)
                if reqs is None:
                    requests[out_idx] = [i * num_vcs + v]
                else:
                    reqs.append(i * num_vcs + v)

        if out0 < 0:
            if not self._active_mask and self.registry is not None:
                self.registry.discard(self)
            return
        if requests is None:
            # Single granted request: one shared switch-traversal body
            # (:meth:`_forward`) serves this common case and the contested
            # loop below — a divergence between an inlined copy and the
            # method cannot happen by construction.
            self._forward(out0, i0, v0, now)
            if not self._active_mask and self.registry is not None:
                self.registry.discard(self)
            return
        num_vcs = self.num_vcs
        for out_idx, reqs in requests.items():
            # Contested arbitration: two or more requesters for one output
            # port.  Measured on 11% of router steps on splash_trace
            # (23,210 of 203,941) and 46% on figure_sweep (45,884 of
            # 98,889), so the request lists already hold the arbiter's
            # encoded indices and no list is built here.
            if len(reqs) == 1:
                encoded = reqs[0]
            else:
                encoded = outputs[out_idx].arbiter.grant(reqs)
            winner_port, winner_vc = divmod(encoded, num_vcs)
            self._forward(out_idx, winner_port, winner_vc, now)
        requests.clear()
        if not self._active_mask and self.registry is not None:
            self.registry.discard(self)

    def _forward(self, out_idx: int, winner_port: int, winner_vc: int,
                 now: float) -> None:
        """Switch traversal for one granted (input port, VC) -> output."""
        port = self.inputs[winner_port]
        vc = port.vcs[winner_vc]
        buf = vc.buffer
        fifo = buf._fifo
        if not fifo:
            buf.pop(now)  # raises with the canonical message
        buf._occ_integral += len(fifo) * (now - buf._last_event)
        buf._last_event = now
        flit = fifo.popleft()
        if not fifo:
            port.nonempty &= ~(1 << winner_vc)
            if not port.nonempty:
                self._active_mask &= ~(1 << winner_port)
        flit.vc = vc.out_vc
        # Credit accounting inlined; the methods run only to raise.
        credit = vc.out_credit
        if credit is not None:
            if credit.available <= 0:
                credit.consume()  # raises the underflow diagnostic
            credit.available -= 1
        if port.upstream_credits is not None:
            credit = port.upstream_credits[winner_vc]
            if credit.available >= credit.capacity:
                credit.refill()  # raises the overflow diagnostic
            credit.available += 1
        link = self._out_links[out_idx]
        if now < link.disabled_until or now < link.free_at:
            link.push(flit, now)  # unreachable (scan gate); raises
        service_time = link.service_time
        link.free_at = now + service_time
        link.busy_accum += service_time
        link.flits_carried += 1
        arrival = link.free_at + link.propagation_cycles
        if flit.is_tail:
            self.outputs[out_idx].vc_owner[vc.out_vc] = None
            self._latched[out_idx] -= 1
            vc.release()
        else:
            vc.eligible_at = now + 1.0
            if link.body_runs and not link.delivery_hooks:
                # An ejection body flit: its node sink ignores it, so it
                # joins the link's run instead of being filed.
                link.last_arrival = arrival
                if flit.is_head and link.worms is not None:
                    # The worm's path is latched end to end: offer it
                    # to the simulator's streams.
                    link.worms.append((self, winner_port, winner_vc,
                                       out_idx, flit.packet))
                return
        link._in_flight.append((arrival, flit))
        calendar = link.calendar
        if calendar is not None:
            calendar[ceil(arrival)].append(link.link_id)
