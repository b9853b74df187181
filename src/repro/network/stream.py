"""Whole-path worm streams: moving an uncontended worm without stepping it.

A wormhole packet whose head has reached its ejection link holds a
latched path: one VC at every router from the flit at the back of the
worm to the destination, each with its route, downstream VC and credit
counter fixed until the tail passes.  While nothing else competes for
the outputs the worm holds, every remaining flit-hop is determined by a
recurrence.  A flit leaves a sender (the source node or a router) at the
first integer cycle at or after all of

* the cycle its arrival is delivered there (or the stream's first
  cycle, if it is already buffered);
* its predecessor's departure + 1 (one flit per VC per cycle);
* the output link's ``free_at`` and ``disabled_until``;
* its credit return: the departure, one hop downstream, of the flit
  ``credits`` places ahead of it.  Routers step in id order, so a
  refill is visible in the same cycle only to a router with a higher id
  than the one refilling; nodes step after every router and always see
  it in the same cycle.

Departures are kept as runs of evenly spaced cycles, so a worm moving a
flit per cycle costs a few runs per hop rather than a step per flit.

:class:`WormStreams` forms such a :class:`WormStream` at the end of a
cycle, computes every departure up to the end of its *segment* (the next
event-wheel event that reads or changes link state, or the last cycle of
the current :meth:`~repro.network.simulator.Simulator.run` call) and
then leaves the worm alone: the routers and the node it crosses no
longer see its VCs (their ``nonempty`` bits are clear), and its flits in
flight are taken off the links and out of the arrival calendar.  The
stream writes back exactly the state the per-flit path would have left

* at the end of a cycle: before a policy window, laser epoch or watchdog
  check (power samples and voltage ramp ends leave streams alone), at
  the end of ``run()``, when its tail leaves the last router or (while
  the node has more to send) its source node, and when the node that
  feeds it is about to pick its stream's VC;
* at the start of a cycle's route phase, when the deliver phase hands a
  router on the stream a head that would route to an output the stream
  holds or watches, or enter the stream's VC.

A stream cut as its tail leaves the source node is formed again at
once as a stream of routers fed by that node; the node then steps as
usual and brings the credit counter it shares with the stream up to
date before it picks a VC for its next packet.

Heads never stream, and a run with fault injection or with a
``delivery`` or ``packet_delivered`` hook never forms a stream, so those
hooks see every flit.  A one-cycle ``run()`` (``step()``) has no segment
to stream, so stepped runs are the reference path; the golden corpus
pins stepped against chunked runs.

The stream's *watched* output is the one upstream of its rearmost
router: that output's credit counter is refilled by the stream's
departures, so no other VC may allocate it while the stream runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ceil, inf
from typing import TYPE_CHECKING

from repro.core.transitions import TransitionState
from repro.engine.wheel import PRI_SAMPLE, PRI_TRANSITION
from repro.network.router import _BITS
from repro.network.topology import Node

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.network.flit import Flit
    from repro.network.links import Link
    from repro.network.router import Router, VirtualChannel
    from repro.network.simulator import Simulator

#: Fewest cycles a stream's segment must span to be formed.  Measured on
#: ``splash_trace`` (docs/performance.md, "Worm streams").
MIN_SEGMENT = 16
#: Fewest flit-hops a stream must cover within its segment to be formed.
MIN_FLIT_HOPS = 32
#: Cycles before a worm that could not stream is tried again.
RETRY_CYCLES = 16
#: Doublings of ``RETRY_CYCLES`` a contended worm backs off to.
MAX_BACKOFF = 3
#: Credit passes of the run recurrence before the worm is left to step.
MAX_PASSES = 6

#: Wheel events that leave streams alone (:meth:`WormStreams.before_wheel`).
QUIET_EVENTS = (PRI_TRANSITION, PRI_SAMPLE)
#: The transition phase whose end retunes and disables a link.
RAMP_UP = TransitionState.VOLTAGE_RAMP_UP

#: Cut causes, the keys of :attr:`WormStreams.cuts`.
CUT_CONTENTION = "contention"
CUT_WHEEL = "wheel"
CUT_RUN_END = "run_end"
CUT_SOURCE = "source"
CUT_CAUSES = (CUT_CONTENTION, CUT_WHEEL, CUT_RUN_END, CUT_SOURCE)


class _Hop:
    """One sender on a stream's path: the source node or a router VC."""

    __slots__ = (
        "router", "port", "vc_index", "vc", "out", "out_vc", "link",
        "credit", "credits", "visible", "first", "present", "fed", "gate",
        "service", "propagation", "step", "reach", "arrivals",
        "departures",
    )

    def __init__(self, link: "Link", out_vc: int, credit, first: int,
                 present: int, gate: int):
        #: The router (``None`` for the source node).
        self.router: "Router | None" = None
        self.port = -1
        self.vc_index = -1
        self.vc: "VirtualChannel | None" = None
        self.out = -1
        #: VC the flits travel in on ``link`` (written into ``flit.vc``).
        self.out_vc = out_vc
        self.link = link
        #: Downstream VC's credit counter (``None`` on the ejection hop)
        #: and its ``available`` when the stream formed.
        self.credit = credit
        self.credits = credit.available if credit is not None else 0
        #: 1 when the next hop's refills are seen a cycle late.
        self.visible = 0
        #: Position, in the stream's flit list, of this hop's first
        #: departure (the flits ahead of it are further downstream).
        self.first = first
        #: Flits buffered here when the stream formed.
        self.present = present
        #: ``(arrival, flit)`` of the stream's flits on the link feeding
        #: this hop when it formed, taken off that link.
        self.fed: list = []
        #: Earliest cycle of the first departure.
        self.gate = gate
        self.service = link.service_time
        self.propagation = link.propagation_cycles
        #: Cycles from a departure to the next one may leave (``step``)
        #: and to its delivery downstream (``reach``), when whole: see
        #: :func:`_whole_steps`; 0 otherwise.
        self.step, self.reach = _whole_steps(self.service, self.propagation)
        #: Cycle each flit is available here and leaves, in departure
        #: order, as runs ``(first value, count, stride)``; arrivals of
        #: flits buffered at formation read -1.
        self.arrivals: list[tuple[int, int, int]] = []
        self.departures: list[tuple[int, int, int]] = []

    def base(self) -> list[tuple[int, int, int]]:
        """Arrival runs of the flits here or fed here at formation."""
        runs: list[tuple[int, int, int]] = []
        if self.present:
            runs.append((-1, self.present, 0))
        for entry in self.fed:
            _push(runs, ceil(entry[0]), 1, 0)
        return runs


class WormStream:
    """One worm moving by recurrence (see the module docstring)."""

    __slots__ = ("owner", "candidate", "flits", "hops", "node",
                 "formed_at", "end", "done_at", "source_out", "watch",
                 "feed", "upstream_credit", "credited")

    def __init__(self, owner: "WormStreams", candidate: tuple, flits: list,
                 hops: list[_Hop], node: Node | None, formed_at: int):
        self.owner = owner
        #: ``(router, port, vc, out, packet)`` at the destination router.
        self.candidate = candidate
        #: Remaining flits, head side first.
        self.flits = flits
        #: Senders, rearmost first; the last one feeds the ejection link.
        self.hops = hops
        #: The source node, when it is the first hop.
        self.node = node
        self.formed_at = formed_at
        #: Cycles the tail leaves the last router and the source node
        #: (``inf``: not within the segment).
        self.done_at: float = inf
        self.source_out: float = inf
        #: End of the cycle at which the stream writes itself back: when
        #: its tail leaves the last router, or the source node while
        #: the node has more to send (``inf``: not within the segment).
        self.end: float = inf
        #: The node or ``(router, output)`` whose credit counter the
        #: stream refills: queueing a packet at that node, or a head
        #: routing to that output, writes the stream back.  The source
        #: node is watched while the stream holds all it has queued.
        self.watch = None
        #: The link feeding the first router hop (``None`` with the node)
        #: and the credit counter that hop refills, which already holds
        #: the hop's first ``credited`` departures.
        self.feed: "Link | None" = None
        self.upstream_credit = None
        self.credited = 0

    # -- the recurrence ---------------------------------------------------------

    def compute(self, last: int) -> int:
        """Every departure up to cycle ``last``; returns how many, or -1
        when the recurrence cannot settle them (the worm then steps)."""
        if not self._compute_runs(last):
            return -1
        hops = self.hops
        total = len(self.flits)
        covered = 0
        for hop in hops:
            covered += _length(hop.departures)
        final = hops[-1]
        if _length(final.departures) == total - final.first:
            self.done_at = _last(final.departures)
            self.end = self.done_at
        if self.node is not None:
            source = hops[0]
            if _length(source.departures) == total - source.first:
                self.source_out = _last(source.departures)
                if self.watch is None and self.source_out < self.end:
                    self.end = self.source_out
        return covered

    def _compute_runs(self, last: int) -> bool:
        """Departures as runs, hop by hop; False when a hop's service
        time does not round the same way every cycle, or when
        :data:`MAX_PASSES` credit passes do not settle.

        The first pass ignores credits, which gives a lower bound of
        every departure.  Each further pass holds every hop's flits to
        the credit returns of the pass before, which only raises
        departures and never past the true ones; once a pass changes
        nothing, every bound holds and the runs are the answer.
        """
        hops = self.hops
        m = len(hops) - 1
        for hop in hops:
            if not hop.step:
                return False
        for _ in range(MAX_PASSES):
            upstream: list[tuple[int, int, int]] = []
            reach = 0
            for h in range(m + 1):
                hop = hops[h]
                arrivals = hop.base()
                for run in upstream:
                    _push(arrivals, run[0] + reach, run[1], run[2])
                hop.arrivals = arrivals
                if h < m and hop.departures:
                    # Not the first pass: hold to last pass's returns.
                    arrivals = _bounded(arrivals, hops[h + 1].departures,
                                        hop.credits, hop.visible)
                upstream = hop.departures = _chain(arrivals, hop.gate,
                                                   hop.step, last)
                reach = hop.reach
            for h in range(m):
                hop = hops[h]
                if not _credited(hop.departures, hops[h + 1].departures,
                                 hop.credits, hop.visible):
                    break
            else:
                return True
        return False

    # -- write-back -------------------------------------------------------------

    def write_back(self, sim: "Simulator", upto: int, left: int) -> int:
        """Leave the per-flit path's state: every flit delivered by cycle
        ``upto`` and departed by cycle ``left`` (``upto`` for the end of
        the cycle, ``upto - 1`` for the start of its route phase).
        Returns the flit-hops applied."""
        flits = self.flits
        hops = self.hops
        m = len(hops) - 1
        calendar = sim._calendar.buckets
        sent: list[int] = []
        applied = 0
        for hop in hops:
            n = _count_upto(hop.departures, left)
            sent.append(n)
            applied += n
        if self.feed is not None:
            _put_back(self.feed, hops[0].fed, calendar, upto)
            self.upstream_credit.available += sent[0] - self.credited
        for h in range(m + 1):
            hop = hops[h]
            n = sent[h]
            link = hop.link
            service = hop.service
            departures = hop.departures
            first = hop.first
            if n:
                _serialise(link, service, departures, n)
            if h < m:
                hop.credit.available = hop.credits - n + sent[h + 1]
                below = hops[h + 1]
                # Flits whose last hop so far is this one travel in its
                # output VC (ejected flits are never read again).
                out_vc = hop.out_vc
                start = below.first + sent[h + 1]
                if start < first:
                    start = first
                for k in range(start, first + n):
                    flits[k].vc = out_vc
                # Flits on the wire at ``upto``: the ones taken off at
                # formation, then this segment's last few.
                wire = below.fed
                propagation = hop.propagation
                k = n
                while k:
                    arrival = (_value(departures, k - 1) + service) \
                        + propagation
                    if ceil(arrival) <= upto:
                        break
                    k -= 1
                if k < n:
                    wire = wire.copy()
                    for k in range(k, n):
                        wire.append(((_value(departures, k) + service)
                                     + propagation, flits[first + k]))
                if wire:
                    _put_back(link, wire, calendar, upto)
            elif n:
                self._eject(hop, n, upto)
            if hop.router is None:
                self._write_node(hop, n, left)
            else:
                self._write_router(hop, n, upto, left)
        return applied

    def sync(self, now: int) -> None:
        """Refill the upstream counter with the first hop's departures up
        to cycle ``now`` (its node reads it in this cycle's inject
        phase, after every router has stepped)."""
        sent = _count_upto(self.hops[0].departures, now)
        self.upstream_credit.available += sent - self.credited
        self.credited = sent

    def _eject(self, hop: _Hop, n: int, upto: int) -> None:
        """The ejection link: body flits as a run, the tail filed or
        handed to its node."""
        link = hop.link
        service = hop.service
        propagation = hop.propagation
        departures = hop.departures
        last = hop.first + n - 1
        tail_sent = last == len(self.flits) - 1
        body = n - 1 if tail_sent else n
        if body:
            link.last_arrival = (_value(departures, body - 1) + service) \
                + propagation
        if tail_sent:
            arrival = (_value(departures, n - 1) + service) + propagation
            due = ceil(arrival)
            tail = self.flits[last]
            if due > upto:
                link._in_flight.append((arrival, tail))
                link.calendar[due].append(link.link_id)
            else:
                link.deliver(tail, due)

    def _write_node(self, hop: _Hop, n: int, left: int) -> None:
        """The source node: its queue, and the injection link's demand."""
        node = self.node
        queue = node.queue
        for _ in range(n):
            queue.popleft()
        # The node stepped, counting demand, every cycle up to and
        # including the one its tail left in.
        tail_out = len(self.flits) - hop.first <= n
        stop = _value(hop.departures, n - 1) if tail_out else left
        if stop > self.formed_at:
            hop.link.pressure_accum += stop - self.formed_at
        if queue and node.registry is not None:
            node.registry.add(node)

    def _write_router(self, hop: _Hop, n: int, upto: int, left: int) -> None:
        """A router VC: buffer, occupancy integral, demand and latches."""
        router = hop.router
        flits = self.flits
        arrivals = hop.arrivals
        departures = hop.departures
        formed = self.formed_at
        vc = hop.vc
        buf = vc.buffer
        arrived = _count_upto(arrivals, upto)
        last_departure = _value(departures, n - 1) if n else -1
        # The occupancy integral over the segment's push/pop events:
        # each flit's stay, from its arrival (or the last event before
        # the stream) to its departure (or the last event).
        t_last = last_departure
        if arrived and _value(arrivals, arrived - 1) > t_last:
            t_last = _value(arrivals, arrived - 1)
        if t_last > formed:
            last_event = buf._last_event
            buf._occ_integral += (
                _prefix_sum(departures, n) + (arrived - n) * t_last
                - _prefix_sum(arrivals, arrived)
                - hop.present * (last_event + 1))
            buf._last_event = t_last
        # Demand: one count per cycle in which the VC held a flit at its
        # route phase, the union of the stays up to ``left``.
        held = _count_upto(arrivals, left)
        if held:
            begin = _value(arrivals, 0)
            if begin <= formed:
                begin = formed + 1
            gaps = _gap_sum(arrivals, departures, n - 1) if n > 1 else 0
            if held > n:
                stop = left
                if n:
                    gap = _value(arrivals, n) - last_departure - 1
                    if gap > 0:
                        gaps += gap
            else:
                stop = last_departure
            count = stop - begin + 1 - gaps
            if count > 0:
                link = hop.link
                link.pressure_accum += count
                link.pressure_cycle = stop
        fifo = buf._fifo
        fifo.clear()
        first = hop.first
        for k in range(first + n, first + arrived):
            fifo.append(flits[k])
        if n and first + n == len(flits):
            # The tail left: release as Router._forward does.
            if n >= 2:
                vc.eligible_at = _value(departures, n - 2) + 1.0
            router.outputs[hop.out].vc_owner[hop.out_vc] = None
            router._latched[hop.out] -= 1
            vc.release()
        elif n:
            vc.eligible_at = last_departure + 1.0
        if fifo:
            router.inputs[hop.port].nonempty |= 1 << hop.vc_index
            router._active_mask |= 1 << hop.port
            if router.registry is not None:
                router.registry.add(router)


# -- runs: monotone integer sequences as (first value, count, stride) ----------

def _whole_steps(service: float, propagation: float) -> tuple[int, int]:
    """``(step, reach)`` such that, for a departure at integer cycle ``c``,
    ``ceil(c + service) == c + step`` and ``ceil((c + service) +
    propagation) == c + reach`` in floating point, or ``(0, 0)`` when
    that cannot be guaranteed.

    Whole times are exact.  A fractional service time whose fraction
    stays clear of 0 and 1 by far more than the rounding error of two
    additions at any cycle below 2**30 rounds the same way every time.
    """
    if not propagation.is_integer() or service < 1.0:
        return 0, 0
    fraction = service - int(service)
    if fraction and not 1e-5 < fraction < 1.0 - 1e-5:
        return 0, 0
    step = ceil(service)
    return step, step + int(propagation)


def _push(runs: list, value: int, count: int, stride: int) -> None:
    """Append ``count`` values from ``value`` by ``stride``, merging
    with the last run where the sequence stays arithmetic."""
    if runs:
        v, n, s = runs[-1]
        if n == 1:
            if count == 1 or value - v == stride:
                runs[-1] = (v, count + 1, value - v)
                return
        elif value == v + n * s and (count == 1 or stride == s):
            runs[-1] = (v, n + count, s)
            return
    runs.append((value, count, stride))


def _length(runs: list) -> int:
    total = 0
    for run in runs:
        total += run[1]
    return total


def _last(runs: list) -> int:
    v, n, s = runs[-1]
    return v + (n - 1) * s


def _value(runs: list, index: int) -> int:
    """The ``index``-th value."""
    for v, n, s in runs:
        if index < n:
            return v + index * s
        index -= n
    raise IndexError(index)


def _count_upto(runs: list, limit: int) -> int:
    """How many values are ``<= limit`` (the sequence is sorted)."""
    count = 0
    for v, n, s in runs:
        if v > limit:
            break
        if s == 0 or v + (n - 1) * s <= limit:
            count += n
        else:
            return count + (limit - v) // s + 1
    return count


def _prefix_sum(runs: list, count: int) -> int:
    """The sum of the first ``count`` values."""
    total = 0
    for v, n, s in runs:
        if count <= 0:
            break
        t = n if n < count else count
        total += t * v + s * (t * (t - 1) // 2)
        count -= t
    return total


def _chain(arrivals: list, gate: int, step: int, last: int) -> list:
    """Departures of a FIFO sender: ``d[q] = max(a[q], d[q-1] + step)``
    with ``d[0] >= gate``, for as long as they stay ``<= last``."""
    out: list[tuple[int, int, int]] = []
    for v, n, s in arrivals:
        k = 0
        while k < n:
            a = v + k * s
            if a >= gate:
                if a > last:
                    return out
                if s >= step:
                    # Arrivals keep ahead of the sender: each leaves as
                    # it arrives.
                    count = n - k
                    stride = s
                else:
                    # One departs on arrival, then the sender paces.
                    count = n - k
                    stride = step
                room = (last - a) // stride + 1
                if room < count:
                    _push(out, a, room, stride)
                    return out
                _push(out, a, count, stride)
                gate = a + (count - 1) * stride + step
                k = n
            else:
                # The sender paces until the arrivals overtake it.
                if gate > last:
                    return out
                count = n - k
                if s > step:
                    overtake = -(-(gate - a) // (s - step))
                    if overtake < count:
                        count = overtake
                room = (last - gate) // step + 1
                if room < count:
                    _push(out, gate, room, step)
                    return out
                _push(out, gate, count, step)
                gate += count * step
                k += count
    return out


def _pieces(xs: list, x_offset: int, ys: list, y_offset: int, start: int,
            stop: int):
    """Walk indices ``start .. stop - 1`` of two run sequences read at
    ``index + offset``; yields ``(count, x, x_stride, y, y_stride)`` for
    each stretch on which both are arithmetic."""
    xi, xb = _locate(xs, start + x_offset)
    yi, yb = _locate(ys, start + y_offset)
    index = start
    while index < stop:
        xv, xn, xstride = xs[xi]
        yv, yn, ystride = ys[yi]
        count = xn - xb
        if yn - yb < count:
            count = yn - yb
        if stop - index < count:
            count = stop - index
        yield count, xv + xb * xstride, xstride, yv + yb * ystride, ystride
        index += count
        xb += count
        yb += count
        if xb == xn:
            xi += 1
            xb = 0
        if yb == yn:
            yi += 1
            yb = 0


def _locate(runs: list, index: int) -> tuple[int, int]:
    for i, run in enumerate(runs):
        if index < run[1]:
            return i, index
        index -= run[1]
    return len(runs), 0


def _credited(departures: list, below: list, credits: int,
              visible: int) -> bool:
    """Whether every departure past the first ``credits`` follows the
    next hop's departure ``credits`` places earlier by ``visible``."""
    length = _length(departures)
    if length <= credits:
        return True
    if length - credits > _length(below):
        return False
    for count, x, xs, y, ys in _pieces(departures, 0, below, -credits,
                                       credits, length):
        slack = x - y - visible
        if slack < 0 or slack + (count - 1) * (xs - ys) < 0:
            return False
    return True


def _bounded(arrivals: list, below: list, credits: int,
             visible: int) -> list:
    """``arrivals``, each raised to its credit return: the value
    ``credits`` places earlier in ``below`` plus ``visible``; cut where
    ``below`` has no such departure."""
    length = _length(arrivals)
    limit = _length(below) + credits
    if limit < length:
        length = limit
    out: list[tuple[int, int, int]] = []
    head = credits if credits < length else length
    for v, n, s in arrivals:
        if head <= 0:
            break
        t = n if n < head else head
        _push(out, v, t, s)
        head -= t
    if length <= credits:
        return out
    for count, a, a_stride, b, b_stride in _pieces(
            arrivals, 0, below, -credits, credits, length):
        b += visible
        # Two arithmetic runs cross at most once.
        k = 0
        while k < count:
            diff = a - b
            if diff >= 0 and diff + (count - 1 - k) * (a_stride - b_stride) \
                    >= 0:
                _push(out, a, count - k, a_stride)
                break
            if diff <= 0 and diff + (count - 1 - k) * (a_stride - b_stride) \
                    <= 0:
                _push(out, b, count - k, b_stride)
                break
            # They cross inside: emit up to the crossing, then go on.
            slope = a_stride - b_stride
            if diff < 0:
                # a below b, rising past it: b until a >= b.
                run = -(-(-diff) // slope)
                _push(out, b, run, b_stride)
            else:
                # a above b, b rising past it: a until b > a.
                run = diff // -slope + 1
                _push(out, a, run, a_stride)
            a += run * a_stride
            b += run * b_stride
            k += run
    return out


def _gap_sum(arrivals: list, departures: list, count: int) -> int:
    """``sum(max(0, arrivals[q + 1] - departures[q] - 1))`` over
    ``q < count``: the cycles a VC stood empty between its flits."""
    total = 0
    for run, a, a_stride, d, d_stride in _pieces(arrivals, 1, departures,
                                                 0, 0, count):
        total += _positive_sum(a - d - 1, a_stride - d_stride, run)
    return total


def _positive_sum(base: int, slope: int, count: int) -> int:
    """``sum(max(0, base + slope * k) for k in range(count))``."""
    if slope == 0:
        return count * base if base > 0 else 0
    if slope > 0:
        k = 0 if base > 0 else -base // slope + 1
        if k >= count:
            return 0
        t = count - k
        return t * base + slope * ((k + count - 1) * t // 2)
    if base <= 0:
        return 0
    k = (base - 1) // -slope
    if k > count - 1:
        k = count - 1
    return (k + 1) * base + slope * (k * (k + 1) // 2)


def _serialise(link: "Link", service: float, departures: list,
               n: int) -> None:
    """``Link.push`` for the first ``n`` departures: busy time added
    once per flit, in order, the flit count and ``free_at``."""
    busy = link.busy_accum
    if service.is_integer() and busy.is_integer():
        # Whole numbers: the sum is exact in any grouping.
        busy += n * service
    else:
        for _ in range(n):
            busy += service
    link.busy_accum = busy
    link.flits_carried += n
    link.free_at = _value(departures, n - 1) + service


def _put_back(link: "Link", wire: list, calendar, upto: int) -> None:
    """Put the stream's flits that are still on ``link`` at ``upto``
    back into its deque and the calendar.

    Flits of finished worms may still be on the link, filed as usual;
    arrivals on one link are strictly increasing in push order, so
    merging by arrival restores the deque the per-flit path would hold.
    """
    in_flight = link._in_flight
    link_id = link.link_id
    ours = []
    for entry in wire:
        due = ceil(entry[0])
        if due > upto:
            ours.append(entry)
            calendar[due].append(link_id)
    if not ours:
        return
    if in_flight and in_flight[-1][0] > ours[0][0]:
        ours += in_flight
        ours.sort()
        in_flight.clear()
    in_flight.extend(ours)


def path_tables(network) -> tuple[list[list], list]:
    """Per router and input port, the link feeding it; per link id, its
    sender: the node, or ``(router, output port)``."""
    feeds: list[list] = []
    for router in network.routers:
        feeds.append([None] * router.num_ports)
    senders: list = [None] * len(network.links)
    for link in network.links:
        if link.sink is not None:
            router, port, _ = link.sink
            feeds[router.router_id][port] = link
    for router in network.routers:
        for out, output in enumerate(router.outputs):
            if output is not None:
                senders[output.link.link_id] = (router, out)
    for node in network.nodes:
        senders[node.link.link_id] = node
    return feeds, senders


class WormStreams:
    """The simulator's streams: candidates, live streams and counters.

    Rebuilt with the rest of the run state on every construction and
    reset.  ``fresh`` is aliased as ``Link.worms`` on fault-free ejection
    links, so ``Router._forward`` files each worm whose head it puts on
    one.
    """

    __slots__ = ("sim", "fresh", "active", "next", "_waiting",
                 "_seq", "_feeds", "_senders", "_by_router", "_engines",
                 "formed", "completed", "cuts", "flit_hops")

    def __init__(self, sim: "Simulator", tables: tuple[list[list], list]):
        self.sim = sim
        #: Worms whose head has just reached its ejection link.
        self.fresh: list[tuple] = []
        #: Live streams.
        self.active: list[WormStream] = []
        #: Earliest cycle whose end :meth:`settle` must see.
        self.next: float = inf
        #: Heap of ``(retry cycle, seq, candidate, tries)``.
        self._waiting: list = []
        self._seq = 0
        self._feeds, self._senders = tables
        #: Per router id, the live streams it is on or watched by.
        self._by_router: list[list[WormStream]] = []
        for _ in sim.network.routers:
            self._by_router.append([])
        #: Power-aware links by link id (``None`` for a baseline run).
        self._engines = sim.power.links if sim.power is not None else None
        #: Streams formed; streams whose tail left the last router.
        self.formed = 0
        self.completed = 0
        #: Streams cut, by cause (see :data:`CUT_CAUSES`).
        self.cuts = dict.fromkeys(CUT_CAUSES, 0)
        #: Flit-hops moved by streams (node and router departures).
        self.flit_hops = 0

    # -- driving ------------------------------------------------------------------

    def settle(self, now: int, last: int) -> None:
        """End of cycle ``now``: write back streams that end here, then
        try the worms that are due (``last`` ends the current run)."""
        active = self.active
        if active:
            for stream in tuple(active):
                if stream.end <= now:
                    self._cut(stream, now, now, None)
        fresh = self.fresh
        waiting = self._waiting
        if fresh:
            routers = self.sim.network.routers
            for candidate in fresh:
                # A worm whose flits behind the head could not cover
                # MIN_FLIT_HOPS even from its source never pays.
                packet = candidate[4]
                dst = candidate[0]
                src = routers[packet.src // dst.num_local]
                hops = abs(dst.x - src.x) + abs(dst.y - src.y) + 2
                if (packet.size - 1) * hops >= MIN_FLIT_HOPS:
                    self._seq += 1
                    heappush(waiting, (now, self._seq, candidate, 0))
            fresh.clear()
        while waiting and waiting[0][0] <= now:
            _, _, candidate, tries = heappop(waiting)
            retry = self._try(candidate, now, last, tries)
            if retry >= 0:
                if retry == now + (RETRY_CYCLES << tries) \
                        and tries < MAX_BACKOFF:
                    tries += 1
                self._seq += 1
                heappush(waiting, (retry, self._seq, candidate, tries))
        self._refresh()

    def cut_all(self, now: int, cause: str) -> None:
        """Write every stream back at the end of cycle ``now``."""
        for stream in tuple(self.active):
            self._cut(stream, now, now, cause)
        self._refresh()

    def before_wheel(self, now: int) -> None:
        """The wheel fires at the end of cycle ``now``: write every
        stream back unless all its due events leave streams alone.

        Power samples read only billing levels, and the only transition
        event, the end of a voltage ramp-up, changes the transport of a
        link no stream's path is on (see :meth:`_try`).
        """
        if self.sim.wheel.next_event_outside(QUIET_EVENTS) <= now:
            self.cut_all(now, CUT_WHEEL)

    def release_source(self, node: Node, now: int) -> None:
        """The generate phase of cycle ``now`` is queueing a packet at a
        watched node.

        A node that feeds the stream's first router steps as usual and
        calls :meth:`node_selects` before it picks a VC.  A node that is
        the stream's first hop is out of the inject phase: it must
        rejoin once the stream's tail has left it.
        """
        stream = node.stream
        if stream.node is not node:
            return
        if stream.source_out > now:
            # The tail is still queued ahead of the new packet: cut the
            # stream when it leaves.
            if stream.source_out < stream.end:
                stream.end = stream.source_out
        else:
            self._cut(stream, now, now, CUT_SOURCE)
        self._refresh()

    def node_selects(self, node: Node, now: int) -> None:
        """The inject phase of cycle ``now``: ``node`` is about to read
        every credit counter to pick a VC for its next packet.

        The stream brings the counter it refills up to date.  If the
        node will pick the stream's VC, its next flits would follow the
        stream's into it: the stream is written back, exactly, since the
        route phase is over and the stream has routers only.
        """
        stream = node.stream
        stream.sync(now)
        chosen, best = -1, 0
        for index, counter in enumerate(node.credits):
            if counter.available > best:
                chosen, best = index, counter.available
        if chosen == stream.hops[0].vc_index:
            self._cut(stream, now, now, CUT_SOURCE)
            self._refresh()

    def contend(self, router: "Router", port: int, vc: int, flit: "Flit",
                now: int) -> None:
        """The deliver phase of cycle ``now`` is handing ``router`` a head:
        cut every stream whose output there it would route to, or whose
        VC it would enter, back to the start of the route phase."""
        out = router._route(flit)
        cut = False
        for stream in tuple(self._by_router[router.router_id]):
            if _holds(stream, router, out, port, vc):
                self._cut(stream, now, now - 1, CUT_CONTENTION)
                cut = True
        if cut:
            self._refresh()

    def _refresh(self) -> None:
        soonest = self._waiting[0][0] if self._waiting else inf
        for stream in self.active:
            if stream.end < soonest:
                soonest = stream.end
        self.next = soonest

    # -- cutting ------------------------------------------------------------------

    def _cut(self, stream: WormStream, upto: int, left: int,
             cause: str | None) -> None:
        self.flit_hops += stream.write_back(self.sim, upto, left)
        self.active.remove(stream)
        for hop in stream.hops:
            router = hop.router
            if router is not None:
                router.stream_outs &= ~(1 << hop.out)
                self._by_router[router.router_id].remove(stream)
        watch = stream.watch
        if type(watch) is tuple:
            router, out = watch
            router.stream_outs &= ~(1 << out)
            self._by_router[router.router_id].remove(stream)
        elif watch is not None:
            watch.stream = None
        final = stream.hops[-1]
        if len(stream.flits) - final.first <= _count_upto(final.departures,
                                                         left):
            self.completed += 1
            return
        if cause is None:
            # A stream ends early only when its tail leaves the source.
            cause = CUT_SOURCE
        self.cuts[cause] += 1
        retry = left + 1 + RETRY_CYCLES if cause == CUT_CONTENTION else upto
        self._seq += 1
        heappush(self._waiting, (retry, self._seq, stream.candidate, 0))

    # -- forming ------------------------------------------------------------------

    def _try(self, candidate: tuple, now: int, last: int,
             tries: int) -> int:
        """Form a stream for ``candidate`` at the end of cycle ``now``.

        Returns -1 when the worm is formed or gone for good, else the
        cycle to try again at: contention backs off, doubling the wait
        with each of the worm's ``tries`` so far.
        """
        router, port, vc_index, out, packet = candidate
        if packet.eject_time >= 0:
            return -1
        for entry in router._out_links[out]._in_flight:
            if entry[1].packet is packet:
                return -1  # its tail left the last router
        sim = self.sim
        hooks = sim.hooks
        if hooks.delivery or hooks.packet_delivered:
            return -1
        limit = sim.wheel.next_event_outside(QUIET_EVENTS)
        if last < limit:
            limit = last
        limit = int(limit)
        if limit - now < MIN_SEGMENT:
            return limit if limit > now else now + 1
        retry = now + (RETRY_CYCLES << tries)
        engines = self._engines
        feeds = self._feeds
        senders = self._senders
        # Walk from the destination router back to the tail, checking
        # that each router VC holds only this worm and that nothing else
        # at the router wants its output.
        flits: list = []
        walk: list[tuple] = []
        node = None
        watch = None
        feed = None
        while True:
            if router.stream_outs >> out & 1:
                return retry
            vc = router.inputs[port].vcs[vc_index]
            if vc.route_out != out:
                # At the destination router: the tail has left.
                return -1 if not walk else retry
            link = router._out_links[out]
            if engines is not None \
                    and engines[link.link_id].engine.state is RAMP_UP:
                return retry
            if _contested(router, out, vc):
                return retry
            first = len(flits)
            for flit in vc.buffer._fifo:
                if flit.packet is not packet:
                    return retry
                flits.append(flit)
            present = len(flits) - first
            feed = feeds[router.router_id][port]
            fed = []
            for entry in feed._in_flight:
                flit = entry[1]
                if flit.packet is packet:
                    flits.append(flit)
                    fed.append(entry)
            walk.append((router, port, vc_index, vc, out, link, first,
                         present, fed))
            sender = senders[feed.link_id]
            if flits and flits[-1].is_tail:
                if type(sender) is tuple:
                    if sender[0].stream_outs >> sender[1] & 1 \
                            or _contested(sender[0], sender[1], None):
                        return retry
                elif sender.stream is not None:
                    return retry
                else:
                    queue = sender.queue
                    if queue and not queue[0].is_head \
                            and sender._vc == vc_index:
                        # The node sends on this VC: it would read the
                        # stream's counter every cycle.
                        return retry
                watch = sender
                break
            feed = None
            if type(sender) is not tuple:
                node = sender
                queue = node.queue
                if not queue or queue[0].packet is not packet:
                    return retry
                if engines is not None and engines[
                        node.link.link_id].engine.state is RAMP_UP:
                    return retry
                first = len(flits)
                for flit in queue:
                    if flit.packet is not packet:
                        return retry
                    flits.append(flit)
                    if flit.is_tail:
                        break
                if len(queue) == len(flits) - first \
                        and node.stream is None:
                    # Nothing queued behind the tail: the node stays
                    # out of the inject phase until a packet arrives.
                    watch = node
                break
            owner = sender[0].outputs[sender[1]].vc_owner[vc_index]
            if owner is None:
                return retry
            router, out = sender
            port, vc_index = owner
        total = len(flits)
        if not total or not flits[-1].is_tail \
                or flits[-1].index - flits[0].index != total - 1:
            return retry
        potential = total - first if node is not None else 0
        for step in walk:
            potential += total - step[6]
        if potential < MIN_FLIT_HOPS:
            return -1
        # The path passes: build its hops, rearmost first.
        path: list[_Hop] = []
        if node is not None:
            link = node.link
            path.append(_Hop(link, node._vc, node.credits[node._vc], first,
                             total - first, _gate(now + 1, link)))
        for index in range(len(walk) - 1, -1, -1):
            router, port, vc_index, vc, out, link, first, present, fed \
                = walk[index]
            gate = _gate(now + 1, link)
            if ceil(vc.eligible_at) > gate:
                gate = ceil(vc.eligible_at)
            hop = _Hop(link, vc.out_vc, vc.out_credit, first, present, gate)
            hop.router = router
            hop.port = port
            hop.vc_index = vc_index
            hop.vc = vc
            hop.out = out
            hop.fed = fed
            if path:
                above = path[-1]
                if above.credits + above.first - first < 1:
                    return retry
                if above.router is not None \
                        and router.router_id > above.router.router_id:
                    above.visible = 1
            path.append(hop)
        stream = WormStream(self, candidate, flits, path, node, now)
        stream.watch = watch
        covered = stream.compute(limit)
        if covered < 0:
            return retry
        if covered < MIN_FLIT_HOPS:
            return limit if limit > now else now + 1
        self._commit(stream, feed)
        return -1

    def _commit(self, stream: WormStream, feed: "Link | None") -> None:
        """Hide the stream's flits from the routers, node and links."""
        calendar = self.sim._calendar.buckets
        hops = stream.hops
        if feed is not None:
            first = hops[0]
            stream.feed = feed
            stream.upstream_credit = \
                first.router.inputs[first.port].upstream_credits[
                    first.vc_index]
        watch = stream.watch
        if type(watch) is tuple:
            router, out = watch
            router.stream_outs |= 1 << out
            self._by_router[router.router_id].append(stream)
        elif watch is not None:
            watch.stream = stream
        for h, hop in enumerate(hops):
            router = hop.router
            if router is None:
                node = stream.node
                if node.registry is not None:
                    node.registry.discard(node)
                continue
            if hop.fed:
                # Take the stream's flits off the feeding link, leaving
                # any finished worm's flits behind them to the deliver
                # phase.
                link = feed if h == 0 else hops[h - 1].link
                in_flight = link._in_flight
                if len(in_flight) > len(hop.fed):
                    packet = stream.flits[0].packet
                    kept = []
                    for entry in in_flight:
                        if entry[1].packet is not packet:
                            kept.append(entry)
                    in_flight.clear()
                    in_flight.extend(kept)
                else:
                    in_flight.clear()
                link_id = link.link_id
                for arrival, _ in hop.fed:
                    due = ceil(arrival)
                    bucket = calendar[due]
                    bucket.remove(link_id)
                    if not bucket:
                        del calendar[due]
            ip = router.inputs[hop.port]
            ip.nonempty &= ~(1 << hop.vc_index)
            if not ip.nonempty:
                router._active_mask &= ~(1 << hop.port)
            router.stream_outs |= 1 << hop.out
            self._by_router[router.router_id].append(stream)
        self.active.append(stream)
        self.formed += 1

    def counters(self) -> dict[str, int]:
        """Stream counters of the run so far, with the flit-hops the
        per-flit path moved beside the streamed ones."""
        carried = 0
        for link in self.sim.network.links:
            carried += link.flits_carried
        result = {"streams_formed": self.formed,
                  "streams_completed": self.completed}
        for cause in CUT_CAUSES:
            result[f"cuts_{cause}"] = self.cuts[cause]
        result["flit_hops_streamed"] = self.flit_hops
        result["flit_hops_stepped"] = carried - self.flit_hops
        return result


def _holds(stream: WormStream, router: "Router", out: int, port: int,
           vc: int) -> bool:
    """Whether ``stream`` holds or watches ``out`` at ``router``, or
    streams its VC ``vc`` at ``port``."""
    for hop in stream.hops:
        if hop.router is router and (
                hop.out == out or hop.port == port and hop.vc_index == vc):
            return True
    watch = stream.watch
    return type(watch) is tuple and watch[0] is router and watch[1] == out


def _contested(router: "Router", out: int,
               own: "VirtualChannel | None") -> bool:
    """Whether a VC of ``router`` other than ``own`` holds a route to
    ``out``, or buffers an unrouted head that would take it."""
    if router._latched[out] > (own is not None):
        return True
    inputs = router.inputs
    for i in _BITS[router._active_mask]:
        port = inputs[i]
        vcs = port.vcs
        for v in _BITS[port.nonempty]:
            vc = vcs[v]
            fifo = vc.buffer._fifo
            if len(fifo) > 1 or vc.route_out < 0:
                routed = vc.route_out >= 0
                for flit in fifo:
                    if routed:
                        routed = False
                        continue
                    if flit.is_head and router._route(flit) == out:
                        return True
    return False


def _gate(gate: int, link: "Link") -> int:
    """The first cycle from ``gate`` at which ``link`` can take a flit."""
    if ceil(link.free_at) > gate:
        gate = ceil(link.free_at)
    if ceil(link.disabled_until) > gate:
        gate = ceil(link.disabled_until)
    return gate
