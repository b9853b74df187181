"""Per-link fault injection and link-level retransmission.

One :class:`LinkFaultState` hangs off each transport link under fault
injection (``link.faults``); :meth:`LinkFaultState.filter_arrivals`
replaces the link's plain arrival pop.  The model is a CRC-protected link
with receiver-side detection and a stop-and-wait NACK protocol, preserving
wormhole flit order:

* As each in-flight flit reaches the receiver, a Bernoulli trial with the
  *current* operating point's per-flit error probability (see
  :class:`~repro.reliability.channel.LinkChannelModel`) decides whether
  its CRC check fails.
* A corrupted flit is NACKed and retransmitted: its arrival is pushed out
  by the ACK timeout plus exponential backoff plus a fresh serialisation
  and propagation, and it stays at the *front* of the in-flight queue,
  blocking everything behind it — a link delivers flits in order or
  wormhole reassembly breaks.  Every retransmission burns real serialiser
  busy-time (it lands in the ``Lu`` statistic the policy sees) and real
  energy (billed at the link's instantaneous power).
* Each retransmission re-samples corruption.  After ``retry_limit``
  failed attempts the flit is delivered anyway and counted in
  ``flits_dropped`` — a residual uncorrectable error.  Withholding it
  would truncate the wormhole worm and wedge the downstream VC, so the
  protocol degrades to detection-without-correction at budget exhaustion.

Determinism: every link draws from its own :class:`random.Random` stream
seeded from ``(config seed, link id)`` via sha256, so one link's
corruption schedule never depends on other links' traffic, on sweep
ordering, or on process parallelism.
"""

from __future__ import annotations

import hashlib
import random
from math import ceil
from typing import TYPE_CHECKING

from repro.network.flit import Flit
from repro.network.links import Link
from repro.reliability.channel import LinkChannelModel
from repro.reliability.config import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.core.power_link import PowerAwareLink
    from repro.engine.hooks import HookRegistry


def fault_stream_seed(base: int, link_id: int) -> int:
    """Stable per-link RNG seed, independent of everything but identity."""
    payload = f"{base}:fault:{link_id}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class LinkFaultState:
    """Fault injection + retransmission protocol state for one link."""

    __slots__ = (
        "link", "channel", "pal", "band_fractions", "rng",
        "ack_timeout", "retry_limit", "backoff_base",
        "degrade_multiplier", "degrade_until", "hooks", "_attempts",
        "flits_corrupted", "flits_retransmitted", "flits_dropped",
        "retry_busy_cycles", "retry_energy_watt_cycles",
    )

    def __init__(self, link: Link, channel: LinkChannelModel,
                 config: FaultConfig, *,
                 pal: "PowerAwareLink | None" = None,
                 band_fractions: tuple[float, ...] | None = None,
                 hooks: "HookRegistry | None" = None):
        self.link = link
        self.channel = channel
        #: The power-aware wrapper, when the run has one: source of the
        #: link's current bit rate and optical band.  ``None`` means the
        #: non-power-aware baseline — pinned at the maximum rate, full
        #: light.
        self.pal = pal
        #: Optical band power fractions for modulator multi-level systems
        #: (indexable by the controller's band), else ``None``.
        self.band_fractions = band_fractions
        self.rng = random.Random(fault_stream_seed(config.seed, link.link_id))
        self.ack_timeout = config.ack_timeout_cycles
        self.retry_limit = config.retry_limit
        self.backoff_base = config.backoff_base_cycles
        #: Transient degradation window: BER is multiplied by
        #: ``degrade_multiplier`` while ``now < degrade_until``.
        self.degrade_multiplier = 1.0
        self.degrade_until = 0.0
        self.hooks = hooks
        #: Retry attempts per in-flight flit, keyed by ``id(flit)`` (safe:
        #: the flit stays alive at the deque front until resolved).
        self._attempts: dict[int, int] = {}
        self.flits_corrupted = 0
        self.flits_retransmitted = 0
        self.flits_dropped = 0
        self.retry_busy_cycles = 0.0
        self.retry_energy_watt_cycles = 0.0

    def degrade(self, multiplier: float, until: float) -> None:
        """Open (or extend) a transient BER-degradation window."""
        self.degrade_multiplier = multiplier
        self.degrade_until = max(self.degrade_until, until)

    def flit_error_probability(self, now: float) -> float:
        """Per-flit corruption probability at the link's current state."""
        if now < self.degrade_until:
            multiplier = self.degrade_multiplier
        else:
            multiplier = 1.0
        pal = self.pal
        if pal is not None:
            rate = pal.engine.operating_rate
            optical = pal.optical
            if optical is not None:
                fraction = self.band_fractions[optical.band_at(now)]
            else:
                fraction = 1.0
        else:
            rate = self.channel.max_bit_rate
            fraction = 1.0
        return self.channel.flit_error_probability(rate, fraction, multiplier)

    def filter_arrivals(self, now: float) -> list[Flit]:
        """The deliver phase's hand-over for a fault-injected link.

        Where a fault-free link gives up one deque front per calendar
        entry, this pops every due arrival from the front, subjecting each
        to a corruption trial.  A corrupted flit is rescheduled in place
        (still at the front, in-order) and blocks everything behind it
        until it gets through or exhausts its retry budget.
        """
        link = self.link
        arrivals: list[Flit] = []
        in_flight = link._in_flight
        while in_flight and in_flight[0][0] <= now:
            flit = in_flight[0][1]
            p = self.flit_error_probability(now)
            if p > 0.0 and self.rng.random() < p:
                self.flits_corrupted += 1
                hooks = self.hooks
                if hooks is not None and hooks.fault:
                    for callback in hooks.fault:
                        callback(link, flit, now)
                key = id(flit)
                attempts = self._attempts.get(key, 0) + 1
                if attempts > self.retry_limit:
                    # Retry budget exhausted: deliver the corrupt flit
                    # (residual uncorrectable error) rather than truncate
                    # the worm.
                    self._attempts.pop(key, None)
                    self.flits_dropped += 1
                    in_flight.popleft()
                    arrivals.append(flit)
                    continue
                self._attempts[key] = attempts
                self._schedule_retry(flit, attempts, now)
                break
            if self._attempts:
                self._attempts.pop(id(flit), None)
            in_flight.popleft()
            arrivals.append(flit)
        return arrivals

    def _schedule_retry(self, flit: Flit, attempt: int, now: float) -> None:
        """Reschedule the front flit after a NACK round trip + backoff."""
        link = self.link
        delay = self.ack_timeout + self.backoff_base * (1 << (attempt - 1))
        service = link.service_time
        restart = now + delay
        # The retransmission occupies the serialiser again: it shows up in
        # the busy-time (Lu) statistic and blocks new pushes while the old
        # flit is re-sent.
        arrival = restart + service + link.propagation_cycles
        link._in_flight[0] = (arrival, flit)
        calendar = link.calendar
        if calendar is not None:
            # Re-file the link for the retransmission's arrival; the
            # flits queued behind it are handed over with it.
            calendar[ceil(arrival)].append(link.link_id)
        link.busy_accum += service
        if link.free_at < restart + service:
            link.free_at = restart + service
        self.flits_retransmitted += 1
        self.retry_busy_cycles += service
        pal = self.pal
        if pal is not None:
            # The deliver phase: the control phase last ran at ``now - 1``,
            # so the billed level is read as of then.
            pal.advance(now - 1)
            self.retry_energy_watt_cycles += service * pal.current_power()
        hooks = self.hooks
        if hooks is not None and hooks.retransmit:
            for callback in hooks.retransmit:
                callback(link, flit, attempt, now)
