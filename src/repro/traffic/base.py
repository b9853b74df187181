"""Traffic-source interface and shared machinery.

A traffic source is asked once per cycle for the packets created that cycle.
Sources draw all randomness from a seeded :class:`numpy.random.Generator`,
so a (config, seed) pair reproduces a run bit for bit.

Injection rates follow the paper's convention: **packets per cycle summed
over the whole network** (e.g. "1.25 packets/cycle" for the light uniform
load).  Aggregate packet counts per cycle are Poisson-distributed with that
mean, which matches independent thin Bernoulli processes at 512 nodes while
costing O(packets) instead of O(nodes) per cycle.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigError
from repro.network.packet import Packet

#: Default synthetic-traffic packet size, flits.  The paper does not state
#: the synthetic packet length; 5 flits is the conventional short-packet
#: choice in mesh studies (the SPLASH traces use their own 48-flit average).
DEFAULT_PACKET_SIZE = 5


class TrafficSource(abc.ABC):
    """Base class for every workload generator."""

    def __init__(self, num_nodes: int, seed: int = 1):
        if num_nodes < 2:
            raise ConfigError(f"need >= 2 nodes for traffic, got {num_nodes!r}")
        self.num_nodes = num_nodes
        self.rng = np.random.default_rng(seed)
        self._next_packet_id = 0

    def _make_packet(self, src: int, dst: int, size: int, now: int) -> Packet:
        packet = Packet(self._next_packet_id, src, dst, size, now)
        self._next_packet_id += 1
        return packet

    def _random_destination(self, src: int) -> int:
        """A uniformly random destination different from ``src``."""
        dst = int(self.rng.integers(self.num_nodes - 1))
        return dst if dst < src else dst + 1

    @abc.abstractmethod
    def generate(self, now: int) -> list[Packet]:
        """Packets created at cycle ``now`` (possibly empty)."""

    def exhausted(self, now: int) -> bool:
        """Whether the source will never generate again (trace replay).

        Open-loop synthetic sources never exhaust.
        """
        return False

    def next_arrival(self, now: int) -> float:
        """The first cycle after ``now`` at which :meth:`generate` may
        return a packet, once it has run for ``now``.

        Sources that draw random numbers every cycle answer ``now + 1``,
        so the simulator visits every cycle and the draws stay in step.
        """
        return now + 1


class PoissonSource(TrafficSource):
    """Shared machinery for open-loop sources with a Poisson packet count.

    Subclasses decide the (src, dst) of each packet via :meth:`_pick_pair`
    and may vary the per-cycle mean via :meth:`_rate_at`.
    """

    def __init__(self, num_nodes: int, injection_rate: float,
                 packet_size: int = DEFAULT_PACKET_SIZE, seed: int = 1):
        super().__init__(num_nodes, seed)
        if injection_rate < 0.0:
            raise ConfigError(
                f"injection_rate must be >= 0 packets/cycle, got {injection_rate!r}"
            )
        if packet_size < 1:
            raise ConfigError(f"packet_size must be >= 1, got {packet_size!r}")
        self.injection_rate = injection_rate
        self.packet_size = packet_size

    def _rate_at(self, now: int) -> float:
        """Network-wide mean packets/cycle at cycle ``now``."""
        return self.injection_rate

    @abc.abstractmethod
    def _pick_pair(self, now: int) -> tuple[int, int]:
        """Choose a (src, dst) node pair for one packet."""

    def generate(self, now: int) -> list[Packet]:
        rate = self._rate_at(now)
        if rate <= 0.0:
            return []
        count = int(self.rng.poisson(rate))
        packets = []
        for _ in range(count):
            src, dst = self._pick_pair(now)
            packets.append(self._make_packet(src, dst, self.packet_size, now))
        return packets
