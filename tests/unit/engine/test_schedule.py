"""Unit tests for the per-flit arrival calendar.

The calendar itself is exercised directly (filing, due-bucket pops in
link-id order, the cursor's catch-up, the stranded-entry guard), and its
contract with the deliver phase through a small real simulator whose
links deliver into recorders: every filed flit comes out exactly once,
at ``ceil(arrival)``, links in ascending id order with FIFO order inside
each link — including a link fast enough to deliver twice in a cycle,
and a fault-injected link whose retried head flit is re-filed.
"""

from math import ceil

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.engine.schedule import DeliverySchedule
from repro.errors import SimulationError
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.photonics.ber import ReceiverNoiseModel
from repro.photonics.constants import MAX_BIT_RATE
from repro.reliability.channel import LinkChannelModel
from repro.reliability.config import FaultConfig
from repro.reliability.faults import LinkFaultState
from repro.traffic.base import TrafficSource


class SilentTraffic(TrafficSource):
    def generate(self, now):
        return []

    def exhausted(self, now):
        return True


class ScriptedRng:
    """Returns the scripted draws in order, then the last one forever."""

    def __init__(self, *draws: float):
        self.draws = list(draws)

    def random(self) -> float:
        if len(self.draws) > 1:
            return self.draws.pop(0)
        return self.draws[0]


def make_sim() -> Simulator:
    config = SimulationConfig(
        network=NetworkConfig(mesh_width=2, mesh_height=2,
                              nodes_per_cluster=1),
        power=None,
    )
    return Simulator(config, SilentTraffic(4))


def record_links(sim: Simulator, log: list) -> None:
    """Point every link's ``deliver`` at ``log``: (cycle, link id, flit)."""
    for link in sim.network.links:
        link.deliver = (lambda link_id: lambda flit, now:
                        log.append((now, link_id, flit)))(link.link_id)
        link.sink = None


def flits(count: int, packet_id: int = 1):
    return Packet(packet_id, src=0, dst=1, size=count,
                  create_time=0).make_flits()


def deliver_through(sim: Simulator, last_cycle: int) -> None:
    for now in range(sim.cycle, last_cycle + 1):
        sim._phase_deliver(now)
    sim.cycle = last_cycle + 1


class TestCalendarSemantics:
    def test_link_not_due_until_ceil_of_arrival(self):
        schedule = DeliverySchedule()
        schedule.buckets[3].append(0)  # an arrival at 2.4 files under 3
        assert schedule.pop_due(0) == []
        assert schedule.pop_due(1) == []
        assert schedule.pop_due(2) == []
        assert schedule.pop_due(3) == [0]

    def test_same_cycle_pops_come_out_in_link_id_order(self):
        schedule = DeliverySchedule()
        for link_id in (7, 2, 5, 2, 0):
            schedule.buckets[1].append(link_id)
        assert schedule.pop_due(1) == [0, 2, 2, 5, 7]

    def test_push_files_one_entry_per_flit(self):
        sim = make_sim()
        link = sim.network.links[3]
        link.propagation_cycles = 0.4
        first, second = flits(2)
        link.push(first, 0)  # arrives at 1.4
        link.push(second, 1)  # arrives at 2.4
        buckets = sim._calendar.buckets
        assert dict(buckets) == {2: [3], 3: [3]}


class TestCursor:
    def test_skipped_cycles_drain_older_buckets(self):
        schedule = DeliverySchedule()
        schedule.buckets[3].append(2)
        schedule.buckets[1].append(1)
        # The caller jumps straight to cycle 3: both buckets must come out
        # (id-ascending), not just cycle 3's.
        assert schedule.pop_due(3) == [1, 2]
        assert not schedule.pending()

    def test_already_popped_cycle_returns_nothing(self):
        schedule = DeliverySchedule()
        schedule.buckets[1].append(0)
        assert schedule.pop_due(2) == [0]
        assert schedule.pop_due(1) == []  # behind the cursor: a no-op
        assert schedule.pop_due(2) == []

    def test_skip_to_passes_over_empty_cycles(self):
        schedule = DeliverySchedule()
        schedule.buckets[9].append(4)
        schedule.skip_to(9)
        assert schedule.pop_due(9) == [4]
        # An entry filed behind the skipped-to cycle is stranded.
        schedule.buckets[5].append(1)
        with pytest.raises(SimulationError):
            schedule.pending()


class TestDeliveryContract:
    def test_each_flit_delivered_once_at_ceil(self):
        sim = make_sim()
        log: list = []
        record_links(sim, log)
        link = sim.network.links[5]
        link.propagation_cycles = 0.3
        train = flits(3)
        arrivals = []
        for cycle, flit in enumerate(train):
            link.push(flit, cycle * 2)
            arrivals.append(link._in_flight[-1][0])
        deliver_through(sim, 12)
        assert log == [(ceil(arrival), 5, flit)
                       for arrival, flit in zip(arrivals, train)]
        assert not sim._calendar.pending()

    def test_links_ascend_fifo_within_link(self):
        sim = make_sim()
        log: list = []
        record_links(sim, log)
        links = sim.network.links
        high, low = links[9], links[2]
        high.set_service_time(0.5)
        low.set_service_time(0.5)
        high_flits, low_flits = flits(2, 1), flits(2, 2)
        # Filed high-id first, each link twice into the same cycle.
        high.push(high_flits[0], 0)
        high.push(high_flits[1], 0.5)
        low.push(low_flits[0], 0)
        low.push(low_flits[1], 0.5)
        deliver_through(sim, 2)
        assert log == [(2, 2, low_flits[0]), (2, 2, low_flits[1]),
                       (2, 9, high_flits[0]), (2, 9, high_flits[1])]

    def test_fast_link_delivers_twice_a_cycle(self):
        sim = make_sim()
        log: list = []
        record_links(sim, log)
        link = sim.network.links[0]
        link.set_service_time(0.4)
        first, second = flits(2)
        link.push(first, 0)    # arrives at 1.4
        link.push(second, 0.4)  # arrives at 1.8
        deliver_through(sim, 1)
        assert log == []
        deliver_through(sim, 2)
        assert log == [(2, 0, first), (2, 0, second)]

    def test_hooks_fire_after_link_delivers(self):
        sim = make_sim()
        events: list = []
        for link in sim.network.links:
            link.deliver = (lambda link_id: lambda flit, now:
                            events.append(("deliver", link_id,
                                           flit.index)))(link.link_id)
            link.sink = None
        sim.hooks.add("delivery", lambda link, flit, now: events.append(
            ("hook", link.link_id, flit.index)))
        fast, slow = sim.network.links[1], sim.network.links[4]
        fast.set_service_time(0.5)
        fast_flits, slow_flit = flits(2, 1), flits(1, 2)[0]
        fast.push(fast_flits[0], 0)
        fast.push(fast_flits[1], 0.5)
        slow.push(slow_flit, 0)
        deliver_through(sim, 2)
        assert events == [
            ("deliver", 1, 0), ("deliver", 1, 1),
            ("hook", 1, 0), ("hook", 1, 1),
            ("deliver", 4, 0), ("hook", 4, 0),
        ]


class TestRetransmission:
    def attach_faults(self, link) -> LinkFaultState:
        channel = LinkChannelModel(
            ReceiverNoiseModel(), received_power_w=13e-6, flit_bits=16,
            max_bit_rate=MAX_BIT_RATE,
        )
        config = FaultConfig(ack_timeout_cycles=4, backoff_base_cycles=2,
                             received_power_w=13e-6)
        state = LinkFaultState(link, channel, config)
        link.faults = state
        return state

    def test_retry_refiles_and_carries_followers(self):
        sim = make_sim()
        log: list = []
        record_links(sim, log)
        link = sim.network.links[6]
        state = self.attach_faults(link)
        state.rng = ScriptedRng(0.0, 0.999999)  # corrupt the head once
        train = flits(3)
        for cycle, flit in enumerate(train):
            link.push(flit, cycle)  # arrivals 2, 3, 4
        deliver_through(sim, 2)
        assert state.flits_retransmitted == 1
        # NACK round trip: 2 + timeout 4 + backoff 2 + service 1 + prop 1.
        assert link._in_flight[0][0] == 10.0
        assert 6 in sim._calendar.buckets[10]
        deliver_through(sim, 9)
        assert log == []  # the followers' own entries found nothing due
        deliver_through(sim, 10)
        assert log == [(10, 6, flit) for flit in train]
        assert not sim._calendar.pending()


class TestStrandedEntries:
    def test_drain_check_raises_on_stranded_entry(self):
        sim = make_sim()
        deliver_through(sim, 5)
        (flit,) = flits(1)
        sim.network.links[2].push(flit, 1)  # arrival 3: already popped
        with pytest.raises(SimulationError, match="already passed"):
            sim.run_until_drained(10, poll_interval=1)

    def test_catch_up_pop_raises_on_a_stranded_entry(self):
        schedule = DeliverySchedule()
        assert schedule.pop_due(4) == []
        schedule.buckets[2].append(0)
        with pytest.raises(SimulationError, match="cycle 2"):
            schedule.pop_due(7)
