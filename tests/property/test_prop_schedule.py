"""Property test: the arrival calendar delivers every flit exactly once.

Random pushes onto a real simulator's links — mixed service times
(including sub-cycle ones, where one link delivers twice a cycle) and
fractional propagation delays — are run through the simulator's own
deliver phase, with and without a ``delivery`` hook.  Every flit must
come out exactly once, at ``ceil(arrival)``; within a cycle, links in
ascending id order, each link's flits in push (FIFO) order; and with a
hook attached, each link's hooks fire right after its own deliveries.
"""

from math import ceil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.traffic.base import TrafficSource

HORIZON = 16
LINK_IDS = (0, 3, 4, 9, 15)


class SilentTraffic(TrafficSource):
    def generate(self, now):
        return []

    def exhausted(self, now):
        return True


#: One scripted push: (cycle, link index, service time).
PUSHES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=HORIZON - 6),
        st.integers(min_value=0, max_value=len(LINK_IDS) - 1),
        st.sampled_from((0.3, 0.5, 1.0, 1.25, 2.0)),
    ),
    min_size=1, max_size=40,
)
PROPAGATION = st.lists(st.sampled_from((0.0, 0.4, 1.0, 2.7)),
                       min_size=len(LINK_IDS), max_size=len(LINK_IDS))


class TestExactlyOnceInOrder:
    @settings(max_examples=60, deadline=None)
    @given(pushes=PUSHES, propagation=PROPAGATION, hooked=st.booleans())
    def test_every_flit_delivered_once(self, pushes, propagation, hooked):
        sim = Simulator(
            SimulationConfig(network=NetworkConfig(
                mesh_width=2, mesh_height=2, nodes_per_cluster=1),
                power=None),
            SilentTraffic(4),
        )
        events: list[tuple] = []
        for link in sim.network.links:
            link.deliver = (lambda link_id: lambda flit, now: events.append(
                ("deliver", now, link_id, flit)))(link.link_id)
            link.sink = None
        if hooked:
            sim.hooks.add("delivery", lambda link, flit, now: events.append(
                ("hook", now, link.link_id, flit)))

        by_cycle: dict[int, list[tuple[int, float]]] = {}
        for cycle, index, service in pushes:
            by_cycle.setdefault(cycle, []).append((index, service))
        links = [sim.network.links[link_id] for link_id in LINK_IDS]
        for link, prop in zip(links, propagation):
            link.propagation_cycles = prop

        expected: list[tuple[int, int, int, object]] = []
        serial = 0
        for now in range(HORIZON):
            sim._phase_deliver(now)
            for index, service in by_cycle.get(now, ()):
                link = links[index]
                link.set_service_time(service)
                # A sub-cycle serialiser takes a second flit mid-cycle.
                for start in (now, now + service):
                    if start >= now + 1 or not link.can_accept(start):
                        continue
                    (flit,) = Packet(serial, 0, 1, 1, now).make_flits()
                    link.push(flit, start)
                    arrival = link._in_flight[-1][0]
                    expected.append((ceil(arrival), link.link_id, serial,
                                     flit))
                    serial += 1
        for now in range(HORIZON, HORIZON + 8):
            sim._phase_deliver(now)
        assert not sim._calendar.pending()

        delivered = [event[1:] for event in events if event[0] == "deliver"]
        # Exactly once, at ceil(arrival), ordered by (cycle, link id) and
        # FIFO within a link — the push serial encodes FIFO order.
        expected.sort(key=lambda entry: entry[:3])
        assert delivered == [(cycle, link_id, flit)
                             for cycle, link_id, _, flit in expected]
        if hooked:
            # Each link's run of deliveries is followed by exactly its
            # hooks, in the same order.
            position = 0
            while position < len(events):
                run_link = events[position][2]
                end = position
                while end < len(events) and events[end][0] == "deliver" \
                        and events[end][2] == run_link:
                    end += 1
                run = events[position:end]
                hooks = events[end:end + len(run)]
                assert [("hook",) + event[1:] for event in run] == hooks
                position = end + len(run)
        else:
            assert all(event[0] == "deliver" for event in events)
