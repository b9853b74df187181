"""Unit tests for the variable-bit-rate link transport."""

import pytest

from repro.engine.schedule import DeliverySchedule
from repro.errors import ConfigError, LinkStateError
from repro.network.links import INJECTION, MESH, Link
from repro.network.packet import Packet


def make_flits(n: int):
    return Packet(1, src=0, dst=1, size=n, create_time=0).make_flits()


def make_link(service_time=1.0, propagation=1.0) -> Link:
    return Link(0, MESH, propagation_cycles=propagation,
                service_time=service_time)


def scheduled_link(service_time=1.0, propagation=1.0):
    """A link filing its arrivals in a fresh delivery calendar."""
    link = make_link(service_time, propagation)
    schedule = DeliverySchedule()
    link.calendar = schedule.buckets
    return link, schedule


def deliver(link: Link, schedule: DeliverySchedule, now: int) -> list:
    """The flits the deliver phase hands over at cycle ``now``: one deque
    front per calendar entry due by then."""
    return [link._in_flight.popleft()[1] for _ in schedule.pop_due(now)]


class TestSerialisation:
    def test_flit_arrives_after_service_plus_propagation(self):
        link, schedule = scheduled_link(service_time=2.0, propagation=1.0)
        (flit,) = make_flits(1)
        link.push(flit, 10.0)
        assert deliver(link, schedule, 12) == []
        assert deliver(link, schedule, 13) == [flit]

    def test_back_to_back_spacing(self):
        link, schedule = scheduled_link(service_time=2.0, propagation=0.0)
        flits = make_flits(2)
        link.push(flits[0], 0.0)
        assert not link.can_accept(1.0)
        assert link.can_accept(2.0)
        link.push(flits[1], 2.0)
        assert deliver(link, schedule, 2) == [flits[0]]
        assert deliver(link, schedule, 3) == []
        assert deliver(link, schedule, 4) == [flits[1]]

    def test_push_while_busy_raises(self):
        link = make_link(service_time=2.0)
        flits = make_flits(2)
        link.push(flits[0], 0.0)
        with pytest.raises(LinkStateError):
            link.push(flits[1], 1.0)

    def test_arrivals_in_order(self):
        link, schedule = scheduled_link(service_time=1.0, propagation=2.0)
        flits = make_flits(3)
        for i, flit in enumerate(flits):
            link.push(flit, float(i))
        assert deliver(link, schedule, 100) == flits


class TestRateChange:
    def test_faster_rate_shortens_service(self):
        link = make_link(service_time=2.0, propagation=0.0)
        flits = make_flits(2)
        link.push(flits[0], 0.0)
        link.set_service_time(1.0)
        link.push(flits[1], 2.0)
        # Second flit serialised in 1 cycle at the new rate.
        assert link.free_at == pytest.approx(3.0)

    def test_in_flight_keeps_old_timing(self):
        link, schedule = scheduled_link(service_time=2.0, propagation=1.0)
        (flit,) = make_flits(1)
        link.push(flit, 0.0)
        link.set_service_time(1.0)
        assert deliver(link, schedule, 2) == []
        assert deliver(link, schedule, 3) == [flit]

    def test_invalid_service_time_rejected(self):
        with pytest.raises(ConfigError):
            make_link().set_service_time(0.0)


class TestDisable:
    def test_disabled_link_refuses(self):
        link = make_link()
        link.disable_for(10.0, 20.0)
        assert not link.can_accept(29.9)
        assert link.can_accept(30.0)

    def test_disable_never_shrinks(self):
        link = make_link()
        link.disable_for(0.0, 50.0)
        link.disable_for(10.0, 10.0)
        assert link.disabled_until == 50.0

    def test_push_while_disabled_raises(self):
        link = make_link()
        link.disable_for(0.0, 5.0)
        (flit,) = make_flits(1)
        with pytest.raises(LinkStateError):
            link.push(flit, 2.0)


class TestCounters:
    def test_busy_time_accumulates_service(self):
        link = make_link(service_time=2.0, propagation=0.0)
        flits = make_flits(3)
        for i, flit in enumerate(flits):
            link.push(flit, i * 2.0)
        assert link.take_counters()[0] == pytest.approx(6.0)
        assert link.take_counters()[0] == 0.0  # reset on read

    def test_pressure_independent_of_busy(self):
        link = make_link()
        link.pressure_accum += 5.0
        assert link.take_counters() == (0.0, 5.0)
        assert link.take_counters() == (0.0, 0.0)

    def test_flits_carried(self):
        link = make_link(service_time=1.0)
        for i, flit in enumerate(make_flits(4)):
            link.push(flit, float(i))
        assert link.flits_carried == 4


class TestRegistry:
    def test_registry_tracks_in_flight(self):
        # The delivery registry is the simulator's arrival calendar: every
        # push files the link's id under ceil(arrival), one per flit.
        schedule = DeliverySchedule()
        link = Link(7, MESH, propagation_cycles=0.5)
        link.calendar = schedule.buckets
        for now, flit in enumerate(make_flits(2)):
            link.push(flit, float(now))
        assert dict(schedule.buckets) == {2: [7], 3: [7]}
        # The deliver phase consumes the entries; the link only files.
        assert len(deliver(link, schedule, 100)) == 2
        assert not link.has_in_flight
        assert not schedule.pending()

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError):
            Link(0, "wireless")

    def test_kinds_exposed(self):
        assert make_link().kind == MESH
        assert Link(1, INJECTION).kind == INJECTION


class TestBusyTimeProRating:
    """Regression: push bills a flit's full service time up front, so a
    flit straddling a sampling-window boundary used to be counted entirely
    in the window where the push happened.  take_counters(now) must carry
    the still-ahead serialisation time into the next window."""

    def test_straddling_flit_split_across_windows(self):
        link = make_link(service_time=4.0)
        (flit,) = make_flits(1)
        link.push(flit, 8.0)  # serialises over [8, 12)
        # Window ends at 10: only 2 of the 4 cycles belong to it.
        assert link.take_counters(10.0)[0] == pytest.approx(2.0)
        assert link.busy_accum == pytest.approx(2.0)
        # The carried 2 cycles land in the next window.
        assert link.take_counters(20.0)[0] == pytest.approx(2.0)
        assert link.busy_accum == 0.0

    def test_flit_fully_inside_window_is_fully_billed(self):
        link = make_link(service_time=3.0)
        (flit,) = make_flits(1)
        link.push(flit, 1.0)
        assert link.take_counters(10.0)[0] == pytest.approx(3.0)
        assert link.busy_accum == 0.0

    def test_omitting_now_takes_the_full_accumulator(self):
        link = make_link(service_time=4.0)
        (flit,) = make_flits(1)
        link.push(flit, 8.0)
        assert link.take_counters()[0] == pytest.approx(4.0)
        assert link.busy_accum == 0.0

    def test_windows_sum_to_total_service_time(self):
        link = make_link(service_time=2.5, propagation=0.0)
        flits = make_flits(4)
        now = 0.0
        for flit in flits:
            link.push(flit, now)
            now += 2.5
        total = sum(
            link.take_counters(float(end))[0] for end in (3, 6, 9, 12)
        )
        assert total == pytest.approx(4 * 2.5)
        assert link.busy_accum == 0.0
