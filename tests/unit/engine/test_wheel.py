"""Unit tests for the event wheel."""

import math

import pytest

from repro.engine.wheel import (
    NEVER,
    PRI_EPOCH,
    PRI_SAMPLE,
    PRI_TRANSITION,
    PRI_WINDOW,
    EventWheel,
)
from repro.errors import ConfigError


class TestScheduling:
    def test_empty_wheel_never_fires(self):
        wheel = EventWheel()
        assert wheel.next_cycle == NEVER
        wheel.service(10_000)  # no-op, no error

    def test_event_fires_at_its_cycle(self):
        wheel = EventWheel()
        fired = []
        wheel.schedule(5, fired.append)
        assert wheel.next_cycle == 5
        wheel.service(4)
        assert fired == []
        wheel.service(5)
        assert fired == [5]
        assert wheel.next_cycle == NEVER

    def test_float_times_round_up(self):
        # ceil(when) is the first integer cycle where a legacy
        # ``now >= when`` poll would have fired.
        wheel = EventWheel()
        fired = []
        wheel.schedule(3.2, fired.append)
        wheel.service(3)
        assert fired == []
        wheel.service(4)
        assert fired == [4]

    def test_past_event_fires_on_next_service(self):
        wheel = EventWheel()
        fired = []
        wheel.schedule(0, fired.append)
        wheel.service(7)
        assert fired == [7]

    def test_non_finite_time_rejected(self):
        wheel = EventWheel()
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError):
                wheel.schedule(bad, lambda now: None)


class TestOrdering:
    def test_same_cycle_priority_order(self):
        wheel = EventWheel()
        order = []
        wheel.schedule(3, lambda now: order.append("sample"), PRI_SAMPLE)
        wheel.schedule(3, lambda now: order.append("transition"),
                       PRI_TRANSITION)
        wheel.schedule(3, lambda now: order.append("epoch"), PRI_EPOCH)
        wheel.schedule(3, lambda now: order.append("window"), PRI_WINDOW)
        wheel.service(3)
        assert order == ["transition", "window", "epoch", "sample"]

    def test_equal_priority_preserves_insertion_order(self):
        wheel = EventWheel()
        order = []
        for tag in ("a", "b", "c"):
            wheel.schedule(1, lambda now, tag=tag: order.append(tag))
        wheel.service(1)
        assert order == ["a", "b", "c"]

    def test_catching_up_runs_buckets_in_cycle_order(self):
        wheel = EventWheel()
        order = []
        wheel.schedule(8, lambda now: order.append(8))
        wheel.schedule(2, lambda now: order.append(2))
        wheel.schedule(5, lambda now: order.append(5))
        wheel.service(10)
        assert order == [2, 5, 8]


class TestRescheduling:
    def test_callback_can_self_reschedule(self):
        wheel = EventWheel()
        fired = []

        def tick(now):
            fired.append(now)
            wheel.schedule(now + 10, tick)

        wheel.schedule(0, tick)
        for now in range(35):
            if wheel.next_cycle <= now:
                wheel.service(now)
        assert fired == [0, 10, 20, 30]

    def test_callback_scheduling_same_cycle_runs_same_service(self):
        wheel = EventWheel()
        fired = []

        def first(now):
            fired.append("first")
            wheel.schedule(now, lambda n: fired.append("second"))

        wheel.schedule(4, first)
        wheel.service(4)
        assert fired == ["first", "second"]
        assert wheel.next_cycle == NEVER


class TestNextEventOutside:
    def test_skips_cycles_holding_only_the_given_priorities(self):
        wheel = EventWheel()
        wheel.schedule(3, lambda n: None, PRI_SAMPLE)
        wheel.schedule(5, lambda n: None, PRI_TRANSITION)
        wheel.schedule(8, lambda n: None, PRI_WINDOW)
        wheel.schedule(8, lambda n: None, PRI_SAMPLE)
        quiet = (PRI_TRANSITION, PRI_SAMPLE)
        assert wheel.next_event_outside(quiet) == 8
        assert wheel.next_event_outside(()) == 3

    def test_follows_schedule_and_service(self):
        wheel = EventWheel()
        quiet = (PRI_SAMPLE,)
        assert wheel.next_event_outside(quiet) == NEVER
        wheel.schedule(6, lambda n: None, PRI_EPOCH)
        assert wheel.next_event_outside(quiet) == 6
        wheel.schedule(4, lambda n: None, PRI_WINDOW)
        assert wheel.next_event_outside(quiet) == 4
        wheel.service(4)
        assert wheel.next_event_outside(quiet) == 6
        wheel.service(6)
        assert wheel.next_event_outside(quiet) == NEVER
