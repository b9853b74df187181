"""Unit tests for input buffers and credit counters."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.network.buffers import CreditCounter, InputBuffer, mean_utilisation
from repro.network.packet import Packet


def make_flits(n: int):
    return Packet(1, src=0, dst=1, size=n, create_time=0).make_flits()


class TestInputBuffer:
    def test_fifo_order(self):
        buffer = InputBuffer(4)
        flits = make_flits(3)
        for i, flit in enumerate(flits):
            buffer.push(flit, now=i)
        assert [buffer.pop(10).index for _ in range(3)] == [0, 1, 2]

    def test_overflow_raises(self):
        buffer = InputBuffer(2)
        flits = make_flits(3)
        buffer.push(flits[0], 0)
        buffer.push(flits[1], 0)
        with pytest.raises(SimulationError):
            buffer.push(flits[2], 0)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            InputBuffer(2).pop(0)

    def test_head_empty_raises(self):
        with pytest.raises(SimulationError):
            InputBuffer(2).head()

    def test_occupancy_and_free_slots(self):
        buffer = InputBuffer(4)
        (flit,) = make_flits(1)
        buffer.push(flit, 0)
        assert buffer.occupancy == 1
        assert buffer.free_slots == 3
        assert not buffer.is_empty
        assert not buffer.is_full

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            InputBuffer(0)


class TestOccupancyIntegral:
    def test_constant_occupancy_window(self):
        buffer = InputBuffer(4)
        (flit,) = make_flits(1)
        buffer.push(flit, 0.0)
        # One flit in a 4-slot buffer for the whole [0, 100) window.
        assert mean_utilisation((buffer,), 0.0, 100.0) == pytest.approx(0.25)

    def test_half_window_occupancy(self):
        buffer = InputBuffer(4)
        (flit,) = make_flits(1)
        buffer.push(flit, 50.0)
        assert mean_utilisation((buffer,), 0.0, 100.0) == pytest.approx(0.125)

    def test_push_then_pop_partial(self):
        buffer = InputBuffer(2)
        (flit,) = make_flits(1)
        buffer.push(flit, 0.0)
        buffer.pop(25.0)
        # 1 flit of 2 slots for a quarter of the window.
        assert mean_utilisation((buffer,), 0.0, 100.0) == pytest.approx(0.125)

    def test_integral_resets_per_window(self):
        buffer = InputBuffer(4)
        (flit,) = make_flits(1)
        buffer.push(flit, 0.0)
        buffer.pop(100.0)
        assert mean_utilisation((buffer,), 0.0, 100.0) == pytest.approx(0.25)
        # Next window: buffer was empty throughout.
        assert mean_utilisation((buffer,), 100.0, 200.0) == pytest.approx(0.0)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ConfigError):
            mean_utilisation((InputBuffer(2),), 10.0, 10.0)


class TestCreditCounter:
    def test_starts_full(self):
        assert CreditCounter(8).available == 8

    def test_consume_refill_cycle(self):
        credits = CreditCounter(2)
        credits.consume()
        credits.consume()
        assert not credits.can_send()
        credits.refill()
        assert credits.can_send()
        assert credits.available == 1

    def test_underflow_raises(self):
        credits = CreditCounter(1)
        credits.consume()
        with pytest.raises(SimulationError):
            credits.consume()

    def test_overflow_raises(self):
        credits = CreditCounter(1)
        with pytest.raises(SimulationError):
            credits.refill()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            CreditCounter(0)
