"""Property tests: buffers and credits under random operation sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.buffers import CreditCounter, InputBuffer, mean_utilisation
from repro.network.packet import Packet


def flit_stream(n: int):
    packet = Packet(1, src=0, dst=1, size=max(1, n), create_time=0)
    return packet.make_flits()


@st.composite
def push_pop_programs(draw):
    """A random feasible sequence of push/pop against a bounded buffer."""
    capacity = draw(st.integers(min_value=1, max_value=8))
    ops = []
    occupancy = 0
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        can_push = occupancy < capacity
        can_pop = occupancy > 0
        if can_push and (not can_pop or draw(st.booleans())):
            ops.append("push")
            occupancy += 1
        elif can_pop:
            ops.append("pop")
            occupancy -= 1
    return capacity, ops


class TestBufferProperties:
    @given(push_pop_programs())
    @settings(max_examples=200)
    def test_fifo_order_preserved(self, program):
        capacity, ops = program
        buffer = InputBuffer(capacity)
        flits = iter(flit_stream(len(ops) + 1))
        pushed, popped = [], []
        for t, op in enumerate(ops):
            if op == "push":
                flit = next(flits)
                buffer.push(flit, float(t))
                pushed.append(flit)
            else:
                popped.append(buffer.pop(float(t)))
        assert popped == pushed[:len(popped)]

    @given(push_pop_programs())
    @settings(max_examples=200)
    def test_occupancy_never_exceeds_capacity(self, program):
        capacity, ops = program
        buffer = InputBuffer(capacity)
        flits = iter(flit_stream(len(ops) + 1))
        for t, op in enumerate(ops):
            if op == "push":
                buffer.push(next(flits), float(t))
            else:
                buffer.pop(float(t))
            assert 0 <= buffer.occupancy <= capacity
            assert buffer.free_slots == capacity - buffer.occupancy

    @given(push_pop_programs())
    @settings(max_examples=100)
    def test_mean_utilisation_bounded(self, program):
        capacity, ops = program
        buffer = InputBuffer(capacity)
        flits = iter(flit_stream(len(ops) + 1))
        for t, op in enumerate(ops):
            if op == "push":
                buffer.push(next(flits), float(t))
            else:
                buffer.pop(float(t))
        window_end = float(len(ops)) + 1.0
        utilisation = mean_utilisation((buffer,), 0.0, window_end)
        assert 0.0 <= utilisation <= 1.0


class TestCreditMirror:
    @given(push_pop_programs())
    @settings(max_examples=200)
    def test_credits_mirror_buffer_occupancy(self, program):
        """Drive both ends of the credit protocol and assert agreement.

        The sender consumes a credit per push; the receiver refills one
        per pop.  At every step the credit count must equal the free
        slots — the invariant real hardware must maintain.
        """
        capacity, ops = program
        buffer = InputBuffer(capacity)
        credits = CreditCounter(capacity)
        flits = iter(flit_stream(len(ops) + 1))
        for t, op in enumerate(ops):
            if op == "push":
                assert credits.can_send()
                credits.consume()
                buffer.push(next(flits), float(t))
            else:
                buffer.pop(float(t))
                credits.refill()
            assert credits.available == buffer.free_slots
