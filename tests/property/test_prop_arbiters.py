"""Property tests: the arbiter grants validly and starves no one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.arbiters import RoundRobinArbiter

request_sets = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=8,
             unique=True),
    min_size=1, max_size=60,
)


class TestGrantValidity:
    @given(request_sets)
    @settings(max_examples=200)
    def test_round_robin_grants_a_requester(self, rounds):
        arbiter = RoundRobinArbiter(8)
        for requests in rounds:
            grant = arbiter.grant(requests)
            if requests:
                assert grant in requests
            else:
                assert grant == -1


class TestNoStarvation:
    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=50)
    def test_round_robin_serves_everyone_within_n_rounds(self, size):
        arbiter = RoundRobinArbiter(size)
        everyone = list(range(size))
        winners = [arbiter.grant(everyone) for _ in range(size)]
        assert sorted(winners) == everyone

    @given(request_sets)
    @settings(max_examples=100)
    def test_round_robin_bounded_wait(self, rounds):
        """A persistent requester wins within `size` grants of appearing."""
        size = 8
        arbiter = RoundRobinArbiter(size)
        waiting = {}
        for requests in rounds:
            persistent = set(requests) | set(waiting)
            if not persistent:
                continue
            grant = arbiter.grant(sorted(persistent))
            for r in persistent:
                waiting[r] = waiting.get(r, 0) + 1
                assert waiting[r] <= size
            waiting.pop(grant, None)
