"""Unit tests for the round-robin arbiter."""

import pytest

from repro.errors import ConfigError
from repro.network.arbiters import RoundRobinArbiter


class TestRoundRobin:
    def test_single_requester_wins(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.grant([2]) == 2

    def test_no_requests(self):
        assert RoundRobinArbiter(4).grant([]) == -1

    def test_rotation_after_grant(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.grant([0, 1]) == 0
        # Priority rotated past 0, so 1 wins the rematch.
        assert arbiter.grant([0, 1]) == 1

    def test_round_robin_is_fair_over_cycle(self):
        arbiter = RoundRobinArbiter(3)
        winners = [arbiter.grant([0, 1, 2]) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_wraps_around(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.grant([3])
        assert arbiter.grant([0, 3]) == 0

    def test_out_of_range_request_rejected(self):
        with pytest.raises(ConfigError):
            RoundRobinArbiter(2).grant([5])

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            RoundRobinArbiter(0)

