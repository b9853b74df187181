"""Unit tests for mesh routing functions."""

from repro.network.routing import (
    EAST,
    NORTH,
    OPPOSITE,
    SOUTH,
    WEST,
    hop_count,
    xy_route,
)


class TestXy:
    def test_x_before_y(self):
        assert xy_route(0, 0, 2, 2) == EAST
        assert xy_route(3, 0, 2, 2) == WEST

    def test_y_after_x_done(self):
        assert xy_route(2, 0, 2, 2) == SOUTH
        assert xy_route(2, 3, 2, 2) == NORTH

    def test_arrived(self):
        assert xy_route(2, 2, 2, 2) == -1

    def test_full_path_reaches_destination(self):
        x, y = 0, 3
        dst = (3, 0)
        offsets = {EAST: (1, 0), WEST: (-1, 0), NORTH: (0, -1), SOUTH: (0, 1)}
        for _ in range(10):
            d = xy_route(x, y, *dst)
            if d < 0:
                break
            dx, dy = offsets[d]
            x, y = x + dx, y + dy
        assert (x, y) == dst

    def test_path_length_is_minimal(self):
        x, y, dst = 0, 0, (3, 2)
        hops = 0
        offsets = {EAST: (1, 0), WEST: (-1, 0), NORTH: (0, -1), SOUTH: (0, 1)}
        while True:
            d = xy_route(x, y, *dst)
            if d < 0:
                break
            dx, dy = offsets[d]
            x, y = x + dx, y + dy
            hops += 1
        assert hops == hop_count(0, 0, *dst) == 5


class TestHelpers:
    def test_opposites(self):
        assert OPPOSITE[EAST] == WEST
        assert OPPOSITE[WEST] == EAST
        assert OPPOSITE[NORTH] == SOUTH
        assert OPPOSITE[SOUTH] == NORTH

    def test_hop_count_manhattan(self):
        assert hop_count(0, 0, 3, 4) == 7
        assert hop_count(2, 2, 2, 2) == 0
