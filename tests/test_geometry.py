"""Unit tests for the planar geometry primitives."""

import pytest

from repro.grid.geometry import BoundingBox, Point


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-4.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        p = Point(2.0, 3.0)
        assert p.distance_to(p) == 0.0

    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_distance_to(Point(3, -4)) == pytest.approx(7.0)

    def test_points_are_hashable_and_comparable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
        assert Point(1, 2) < Point(2, 1)

    def test_iteration_and_tuple(self):
        x, y = Point(3.5, 4.5)
        assert (x, y) == (3.5, 4.5)
        assert Point(3.5, 4.5).as_tuple() == (3.5, 4.5)
        assert type(Point(3.5, 4.5).as_tuple()) is tuple

    def test_hash_and_order_are_the_coordinate_pairs(self):
        points = [Point(2.0, 1.0), Point(1.0, 3.0), Point(1.0, 2.0)]
        assert sorted(points) == [Point(1.0, 2.0), Point(1.0, 3.0), Point(2.0, 1.0)]
        assert hash(Point(1.5, -2.0)) == hash((1.5, -2.0))
        assert Point(x=1.0, y=2.0) == Point(1.0, 2.0)
        assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0)"

    def test_fields_cannot_be_assigned(self):
        point = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            point.x = 5.0
        with pytest.raises(AttributeError):
            point.z = 5.0
        assert point == Point(1.0, 2.0)


class TestBoundingBox:
    def test_dimensions_and_area(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2
        assert box.area == 8
        assert box.center == Point(2, 1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, 5, 5, 4)

    def test_contains_is_closed(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.contains(Point(0, 0))
        assert box.contains(Point(1, 1))
        assert not box.contains(Point(1.0001, 0.5))
        assert box.contains(Point(1.0001, 0.5), tolerance=0.001)

    def test_clamp_projects_outside_points(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.clamp(Point(-1, 5)) == Point(0, 2)
        assert box.clamp(Point(1, 1)) == Point(1, 1)

    @pytest.mark.parametrize(
        "point, expected",
        [
            (Point(1.0, 1.5), Point(1.0, 1.5)),
            (Point(0.0, 3.0), Point(0.0, 3.0)),
            (Point(-2.0, 1.0), Point(0.0, 1.0)),
            (Point(5.0, 1.0), Point(2.0, 1.0)),
            (Point(1.0, -1.0), Point(1.0, 0.0)),
            (Point(1.0, 9.0), Point(1.0, 3.0)),
            (Point(-1.0, -1.0), Point(0.0, 0.0)),
            (Point(3.0, 4.0), Point(2.0, 3.0)),
        ],
        ids=["inside", "on-corner", "west", "east", "south", "north", "south-west", "north-east"],
    )
    def test_clamp_is_the_nearest_point_of_the_box(self, point, expected):
        """VF clamps each step with it, so a node never leaves the area."""
        box = BoundingBox(0, 0, 2, 3)
        clamped = box.clamp(point)
        assert clamped == expected
        assert box.contains(clamped)
        lattice = [Point(i / 4, j / 4) for i in range(9) for j in range(13)]
        nearest = min(point.distance_to(q) for q in lattice)
        assert point.distance_to(clamped) <= nearest

    def test_shrunk(self):
        inner = BoundingBox(0, 0, 4, 4).shrunk(1)
        assert inner == BoundingBox(1, 1, 3, 3)

    def test_shrunk_too_far_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1).shrunk(0.6)
