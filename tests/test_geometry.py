"""Unit tests for the planar geometry primitives."""

import math

import pytest

from repro.grid.geometry import (
    BoundingBox,
    Point,
    bounding_box_of,
    centroid,
    total_path_length,
)


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

    def test_translated_returns_new_point(self):
        p = Point(1.0, 2.0)
        q = p.translated(0.5, -1.0)
        assert q == Point(1.5, 1.0)
        assert p == Point(1.0, 2.0), "original point must be unchanged (immutability)"

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(4, 6)) == Point(2, 3)

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

    def test_shrunk(self):
        inner = BoundingBox(0, 0, 4, 4).shrunk(1)
        assert inner == BoundingBox(1, 1, 3, 3)

    def test_shrunk_too_far_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, 1).shrunk(0.6)

    def test_corners_order(self):
        corners = BoundingBox(0, 0, 1, 2).corners()
        assert corners == (Point(0, 0), Point(1, 0), Point(1, 2), Point(0, 2))

    def test_intersects(self):
        a = BoundingBox(0, 0, 2, 2)
        assert a.intersects(BoundingBox(1, 1, 3, 3))
        assert a.intersects(BoundingBox(2, 2, 3, 3)), "touching boxes intersect"
        assert not a.intersects(BoundingBox(2.1, 0, 3, 1))


class TestHelpers:
    def test_centroid(self):
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert centroid(points) == Point(1, 1)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_bounding_box_of(self):
        box = bounding_box_of([Point(1, 5), Point(-2, 3), Point(0, 0)])
        assert box == BoundingBox(-2, 0, 1, 5)

    def test_bounding_box_of_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box_of([])

    def test_total_path_length(self):
        path = [Point(0, 0), Point(3, 4), Point(3, 4)]
        assert total_path_length(path) == pytest.approx(5.0)
        assert total_path_length([Point(0, 0)]) == 0.0
