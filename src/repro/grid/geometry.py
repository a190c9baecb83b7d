"""Planar geometry primitives used throughout the simulator.

Everything in the paper happens on a flat 2-D surveillance area, so the only
geometry needed is points, axis-aligned boxes, and Euclidean distance.  The
classes here are immutable value objects so they can be freely shared between
the network state, the event log, and metric records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Tuple


class Point(NamedTuple):
    """A point in the 2-D surveillance plane (coordinates in metres).

    A named tuple, like :class:`~repro.grid.virtual_grid.GridCoord`: every
    replacement move builds two (its source and its drawn target), and a
    positional tuple build costs a fraction of a frozen dataclass's.  Points
    are immutable, hash and order as their ``(x, y)`` tuple, and unpack as
    ``x, y``.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_distance_to(self, other: "Point") -> float:
        """L1 distance to ``other`` (useful for grid-aligned estimates)."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple (handy for numpy interop)."""
        return (self.x, self.y)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise ValueError(
                "BoundingBox requires max >= min on both axes, got "
                f"x:[{self.min_x}, {self.max_x}] y:[{self.min_y}, {self.max_y}]"
            )

    @property
    def width(self) -> float:
        """Extent along the x axis (metres)."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis (metres)."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Rectangle area (square metres)."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Geometric centre of the rectangle."""
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, point: Point, tolerance: float = 0.0) -> bool:
        """Whether ``point`` lies inside the box (closed, with ``tolerance`` slack)."""
        return (
            self.min_x - tolerance <= point.x <= self.max_x + tolerance
            and self.min_y - tolerance <= point.y <= self.max_y + tolerance
        )

    def clamp(self, point: Point) -> Point:
        """Return the closest point inside the box to ``point``."""
        return Point(
            min(max(point.x, self.min_x), self.max_x),
            min(max(point.y, self.min_y), self.max_y),
        )

    def shrunk(self, margin: float) -> "BoundingBox":
        """Return the box shrunk by ``margin`` on every side.

        Raises :class:`ValueError` when the margin would invert the box.
        """
        return BoundingBox(
            self.min_x + margin,
            self.min_y + margin,
            self.max_x - margin,
            self.max_y - margin,
        )

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from ``(min_x, min_y)``."""
        return (
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether the two closed boxes share at least one point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )


def centroid(points: Sequence[Point]) -> Point:
    """Arithmetic mean of a non-empty sequence of points."""
    if not points:
        raise ValueError("centroid() requires at least one point")
    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    return Point(sx / len(points), sy / len(points))

def bounding_box_of(points: Iterable[Point]) -> BoundingBox:
    """Smallest axis-aligned box containing every point in ``points``."""
    points = list(points)
    if not points:
        raise ValueError("bounding_box_of() requires at least one point")
    return BoundingBox(
        min(p.x for p in points),
        min(p.y for p in points),
        max(p.x for p in points),
        max(p.y for p in points),
    )


def total_path_length(points: Sequence[Point]) -> float:
    """Length of the polyline visiting ``points`` in order."""
    return sum(a.distance_to(b) for a, b in zip(points, points[1:]))
