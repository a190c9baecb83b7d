"""Planar geometry primitives used throughout the simulator.

Everything in the paper happens on a flat 2-D surveillance area, so the only
geometry needed is points, axis-aligned boxes, and Euclidean distance.  The
classes here are immutable value objects so they can be freely shared between
the network state and metric records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple


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
