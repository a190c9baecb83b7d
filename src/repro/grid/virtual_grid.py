"""The virtual grid model (GAF partition) from Section 2 of the paper.

The surveillance area is divided into an ``n x m`` system of square cells of
side ``r``.  A cell is addressed by its relative location ``(x, y)`` with
``0 <= x <= n - 1`` and ``0 <= y <= m - 1`` exactly as in Figure 1(a) of the
paper.  Two cells are *neighbouring grids* when their addresses differ by one
in exactly one dimension; cells not on the edge therefore have four
neighbours (north, south, east, west).

With communication range ``R = sqrt(5) * r`` every enabled node can talk to
any node in a neighbouring cell, which is the property the grid-head overlay
relies on for connectivity (Xu & Heidemann, MOBICOM'01).
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.grid.geometry import BoundingBox, Point

#: Ratio between the communication range and the cell side that guarantees
#: neighbouring-cell communication in the GAF model: ``R = sqrt(5) * r``.
GAF_RANGE_FACTOR = math.sqrt(5.0)

#: How many grid shapes the per-shape cell tables (:meth:`VirtualGrid.coord_list`,
#: :attr:`VirtualGrid.neighbour_table`) are kept for.  A process works on a
#: handful of shapes; the bound only stops one that visits many from
#: holding them all.
GRID_TABLE_CACHE_SIZE = 16


class GridCoord(NamedTuple):
    """Address of a cell in the virtual grid: ``(x, y)`` as in the paper.

    A named tuple rather than a (frozen) dataclass: coordinates are the hot
    dict/set key of every state index and of the SR/AR controllers' per-cell
    bookkeeping, and the C-level tuple hash/equality is several times faster
    than the generated dataclass ones.  Ordering, repr, and field access are
    unchanged; iteration and ``(x, y)`` equality come with the tuple.
    """

    x: int
    y: int

    def manhattan_distance_to(self, other: "GridCoord") -> int:
        """Grid (L1) distance to ``other`` in cells."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def is_neighbour_of(self, other: "GridCoord") -> bool:
        """Whether the two cells are neighbouring grids (share a full edge)."""
        return self.manhattan_distance_to(other) == 1

    def as_tuple(self) -> Tuple[int, int]:
        """The coordinate as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)


class AxisSpan(NamedTuple):
    """Geometry of one grid column (along X) or row (along Y), in metres.

    ``low``/``high`` bound the cells of the column or row, ``center`` is
    their centre line, and ``central_low``/``central_high`` bound the central
    ``r/2`` band that replacement moves target.
    """

    low: float
    high: float
    center: float
    central_low: float
    central_high: float


@functools.lru_cache(maxsize=GRID_TABLE_CACHE_SIZE)
def _coords_for_shape(columns: int, rows: int) -> List[GridCoord]:
    """Every cell address of a ``columns x rows`` grid, indexed by flat id."""
    return [GridCoord(x, y) for y in range(rows) for x in range(columns)]


@functools.lru_cache(maxsize=GRID_TABLE_CACHE_SIZE)
def _neighbour_table_for_shape(columns: int, rows: int) -> Tuple[Tuple[int, ...], ...]:
    """Flat ids of every cell's 4-neighbours, in :meth:`VirtualGrid.neighbours` order."""
    table = []
    for y in range(rows):
        for x in range(columns):
            flat = y * columns + x
            cells = []
            if y + 1 < rows:
                cells.append(flat + columns)
            if y > 0:
                cells.append(flat - columns)
            if x + 1 < columns:
                cells.append(flat + 1)
            if x > 0:
                cells.append(flat - 1)
            table.append(tuple(cells))
    return tuple(table)


def _axis_spans(origin: float, count: int, cell_size: float) -> Tuple[AxisSpan, ...]:
    """Spans of ``count`` consecutive cells starting at ``origin``.

    The expressions are the ones the per-cell box construction used
    (``BoundingBox.center``, ``BoundingBox.shrunk``), so every float is
    identical to what computing a box per call gave.
    """
    margin = cell_size / 4.0
    spans = []
    for index in range(count):
        low = origin + index * cell_size
        high = low + cell_size
        spans.append(AxisSpan(low, high, (low + high) / 2.0, low + margin, high - margin))
    return tuple(spans)


def cell_side_for_range(communication_range: float) -> float:
    """Cell side ``r`` for a given communication range ``R`` (``r = R / sqrt(5)``).

    This is the value the paper uses in its experiments: for ``R = 10 m`` the
    cells are ``4.4721 m x 4.4721 m``.
    """
    if communication_range <= 0:
        raise ValueError("communication_range must be positive")
    return communication_range / GAF_RANGE_FACTOR


def required_range_for_cell(cell_size: float) -> float:
    """Minimum communication range ``R`` for cell side ``r`` (``R = sqrt(5) * r``)."""
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    return GAF_RANGE_FACTOR * cell_size


class VirtualGrid:
    """An ``n x m`` virtual grid of square ``r x r`` cells.

    Parameters
    ----------
    columns:
        Number of cells along the X axis (``n`` in the paper).
    rows:
        Number of cells along the Y axis (``m`` in the paper).
    cell_size:
        Side length ``r`` of every cell, in metres.
    origin:
        World coordinates of the south-west corner of cell ``(0, 0)``.
    """

    def __init__(
        self,
        columns: int,
        rows: int,
        cell_size: float,
        origin: Point = Point(0.0, 0.0),
    ) -> None:
        if columns < 1 or rows < 1:
            raise ValueError(f"grid must be at least 1x1, got {columns}x{rows}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._columns = int(columns)
        self._rows = int(rows)
        self._cell_size = float(cell_size)
        self._origin = origin
        # Shared per shape (built by the first grid of a shape in a process),
        # so every later grid of that shape, one per spec, only looks them up.
        self._coords = _coords_for_shape(self._columns, self._rows)
        self._neighbour_table = _neighbour_table_for_shape(self._columns, self._rows)
        self._column_spans = _axis_spans(origin.x, self._columns, self._cell_size)
        self._row_spans = _axis_spans(origin.y, self._rows, self._cell_size)

    # ------------------------------------------------------------------ shape
    @property
    def columns(self) -> int:
        """Number of cells along X (``n``)."""
        return self._columns

    @property
    def rows(self) -> int:
        """Number of cells along Y (``m``)."""
        return self._rows

    @property
    def cell_size(self) -> float:
        """Cell side ``r`` in metres."""
        return self._cell_size

    @property
    def origin(self) -> Point:
        """Lower-left corner of the grid area (metres)."""
        return self._origin

    @property
    def column_spans(self) -> Tuple[AxisSpan, ...]:
        """Per-column X geometry, indexed by ``GridCoord.x`` (no range check)."""
        return self._column_spans

    @property
    def row_spans(self) -> Tuple[AxisSpan, ...]:
        """Per-row Y geometry, indexed by ``GridCoord.y`` (no range check)."""
        return self._row_spans

    @property
    def cell_count(self) -> int:
        """Total number of cells (``columns * rows``)."""
        return self._columns * self._rows

    @property
    def bounds(self) -> BoundingBox:
        """World-coordinate bounding box of the whole surveillance area."""
        return BoundingBox(
            self._origin.x,
            self._origin.y,
            self._origin.x + self._columns * self._cell_size,
            self._origin.y + self._rows * self._cell_size,
        )

    @property
    def required_communication_range(self) -> float:
        """``R = sqrt(5) * r`` — the range assumed by the paper's overlay."""
        return required_range_for_cell(self._cell_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"VirtualGrid(columns={self._columns}, rows={self._rows}, "
            f"cell_size={self._cell_size})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualGrid):
            return NotImplemented
        return (
            self._columns == other._columns
            and self._rows == other._rows
            and self._cell_size == other._cell_size
            and self._origin == other._origin
        )

    def __hash__(self) -> int:
        return hash((self._columns, self._rows, self._cell_size, self._origin))

    # ------------------------------------------------------------- membership
    def contains_coord(self, coord: GridCoord) -> bool:
        """Whether ``coord`` addresses a cell of this grid."""
        return 0 <= coord.x < self._columns and 0 <= coord.y < self._rows

    def validate_coord(self, coord: GridCoord) -> GridCoord:
        """Return ``coord`` unchanged, raising :class:`ValueError` if out of range."""
        if not self.contains_coord(coord):
            raise ValueError(
                f"cell {coord.as_tuple()} outside {self._columns}x{self._rows} grid"
            )
        return coord

    # ------------------------------------------------------------ enumeration
    def all_coords(self) -> Iterator[GridCoord]:
        """Iterate over every cell address in row-major order (y outer, x inner)."""
        for y in range(self._rows):
            for x in range(self._columns):
                yield GridCoord(x, y)

    def coord_list(self) -> List[GridCoord]:
        """All cell addresses in row-major order, shared per grid shape.

        The list is indexable by the *flat cell index* (``y * columns + x``)
        used by the struct-of-arrays state, so ``coord_list()[flat]`` is the
        inverse of :meth:`flat_index`.  Grids of one shape share the list;
        it is read-only by contract.
        """
        return self._coords

    @property
    def neighbour_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Flat ids of every cell's 4-neighbours, indexed by flat id.

        ``neighbour_table[flat]`` lists the same cells as
        :meth:`neighbours` of ``coord_at(flat)``, in the same order (north,
        south, east, west).  Built once per grid shape and shared.
        """
        return self._neighbour_table

    def flat_index(self, coord: GridCoord) -> int:
        """Flat row-major index of ``coord`` (``y * columns + x``), unchecked."""
        return coord.y * self._columns + coord.x

    def flat_id(self, cell: Tuple[int, int]) -> int:
        """Flat index of a cell ``(x, y)``; :class:`KeyError` for a cell off the grid.

        ``cell`` is a :class:`GridCoord` or a plain ``(x, y)`` pair, as
        message payloads carry.  The range check matters: unchecked, an
        off-grid cell would alias a real flat index (``(-1, 0)`` is the last
        entry of :meth:`coord_list`).
        """
        x, y = cell
        if not (0 <= x < self._columns and 0 <= y < self._rows):
            raise KeyError(cell)
        return y * self._columns + x

    def coord_at(self, flat_index: int) -> GridCoord:
        """The cell address for a flat row-major index (inverse of :meth:`flat_index`)."""
        return self.coord_list()[flat_index]

    def cell_indices(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of` over position arrays -> flat ``int32`` indices.

        Mirrors :meth:`cell_of` exactly (truncating division, then clamping
        boundary points into the last row/column) but does **not** re-check
        the surveillance-area bounds — callers validate positions first.
        """
        x = ((xs - self._origin.x) / self._cell_size).astype(np.int32)
        y = ((ys - self._origin.y) / self._cell_size).astype(np.int32)
        np.clip(x, 0, self._columns - 1, out=x)
        np.clip(y, 0, self._rows - 1, out=y)
        return y * np.int32(self._columns) + x

    def neighbours(self, coord: GridCoord) -> List[GridCoord]:
        """The 4-neighbourhood of ``coord`` restricted to cells inside the grid.

        Order is north, south, east, west (matching the paper's enumeration);
        edge cells simply have fewer neighbours.
        """
        x, y = self.validate_coord(coord)
        result = []
        if y + 1 < self._rows:
            result.append(GridCoord(x, y + 1))
        if y > 0:
            result.append(GridCoord(x, y - 1))
        if x + 1 < self._columns:
            result.append(GridCoord(x + 1, y))
        if x > 0:
            result.append(GridCoord(x - 1, y))
        return result

    # ----------------------------------------------------- coordinate mapping
    def cell_of(self, point: Point) -> GridCoord:
        """The cell containing ``point``.

        Points exactly on the east/north boundary of the area are assigned to
        the last column/row so that deployments over the closed area never
        fall outside the grid.
        """
        if not self.bounds.contains(point, tolerance=1e-9):
            raise ValueError(f"point {point.as_tuple()} outside surveillance area")
        x = int((point.x - self._origin.x) / self._cell_size)
        y = int((point.y - self._origin.y) / self._cell_size)
        x = min(max(x, 0), self._columns - 1)
        y = min(max(y, 0), self._rows - 1)
        return GridCoord(x, y)

    def cell_bounds(self, coord: GridCoord) -> BoundingBox:
        """World-coordinate bounding box of cell ``coord``."""
        self.validate_coord(coord)
        xs = self._column_spans[coord.x]
        ys = self._row_spans[coord.y]
        return BoundingBox(xs.low, ys.low, xs.high, ys.high)

    def cell_center(self, coord: GridCoord) -> Point:
        """World-coordinate centre of cell ``coord``."""
        self.validate_coord(coord)
        return Point(self._column_spans[coord.x].center, self._row_spans[coord.y].center)

    def central_area(self, coord: GridCoord) -> BoundingBox:
        """The central ``r/2 x r/2`` area of the cell.

        Replacement moves target a random point in this area (Section 4,
        "Implementation Issue"): the per-hop moving distance is then at least
        ``r/4``, at most ``sqrt(58)/4 * r`` and roughly ``1.08 * r`` on
        average.
        """
        self.validate_coord(coord)
        xs = self._column_spans[coord.x]
        ys = self._row_spans[coord.y]
        return BoundingBox(
            xs.central_low, ys.central_low, xs.central_high, ys.central_high
        )

    def center_distance(self, a: GridCoord, b: GridCoord) -> float:
        """Euclidean distance between the centres of two cells."""
        return self.cell_center(a).distance_to(self.cell_center(b))

    # ------------------------------------------------------------- utilities
    def row(self, y: int) -> List[GridCoord]:
        """Cells of row ``y`` ordered by increasing ``x``."""
        if not 0 <= y < self._rows:
            raise ValueError(f"row {y} outside grid with {self._rows} rows")
        return [GridCoord(x, y) for x in range(self._columns)]

    def column(self, x: int) -> List[GridCoord]:
        """Cells of column ``x`` ordered by increasing ``y``."""
        if not 0 <= x < self._columns:
            raise ValueError(f"column {x} outside grid with {self._columns} columns")
        return [GridCoord(x, y) for y in range(self._rows)]


def random_point_in_box(box: BoundingBox, rng) -> Point:
    """Uniformly random point inside ``box`` drawn from ``rng`` (a ``random.Random``)."""
    return Point(
        box.min_x + rng.random() * box.width,
        box.min_y + rng.random() * box.height,
    )


def move_distance_bounds(cell_size: float) -> Tuple[float, float]:
    """(min, max) single-hop moving distance when targeting the central area.

    Matches the bounds stated in Section 4: minimum ``r/4`` (node sitting on
    the shared edge, target on the near edge of the central area) and maximum
    ``sqrt(58)/4 * r`` (node in the far corner, target in the far corner of
    the central area).
    """
    return cell_size / 4.0, math.sqrt(58.0) / 4.0 * cell_size


#: Average per-hop moving distance used by the paper's estimates (Section 4).
AVERAGE_MOVE_FACTOR = 1.08
