"""Unit tests for the virtual grid partition (Section 2 model)."""

import math
import random

import pytest

from repro.grid.geometry import BoundingBox, Point
from repro.grid.virtual_grid import (
    AVERAGE_MOVE_FACTOR,
    GAF_RANGE_FACTOR,
    GridCoord,
    VirtualGrid,
    cell_side_for_range,
    move_distance_bounds,
    random_point_in_box,
    required_range_for_cell,
)


class TestGridCoord:
    def test_neighbour_relation(self):
        assert GridCoord(1, 1).is_neighbour_of(GridCoord(1, 2))
        assert GridCoord(1, 1).is_neighbour_of(GridCoord(0, 1))
        assert not GridCoord(1, 1).is_neighbour_of(GridCoord(2, 2)), "diagonal is not a neighbour"
        assert not GridCoord(1, 1).is_neighbour_of(GridCoord(1, 1))

    def test_ordering_and_hash(self):
        assert GridCoord(0, 1) < GridCoord(1, 0)
        assert len({GridCoord(1, 1), GridCoord(1, 1)}) == 1

    def test_manhattan_distance(self):
        assert GridCoord(0, 0).manhattan_distance_to(GridCoord(3, 4)) == 7


class TestRangeCellRelation:
    def test_paper_values(self):
        """R = 10 m gives the 4.4721 m cell used in Section 5."""
        assert cell_side_for_range(10.0) == pytest.approx(4.4721, abs=1e-4)
        assert required_range_for_cell(4.4721) == pytest.approx(10.0, abs=1e-3)

    def test_factors(self):
        assert GAF_RANGE_FACTOR == pytest.approx(math.sqrt(5))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cell_side_for_range(0)
        with pytest.raises(ValueError):
            required_range_for_cell(-1)


class TestVirtualGridShape:
    def test_basic_properties(self, small_grid):
        assert small_grid.columns == 4
        assert small_grid.rows == 5
        assert small_grid.cell_count == 20
        assert small_grid.bounds == BoundingBox(0, 0, 4, 5)
        assert small_grid.required_communication_range == pytest.approx(math.sqrt(5))

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            VirtualGrid(0, 3, 1.0)
        with pytest.raises(ValueError):
            VirtualGrid(3, 3, 0.0)

    def test_equality_and_hash(self):
        a = VirtualGrid(3, 3, 1.0)
        b = VirtualGrid(3, 3, 1.0)
        c = VirtualGrid(3, 4, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestVirtualGridMembership:
    def test_contains_and_validate(self, small_grid):
        assert small_grid.contains_coord(GridCoord(3, 4))
        assert not small_grid.contains_coord(GridCoord(4, 0))
        assert not small_grid.contains_coord(GridCoord(0, -1))
        with pytest.raises(ValueError):
            small_grid.validate_coord(GridCoord(4, 4))

    def test_all_coords_enumeration(self, small_grid):
        coords = list(small_grid.all_coords())
        assert len(coords) == 20
        assert len(set(coords)) == 20
        assert coords[0] == GridCoord(0, 0)
        assert coords[-1] == GridCoord(3, 4)

    def test_neighbours_interior_cell(self, small_grid):
        neighbours = small_grid.neighbours(GridCoord(1, 1))
        assert set(neighbours) == {
            GridCoord(1, 2),
            GridCoord(1, 0),
            GridCoord(2, 1),
            GridCoord(0, 1),
        }

    def test_neighbours_corner_cell(self, small_grid):
        assert set(small_grid.neighbours(GridCoord(0, 0))) == {
            GridCoord(0, 1),
            GridCoord(1, 0),
        }

    @pytest.mark.parametrize(
        "columns, rows", [(1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (4, 5)]
    )
    def test_neighbours_are_every_edge_sharing_cell(self, columns, rows):
        """Corner cells have two neighbours, edge cells three, inner cells four."""
        grid = VirtualGrid(columns, rows, 1.0)
        for coord in grid.all_coords():
            expected = {
                GridCoord(coord.x + dx, coord.y + dy)
                for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0))
                if 0 <= coord.x + dx < columns and 0 <= coord.y + dy < rows
            }
            neighbours = grid.neighbours(coord)
            assert len(neighbours) == len(expected)
            assert set(neighbours) == expected

    def test_row_and_column(self, small_grid):
        assert small_grid.row(0) == [GridCoord(x, 0) for x in range(4)]
        assert small_grid.column(3) == [GridCoord(3, y) for y in range(5)]
        with pytest.raises(ValueError):
            small_grid.row(5)
        with pytest.raises(ValueError):
            small_grid.column(4)


class TestCoordinateMapping:
    def test_cell_of_maps_points_to_cells(self, small_grid):
        assert small_grid.cell_of(Point(0.5, 0.5)) == GridCoord(0, 0)
        assert small_grid.cell_of(Point(3.99, 4.99)) == GridCoord(3, 4)

    def test_cell_of_boundary_points(self, small_grid):
        # Points on the outer boundary belong to the last row/column.
        assert small_grid.cell_of(Point(4.0, 5.0)) == GridCoord(3, 4)
        # Interior shared edges belong to the higher-indexed cell.
        assert small_grid.cell_of(Point(1.0, 0.5)) == GridCoord(1, 0)

    def test_cell_of_outside_raises(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.cell_of(Point(4.5, 1.0))

    def test_cell_bounds_and_center(self, small_grid):
        bounds = small_grid.cell_bounds(GridCoord(2, 3))
        assert bounds == BoundingBox(2, 3, 3, 4)
        assert small_grid.cell_center(GridCoord(2, 3)) == Point(2.5, 3.5)

    def test_central_area_is_half_sized(self, small_grid):
        area = small_grid.central_area(GridCoord(1, 1))
        assert area.width == pytest.approx(0.5)
        assert area.height == pytest.approx(0.5)
        assert area.center == small_grid.cell_center(GridCoord(1, 1))

    def test_center_distance(self, small_grid):
        assert small_grid.center_distance(GridCoord(0, 0), GridCoord(1, 0)) == pytest.approx(1.0)
        assert small_grid.center_distance(GridCoord(0, 0), GridCoord(0, 3)) == pytest.approx(3.0)

    def test_cell_of_is_consistent_with_cell_bounds(self, paper_grid):
        rng = random.Random(3)
        for _ in range(200):
            point = random_point_in_box(paper_grid.bounds, rng)
            coord = paper_grid.cell_of(point)
            assert paper_grid.cell_bounds(coord).contains(point, tolerance=1e-9)


class TestGeometryTables:
    """Per-column and per-row tables give the floats per-cell boxes gave."""

    @pytest.mark.parametrize(
        "grid",
        [
            VirtualGrid(16, 16, cell_size=cell_side_for_range(10.0)),
            VirtualGrid(7, 3, cell_size=0.3, origin=Point(-2.5, 11.125)),
        ],
    )
    def test_boxes_and_centres_match_the_per_cell_expressions(self, grid):
        r = grid.cell_size
        for coord in grid.all_coords():
            min_x = grid.origin.x + coord.x * r
            min_y = grid.origin.y + coord.y * r
            box = BoundingBox(min_x, min_y, min_x + r, min_y + r)
            assert grid.cell_bounds(coord) == box
            assert grid.cell_center(coord) == box.center
            assert grid.central_area(coord) == box.shrunk(r / 4.0)

    def test_tables_hold_one_span_per_column_and_row(self, small_grid):
        assert len(small_grid.column_spans) == small_grid.columns
        assert len(small_grid.row_spans) == small_grid.rows
        span = small_grid.column_spans[2]
        assert (span.low, span.high, span.center) == (2.0, 3.0, 2.5)
        assert (span.central_low, span.central_high) == (2.25, 2.75)

    def test_public_geometry_keeps_its_range_check(self, small_grid):
        for query in (small_grid.cell_bounds, small_grid.cell_center, small_grid.central_area):
            with pytest.raises(ValueError, match="outside 4x5 grid"):
                query(GridCoord(-1, 0))


class TestMoveDistanceModel:
    def test_bounds_match_paper(self):
        low, high = move_distance_bounds(10.0)
        assert low == pytest.approx(2.5)
        assert high == pytest.approx(math.sqrt(58) / 4 * 10.0)

    def test_average_factor(self):
        assert AVERAGE_MOVE_FACTOR == pytest.approx(1.08)

    def test_random_point_in_box_stays_inside(self):
        rng = random.Random(0)
        box = BoundingBox(2, 3, 4, 8)
        for _ in range(100):
            assert box.contains(random_point_in_box(box, rng))

    def test_random_point_in_box_draws_x_then_y(self):
        box = BoundingBox(2, 3, 4, 8)
        rng, reference = random.Random(4), random.Random(4)
        u, v = reference.random(), reference.random()
        assert random_point_in_box(box, rng) == Point(2 + u * 2, 3 + v * 5)
        assert rng.random() == reference.random()
