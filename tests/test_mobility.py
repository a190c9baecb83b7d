"""Unit tests for the movement model (Section 4 implementation issue)."""

import math
import random

import pytest

from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.mobility import MovementModel, MoveRecord
from repro.network.node import DEFAULT_BATTERY_CAPACITY
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState


@pytest.fixture
def grid():
    return VirtualGrid(4, 4, cell_size=10.0)


@pytest.fixture
def model(grid):
    return MovementModel(grid)


class TestTargetSelection:
    def test_targets_central_area(self, model, grid, rng):
        cell = GridCoord(2, 2)
        for _ in range(50):
            point = model.choose_target_position(cell, rng)
            assert grid.central_area(cell).contains(point)

    def test_whole_cell_targeting_option(self, grid, rng):
        model = MovementModel(grid, target_central_area=False)
        cell = GridCoord(0, 0)
        points = [model.choose_target_position(cell, rng) for _ in range(200)]
        assert all(grid.cell_bounds(cell).contains(p) for p in points)
        # With whole-cell targeting some samples fall outside the central area.
        assert any(not grid.central_area(cell).contains(p) for p in points)

    def test_average_hop_distance_estimate(self, model):
        assert model.average_hop_distance == pytest.approx(10.8)

    def test_hop_distance_bounds(self, model):
        low, high = model.hop_distance_bounds
        assert low == pytest.approx(2.5)
        assert high == pytest.approx(math.sqrt(58) / 4 * 10.0)


def _one_node_state(grid, model, position, node_id=1):
    """A state holding a single node, moved by ``model``."""
    node = NodeArrays.from_positions([node_id], [position.x], [position.y])
    return WsnState(grid, node, movement_model=model)


class TestExecuteMove:
    """Replacement moves as ``WsnState.move_node`` executes them, row by row."""

    def test_move_record_fields(self, grid, model, rng):
        state = _one_node_state(grid, model, Point(15.0, 15.0), node_id=7)
        record = state.move_node(7, GridCoord(2, 1), rng, round_index=4, process_id=9)
        assert isinstance(record, MoveRecord)
        assert record.node_id == 7
        assert record.source_cell == GridCoord(1, 1)
        assert record.target_cell == GridCoord(2, 1)
        assert record.source_position == Point(15.0, 15.0)
        assert record.round_index == 4
        assert record.process_id == 9
        assert record.is_cascading
        assert record.distance == pytest.approx(
            record.source_position.distance_to(record.target_position)
        )

    def test_move_updates_node(self, grid, model, rng):
        state = _one_node_state(grid, model, Point(5.0, 5.0))
        node = state.node(1)
        record = state.move_node(1, GridCoord(1, 0), rng, round_index=0)
        assert node.position == record.target_position
        assert node.move_count == 1
        assert node.moved_distance == record.distance
        assert node.energy == DEFAULT_BATTERY_CAPACITY - record.distance
        assert state.cell_of_node(1) == GridCoord(1, 0)

    def test_explicit_target_position(self, grid, model, rng):
        state = _one_node_state(grid, model, Point(5.0, 5.0))
        target = Point(15.0, 5.0)
        record = state.move_node(
            1, GridCoord(1, 0), rng, round_index=0, target_position=target
        )
        assert record.target_position == target
        assert record.distance == pytest.approx(10.0)

    def test_rejects_cells_outside_grid(self, grid, model, rng):
        state = _one_node_state(grid, model, Point(5.0, 5.0))
        with pytest.raises(ValueError, match="outside 4x4 grid"):
            state.move_node(1, GridCoord(9, 0), rng, round_index=0)

    def test_non_cascading_record(self, grid, model, rng):
        state = _one_node_state(grid, model, Point(5.0, 5.0))
        record = state.move_node(1, GridCoord(0, 1), rng, round_index=0)
        assert not record.is_cascading


class TestDistanceStatistics:
    def test_neighbour_hop_within_paper_bounds(self, grid, model):
        """Sampled neighbour-cell hops stay within [r/4, sqrt(58)/4 * r]."""
        rng = random.Random(11)
        low, high = model.hop_distance_bounds
        for _ in range(300):
            start_cell = GridCoord(rng.randrange(3), rng.randrange(4))
            target_cell = GridCoord(start_cell.x + 1, start_cell.y)
            start = Point(
                grid.cell_bounds(start_cell).min_x + rng.random() * grid.cell_size,
                grid.cell_bounds(start_cell).min_y + rng.random() * grid.cell_size,
            )
            state = _one_node_state(grid, model, start, node_id=0)
            record = state.move_node(0, target_cell, rng, round_index=0)
            assert low - 1e-9 <= record.distance <= high + 1e-9

    def test_average_close_to_1_08_r(self, grid, model):
        rng = random.Random(13)
        total = 0.0
        samples = 600
        for _ in range(samples):
            start_cell = GridCoord(1, 1)
            target_cell = GridCoord(2, 1)
            bounds = grid.cell_bounds(start_cell)
            start = Point(
                bounds.min_x + rng.random() * grid.cell_size,
                bounds.min_y + rng.random() * grid.cell_size,
            )
            state = _one_node_state(grid, model, start, node_id=0)
            total += state.move_node(0, target_cell, rng, 0).distance
        average = total / samples
        # The paper's 1.08*r is an estimate; the sampled mean lands nearby.
        assert 0.85 * model.average_hop_distance <= average <= 1.15 * model.average_hop_distance
