"""Unit tests for the deployment generators."""

import random

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord, VirtualGrid, random_point_in_box
from repro.network.deployment import (
    deploy_clustered,
    deploy_grid_heads,
    deploy_per_cell,
    deploy_per_cell_counts,
    deploy_uniform,
)
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState


@pytest.fixture
def grid():
    return VirtualGrid(6, 4, cell_size=2.0)


def points(nodes: NodeArrays):
    """The nodes' positions as :class:`Point`\\ s, in row order."""
    return [Point(x, y) for x, y in nodes.positions.tolist()]


def occupancy(grid: VirtualGrid, nodes: NodeArrays):
    """Enabled nodes per cell, as a state over ``nodes`` counts them."""
    return WsnState(grid, nodes).occupancy()


class TestEveryGenerator:
    @pytest.mark.parametrize(
        "deploy",
        [
            lambda grid, rng: deploy_uniform(grid, 10, rng),
            lambda grid, rng: deploy_per_cell(grid, 2, rng),
            lambda grid, rng: deploy_grid_heads(grid, rng, jitter=True),
            lambda grid, rng: deploy_per_cell_counts(grid, {GridCoord(1, 1): 3}, rng),
            lambda grid, rng: deploy_clustered(grid, 10, [Point(3.0, 3.0)], 1.0, rng),
        ],
        ids=["uniform", "per_cell", "grid_heads", "per_cell_counts", "clustered"],
    )
    def test_returns_a_fresh_node_arrays_store(self, grid, rng, deploy):
        nodes = deploy(grid, rng)
        assert isinstance(nodes, NodeArrays)
        assert nodes.node_ids.tolist() == list(range(len(nodes)))
        assert nodes.enabled_mask().all()
        nodes.check_shapes()

    def test_uniform_accepts_only_as_arrays_true(self, grid, rng):
        assert len(deploy_uniform(grid, 3, rng, as_arrays=True)) == 3
        with pytest.raises(ValueError, match="as_arrays=False"):
            deploy_uniform(grid, 3, rng, as_arrays=False)


class TestUniform:
    def test_count_and_ids(self, grid, rng):
        nodes = deploy_uniform(grid, 100, rng)
        assert len(nodes) == 100
        assert nodes.node_ids.tolist() == list(range(100))

    def test_all_positions_inside_area(self, grid, rng):
        for position in points(deploy_uniform(grid, 200, rng)):
            assert grid.bounds.contains(position)

    def test_start_id_offset(self, grid, rng):
        nodes = deploy_uniform(grid, 5, rng, start_id=50)
        assert nodes.node_ids.tolist() == [50, 51, 52, 53, 54]

    def test_zero_and_negative(self, grid, rng):
        assert len(deploy_uniform(grid, 0, rng)) == 0
        with pytest.raises(ValueError):
            deploy_uniform(grid, -1, rng)

    def test_reproducible_for_same_seed(self, grid):
        a = deploy_uniform(grid, 20, random.Random(9))
        b = deploy_uniform(grid, 20, random.Random(9))
        assert np.array_equal(a.positions, b.positions)

    def test_roughly_uniform_occupancy(self, grid):
        counts = occupancy(grid, deploy_uniform(grid, 2400, random.Random(4)))
        expected = 2400 / grid.cell_count
        assert min(counts.values()) > expected * 0.4
        assert max(counts.values()) < expected * 1.8


class TestPerCell:
    def test_exact_per_cell(self, grid, rng):
        nodes = deploy_per_cell(grid, 3, rng)
        assert all(count == 3 for count in occupancy(grid, nodes).values())
        assert len(nodes) == grid.cell_count * 3

    def test_zero_per_cell(self, grid, rng):
        assert len(deploy_per_cell(grid, 0, rng)) == 0

    def test_rejects_negative(self, grid, rng):
        with pytest.raises(ValueError):
            deploy_per_cell(grid, -2, rng)

    def test_nodes_are_in_their_cell(self, grid, rng):
        nodes = deploy_per_cell(grid, 2, rng)
        assert sum(occupancy(grid, nodes).values()) == len(nodes)


class TestPerCellCounts:
    def test_explicit_counts(self, grid, rng):
        counts = {GridCoord(0, 0): 2, GridCoord(5, 3): 1}
        per_cell = occupancy(grid, deploy_per_cell_counts(grid, counts, rng))
        assert per_cell[GridCoord(0, 0)] == 2
        assert per_cell[GridCoord(5, 3)] == 1
        assert sum(per_cell.values()) == 3

    def test_rejects_invalid_cell_and_count(self, grid, rng):
        with pytest.raises(ValueError):
            deploy_per_cell_counts(grid, {GridCoord(9, 9): 1}, rng)
        with pytest.raises(ValueError):
            deploy_per_cell_counts(grid, {GridCoord(0, 0): -1}, rng)

    def test_draw_order_is_cell_by_cell_in_coordinate_order(self, grid):
        counts = {GridCoord(3, 1): 2, GridCoord(0, 2): 1, GridCoord(0, 0): 2}
        rng, reference = random.Random(3), random.Random(3)
        nodes = deploy_per_cell_counts(grid, counts, rng, start_id=7)
        expected = [
            random_point_in_box(grid.cell_bounds(coord), reference)
            for coord in sorted(counts, key=GridCoord.as_tuple)
            for _ in range(counts[coord])
        ]
        assert points(nodes) == expected
        assert nodes.node_ids.tolist() == [7, 8, 9, 10, 11]
        assert rng.random() == reference.random()


class TestGridHeads:
    def test_one_node_per_cell_at_center(self, grid):
        nodes = deploy_grid_heads(grid)
        assert len(nodes) == grid.cell_count
        for position in points(nodes):
            assert position == grid.cell_center(grid.cell_of(position))

    def test_jitter_requires_rng(self, grid, rng):
        with pytest.raises(ValueError):
            deploy_grid_heads(grid, jitter=True)
        for position in points(deploy_grid_heads(grid, rng=rng, jitter=True)):
            assert grid.central_area(grid.cell_of(position)).contains(position)

    def test_jitter_draws_one_point_per_cell_in_cell_order(self, grid):
        rng, reference = random.Random(4), random.Random(4)
        nodes = deploy_grid_heads(grid, rng, start_id=2, jitter=True)
        assert points(nodes) == [
            random_point_in_box(grid.central_area(coord), reference)
            for coord in grid.all_coords()
        ]
        assert nodes.node_ids.tolist() == list(range(2, 2 + grid.cell_count))
        assert rng.random() == reference.random()


class TestClustered:
    def test_positions_clamped_to_area(self, grid, rng):
        centers = [Point(0.0, 0.0), Point(12.0, 8.0)]
        nodes = deploy_clustered(grid, 150, centers, spread=5.0, rng=rng)
        assert len(nodes) == 150
        for position in points(nodes):
            assert grid.bounds.contains(position)

    def test_clusters_are_denser_near_centres(self, grid):
        rng = random.Random(10)
        center = Point(2.0, 2.0)
        nodes = deploy_clustered(grid, 400, [center], spread=1.0, rng=rng)
        near = sum(1 for position in points(nodes) if position.distance_to(center) < 3.0)
        assert near > len(nodes) * 0.7

    def test_invalid_arguments(self, grid, rng):
        with pytest.raises(ValueError):
            deploy_clustered(grid, 10, [], spread=1.0, rng=rng)
        with pytest.raises(ValueError):
            deploy_clustered(grid, -1, [Point(0, 0)], spread=1.0, rng=rng)
        with pytest.raises(ValueError):
            deploy_clustered(grid, 10, [Point(0, 0)], spread=-1.0, rng=rng)

    def test_draw_order_is_centre_then_x_then_y_per_node(self, grid):
        centers = [Point(1.0, 1.0), Point(9.0, 5.0)]
        rng, reference = random.Random(6), random.Random(6)
        nodes = deploy_clustered(grid, 30, centers, spread=2.0, rng=rng)
        expected = []
        for _ in range(30):
            center = centers[reference.randrange(len(centers))]
            raw = Point(reference.gauss(center.x, 2.0), reference.gauss(center.y, 2.0))
            expected.append(grid.bounds.clamp(raw))
        assert points(nodes) == expected
        assert rng.random() == reference.random()


class TestOccupancy:
    def test_occupancy_counts_enabled_nodes_only(self, grid, rng):
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))
        state.disable_node(0)
        assert sum(state.occupancy().values()) == grid.cell_count - 1
        assert state.node_count == grid.cell_count
