"""Unit tests for the failure / attack injection models."""

import random

import pytest

from repro.grid.geometry import BoundingBox, Point
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell
from repro.network.failures import (
    BatteryDepletionFailure,
    CompositeFailure,
    RandomFailure,
    RegionJammingFailure,
    TargetedCellFailure,
    ThinningToEnabledCount,
)
from repro.network.node import NodeState
from repro.network.state import WsnState


@pytest.fixture
def state(rng):
    grid = VirtualGrid(5, 4, cell_size=2.0)
    return WsnState(grid, deploy_per_cell(grid, 3, rng))


class TestRandomFailure:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            RandomFailure()
        with pytest.raises(ValueError):
            RandomFailure(probability=0.5, count=3)
        with pytest.raises(ValueError):
            RandomFailure(probability=1.5)
        with pytest.raises(ValueError):
            RandomFailure(count=-1)

    def test_count_mode_disables_exactly_n(self, state, rng):
        before = state.enabled_count
        victims = RandomFailure(count=7).apply(state, rng)
        assert len(victims) == 7
        assert state.enabled_count == before - 7
        for node_id in victims:
            assert not state.node(node_id).is_enabled

    def test_count_larger_than_network(self, state, rng):
        victims = RandomFailure(count=10_000).apply(state, rng)
        assert state.enabled_count == 0
        assert len(victims) == len(set(victims))

    def test_probability_mode_statistics(self, state):
        victims = RandomFailure(probability=0.5).apply(state, random.Random(0))
        assert 0.25 * state.node_count < len(victims) < 0.75 * state.node_count

    @pytest.mark.parametrize("probability", [0.1, 0.5, 0.9])
    def test_probability_mode_equals_the_per_node_loop(self, state, probability):
        expected_rng = random.Random(4)
        expected = [
            node_id
            for node_id in state.enabled_node_ids()
            if expected_rng.random() < probability
        ]
        rng = random.Random(4)
        assert RandomFailure(probability=probability).apply(state, rng) == expected
        assert rng.getstate() == expected_rng.getstate()

    def test_probability_zero_and_one(self, state, rng):
        assert RandomFailure(probability=0.0).apply(state, rng) == []
        RandomFailure(probability=1.0).apply(state, rng)
        assert state.enabled_count == 0

    def test_custom_reason(self, state, rng):
        victims = RandomFailure(count=1, reason=NodeState.MISBEHAVING).apply(state, rng)
        assert state.node(victims[0]).state is NodeState.MISBEHAVING


class TestThinning:
    def test_thins_to_exact_enabled_count(self, state, rng):
        ThinningToEnabledCount(target_enabled=25).apply(state, rng)
        assert state.enabled_count == 25

    def test_noop_when_already_below_target(self, state, rng):
        victims = ThinningToEnabledCount(target_enabled=10_000).apply(state, rng)
        assert victims == []
        assert state.enabled_count == state.node_count

    def test_draw_victims_is_one_sample_of_the_excess(self):
        ids = list(range(10, 40))
        rng = random.Random(3)
        victims = ThinningToEnabledCount(target_enabled=25).draw_victims(ids, rng)
        assert victims == random.Random(3).sample(ids, 5)
        before = rng.getstate()
        assert ThinningToEnabledCount(target_enabled=30).draw_victims(ids, rng) == []
        assert rng.getstate() == before

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            ThinningToEnabledCount(target_enabled=-1)

    def test_paper_workload_relation(self, rng):
        """After thinning to m*n + N enabled nodes, spares - holes == N."""
        grid = VirtualGrid(8, 8, cell_size=4.4721)
        state = WsnState(grid, deploy_per_cell(grid, 6, rng))
        spare_surplus = 17
        ThinningToEnabledCount(grid.cell_count + spare_surplus).apply(state, rng)
        assert state.spare_surplus == spare_surplus


class TestRegionJamming:
    def test_requires_box_or_disk(self):
        with pytest.raises(ValueError):
            RegionJammingFailure()
        with pytest.raises(ValueError):
            RegionJammingFailure(box=BoundingBox(0, 0, 1, 1), center=Point(0, 0), radius=1)
        with pytest.raises(ValueError):
            RegionJammingFailure(center=Point(0, 0), radius=-1)

    def test_rejects_partial_disk_specs(self):
        # Regression: a partial disk used to collapse to "no disk given", so
        # box + center (without radius) was silently accepted.
        with pytest.raises(ValueError):
            RegionJammingFailure(center=Point(0, 0))
        with pytest.raises(ValueError):
            RegionJammingFailure(radius=2.0)
        with pytest.raises(ValueError):
            RegionJammingFailure(box=BoundingBox(0, 0, 1, 1), center=Point(0, 0))
        with pytest.raises(ValueError):
            RegionJammingFailure(box=BoundingBox(0, 0, 1, 1), radius=2.0)

    def test_box_jamming_disables_only_inside(self, state, rng):
        box = BoundingBox(0, 0, 2, 2)
        victims = RegionJammingFailure(box=box).apply(state, rng)
        assert victims, "the jammed region contains nodes"
        for node in state.nodes():
            if box.contains(node.position):
                assert not node.is_enabled
            else:
                assert node.is_enabled

    def test_disk_jamming(self, state, rng):
        center = Point(5.0, 4.0)
        victims = RegionJammingFailure(center=center, radius=2.0).apply(state, rng)
        for node_id in victims:
            assert state.node(node_id).position.distance_to(center) <= 2.0

    def test_creates_holes(self, state, rng):
        RegionJammingFailure(box=BoundingBox(0, 0, 4, 4)).apply(state, rng)
        assert state.hole_count >= 4


class TestTargetedCellFailure:
    def test_disables_all_nodes_in_cells(self, state, rng):
        cells = [GridCoord(0, 0), GridCoord(4, 3)]
        TargetedCellFailure(cells=cells).apply(state, rng)
        for coord in cells:
            assert state.is_vacant(coord)
        assert state.hole_count == 2

    def test_rejects_cells_outside_grid(self, state, rng):
        with pytest.raises(ValueError):
            TargetedCellFailure(cells=[GridCoord(99, 99)]).apply(state, rng)

    def test_default_reason_is_misbehaving(self, state, rng):
        victims = TargetedCellFailure(cells=[GridCoord(1, 1)]).apply(state, rng)
        assert all(
            state.node(node_id).state is NodeState.MISBEHAVING for node_id in victims
        )


class TestBatteryAndComposite:
    def test_battery_depletion(self, state, rng):
        nodes = list(state.enabled_nodes())
        nodes[0].reset_energy(0.0)
        nodes[1].reset_energy(0.5)
        victims = BatteryDepletionFailure(threshold=0.5).apply(state, rng)
        assert set(victims) == {nodes[0].node_id, nodes[1].node_id}

    def test_composite_applies_in_order(self, state, rng):
        composite = CompositeFailure(
            models=[
                TargetedCellFailure(cells=[GridCoord(0, 0)]),
                RandomFailure(count=2),
            ]
        )
        victims = composite.apply(state, rng)
        assert len(victims) == 3 + 2  # 3 nodes per cell plus 2 random
        assert state.is_vacant(GridCoord(0, 0))

    def test_callable_protocol(self, state, rng):
        assert RandomFailure(count=1)(state, rng)
