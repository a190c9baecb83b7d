"""Unit tests for the sensor node model: a read-only view of one state row."""

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.mobility import MovementModel
from repro.network.node import (
    DEFAULT_BATTERY_CAPACITY,
    NodeRole,
    NodeState,
)
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState


def make_state(*positions, movement_model=None) -> WsnState:
    """Nodes ``0, 1, ...`` at ``positions`` on a 4x4 grid of 10 m cells."""
    xs, ys = zip(*positions)
    grid = VirtualGrid(4, 4, cell_size=10.0)
    if movement_model is not None:
        movement_model = movement_model(grid)
    nodes = NodeArrays.from_positions(np.arange(len(xs)), xs, ys)
    return WsnState(grid, nodes, movement_model=movement_model)


class TestLifecycle:
    def test_new_node_is_enabled_with_a_full_battery(self):
        state = make_state((1.0, 1.0))
        node = state.node(0)
        assert node.node_id == 0
        assert node.position == Point(1.0, 1.0)
        assert node.is_enabled
        assert node.role is NodeRole.HEAD
        assert node.energy == DEFAULT_BATTERY_CAPACITY
        assert node.moved_distance == 0.0
        assert node.move_count == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NodeArrays.from_positions([-1], [0.0], [0.0])
        with pytest.raises(ValueError):
            NodeArrays.from_positions([0], [0.0], [0.0], energy=-5.0)

    def test_disable_removes_from_collaboration(self):
        state = make_state((1.0, 1.0), (2.0, 2.0))
        node = state.node(0)
        assert node.is_head
        state.disable_node(0, NodeState.MISBEHAVING)
        assert not node.is_enabled
        assert node.state is NodeState.MISBEHAVING
        assert node.role is NodeRole.UNASSIGNED

    def test_disable_requires_non_enabled_reason(self):
        with pytest.raises(ValueError):
            make_state((1.0, 1.0)).disable_node(0, NodeState.ENABLED)

    def test_enable_after_failure(self):
        state = make_state((1.0, 1.0))
        state.disable_node(0)
        state.enable_node(0)
        node = state.node(0)
        assert node.is_enabled
        assert node.role is NodeRole.HEAD

    def test_role_predicates(self):
        state = make_state((1.0, 1.0), (2.0, 2.0))
        head, spare = state.node(0), state.node(1)
        assert head.is_head and not head.is_spare
        assert spare.is_spare and not spare.is_head
        state.disable_node(1)
        assert not spare.is_head and not spare.is_spare


class TestMovement:
    def test_moves_accumulate(self):
        state = make_state((5.0, 5.0))
        state.move_node(0, GridCoord(1, 0), None, target_position=Point(15.0, 5.0))
        state.move_node(0, GridCoord(1, 1), None, target_position=Point(15.0, 15.0))
        assert state.node(0).moved_distance == pytest.approx(20.0)
        assert state.node(0).move_count == 2

    def test_depleted_node_cannot_move(self):
        # Regression: a node clamped to an empty battery used to keep moving
        # forever; depletion must refuse relocation like a disabled node does.
        state = make_state((5.0, 5.0))
        node = state.node(0)
        state.debit_energy(0, node.energy)
        assert node.is_battery_depleted
        with pytest.raises(RuntimeError):
            state.move_node(0, GridCoord(1, 0), None, target_position=Point(15.0, 5.0))
        assert node.move_count == 0

    def test_move_honours_custom_move_cost(self):
        state = make_state(
            (5.0, 5.0),
            movement_model=lambda grid: MovementModel(grid, move_cost_per_meter=2.5),
        )
        state.move_node(0, GridCoord(0, 1), None, target_position=Point(5.0, 15.0))
        assert state.node(0).energy == pytest.approx(DEFAULT_BATTERY_CAPACITY - 25.0)


class TestEnergy:
    def test_debit_clamps_at_zero(self):
        state = make_state((1.0, 1.0))
        state.debit_energy(0, DEFAULT_BATTERY_CAPACITY * 2)
        assert state.node(0).energy == 0.0
        assert state.node(0).is_battery_depleted

    def test_initial_energy_defaults_to_starting_energy(self):
        state = make_state((1.0, 1.0))
        node = state.node(0)
        assert node.initial_energy == pytest.approx(DEFAULT_BATTERY_CAPACITY)
        state.debit_energy(0, 7.0)
        assert node.consumed_energy == pytest.approx(7.0)

    def test_reset_energy_installs_fresh_battery(self):
        state = make_state((1.0, 1.0))
        node = state.node(0)
        state.debit_energy(0, 30.0)
        node.reset_energy(12.0)
        assert node.energy == pytest.approx(12.0)
        assert node.initial_energy == pytest.approx(12.0)
        assert node.consumed_energy == pytest.approx(0.0)
        with pytest.raises(ValueError):
            node.reset_energy(-1.0)
        state.check_invariants()

    def test_clone_preserves_initial_energy(self):
        state = make_state((1.0, 1.0))
        state.node(0).reset_energy(42.0)
        state.debit_energy(0, 2.0)
        twin = state.clone().node(0)
        assert twin.initial_energy == pytest.approx(42.0)
        assert twin.consumed_energy == pytest.approx(2.0)


class TestLookups:
    def test_enabled_node_ids(self):
        state = make_state((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        state.disable_node(1)
        assert state.enabled_node_ids() == [0, 2]
        assert [node.node_id for node in state.enabled_nodes()] == [0, 2]
