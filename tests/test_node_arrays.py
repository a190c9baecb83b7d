"""Unit tests for the struct-of-arrays node store and the handles over its rows.

:class:`NodeArrays` is the one representation of a population: every
``WsnState`` takes one.  A :class:`SensorNode` handle is a read-only view of
a row: it reports whatever the columns hold and writes none of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.grid.virtual_grid import VirtualGrid
from repro.network.node import DEFAULT_BATTERY_CAPACITY, NodeRole, NodeState
from repro.network.node_arrays import ENABLED_CODE, UNASSIGNED_CODE, NodeArrays
from repro.network.state import WsnState


def make_store(count: int = 5, start_id: int = 0) -> NodeArrays:
    ids = np.arange(start_id, start_id + count, dtype=np.int64)
    xs = np.linspace(0.5, 0.5 + count - 1, count)
    ys = np.full(count, 1.25)
    return NodeArrays.from_positions(ids, xs, ys)


class TestNodeArrays:
    def test_from_positions_defaults(self):
        store = make_store(4)
        assert len(store) == 4
        assert store.positions.shape == (4, 2)
        assert np.all(store.state == ENABLED_CODE)
        assert np.all(store.energy == DEFAULT_BATTERY_CAPACITY)
        assert np.all(store.initial_energy == DEFAULT_BATTERY_CAPACITY)
        assert np.all(store.cell == -1)
        assert np.all(store.move_count == 0)

    def test_row_of_contiguous_ids(self):
        store = make_store(4, start_id=10)
        assert [store.row_of(node_id) for node_id in (10, 11, 12, 13)] == [0, 1, 2, 3]
        with pytest.raises(KeyError):
            store.row_of(9)
        with pytest.raises(KeyError):
            store.row_of(14)

    def test_row_of_irregular_ids(self):
        ids = np.array([5, 2, 99], dtype=np.int64)
        store = NodeArrays.from_positions(ids, np.zeros(3), np.zeros(3))
        assert store.row_of(5) == 0
        assert store.row_of(99) == 2
        with pytest.raises(KeyError):
            store.row_of(3)
        assert store.has_id(2)
        assert not store.has_id(7)

    def test_rows_of_vectorized(self):
        store = make_store(6, start_id=3)
        rows = store.rows_of(np.array([5, 3, 8]))
        assert rows.tolist() == [2, 0, 5]

    def test_enabled_mask_tracks_state_column(self):
        store = make_store(3)
        store.state[1] = 2  # any non-enabled code
        assert store.enabled_mask().tolist() == [True, False, True]

    def test_copy_is_independent(self):
        store = make_store(3)
        twin = store.copy()
        twin.energy[0] = 1.0
        twin.positions[2, 0] = -7.0
        twin.state[1] = 3
        assert store.energy[0] == DEFAULT_BATTERY_CAPACITY
        assert store.positions[2, 0] != -7.0
        assert store.state[1] == ENABLED_CODE

    def test_from_positions_keeps_ids_positions_and_battery(self):
        store = NodeArrays.from_positions([4, 7], [1.0, 3.0], [2.0, 4.0], energy=12.5)
        assert store.node_ids.tolist() == [4, 7]
        assert store.positions[1].tolist() == [3.0, 4.0]
        assert store.energy.tolist() == store.initial_energy.tolist() == [12.5, 12.5]
        assert store.role.tolist() == [UNASSIGNED_CODE, UNASSIGNED_CODE]
        assert store.enabled_mask().tolist() == [True, True]

    def test_check_shapes_rejects_a_ragged_column(self):
        store = make_store(3)
        store.check_shapes()
        store.move_count = store.move_count[:2]
        with pytest.raises(ValueError, match="column move_count has shape"):
            store.check_shapes()


def make_state(count: int = 5, start_id: int = 0) -> WsnState:
    """A state over :func:`make_store`'s nodes (one row of 1 m cells)."""
    return WsnState(VirtualGrid(count, 2, cell_size=1.0), make_store(count, start_id))


class TestHandles:
    def test_handle_reads_arrays(self):
        state = make_state(3)
        node = state.node(1)
        assert node.node_id == 1
        assert node.position == Point(1.5, 1.25)
        assert node.role is NodeRole.HEAD
        assert node.state is NodeState.ENABLED
        assert node.energy == DEFAULT_BATTERY_CAPACITY

    def test_array_writes_visible_through_handle(self):
        state = make_state(3)
        store = state.arrays
        node = state.node(0)
        store.energy[0] = 2.0
        store.state[0] = 3
        assert node.energy == 2.0
        assert node.state is NodeState.DEPLETED
        # Positions too: a handle caches nothing, so row writes show at once.
        store.positions[0] = (4.0, 5.0)
        assert node.position == Point(4.0, 5.0)
