"""Unit tests for the struct-of-arrays node store and its bound handles.

:class:`NodeArrays` is the backing store behind every ``WsnState``;
:class:`SensorNode` handles bound to a row must behave exactly like the old
standalone dataclass while reading and writing the shared columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.network.node import (
    DEFAULT_BATTERY_CAPACITY,
    NodeRole,
    NodeState,
    SensorNode,
)
from repro.network.node_arrays import (
    ENABLED_CODE,
    HEAD_CODE,
    NodeArrays,
    SPARE_CODE,
)


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

    def test_from_nodes_round_trips_fields(self):
        nodes = [
            SensorNode(node_id=4, position=Point(1.0, 2.0)),
            SensorNode(
                node_id=7,
                position=Point(3.0, 4.0),
                state=NodeState.FAILED,
                role=NodeRole.SPARE,
                energy=12.5,
            ),
        ]
        store = NodeArrays.from_nodes(nodes)
        assert store.node_ids.tolist() == [4, 7]
        assert store.positions[1].tolist() == [3.0, 4.0]
        assert store.energy[1] == 12.5
        assert store.role[1] == SPARE_CODE
        assert store.enabled_mask().tolist() == [True, False]


class TestBoundHandles:
    def test_bound_handle_reads_arrays(self):
        store = make_store(3)
        store.role[1] = HEAD_CODE
        node = SensorNode._bound(store, 1)
        assert node.node_id == 1
        assert node.position == Point(1.5, 1.25)
        assert node.role is NodeRole.HEAD
        assert node.state is NodeState.ENABLED
        assert node.energy == DEFAULT_BATTERY_CAPACITY

    def test_handle_writes_flow_into_arrays(self):
        store = make_store(3)
        node = SensorNode._bound(store, 2)
        node.energy = 4.5
        node.state = NodeState.MISBEHAVING
        node.role = NodeRole.SPARE
        node.position = Point(0.25, 0.75)
        assert store.energy[2] == 4.5
        assert store.state[2] != ENABLED_CODE
        assert store.role[2] == SPARE_CODE
        assert store.positions[2].tolist() == [0.25, 0.75]

    def test_array_writes_visible_through_handle(self):
        store = make_store(3)
        node = SensorNode._bound(store, 0)
        store.energy[0] = 2.0
        store.state[0] = 3
        assert node.energy == 2.0
        assert node.state is NodeState.DEPLETED
        # Positions too: a handle caches nothing, so row writes show at once.
        store.positions[0] = (4.0, 5.0)
        assert node.position == Point(4.0, 5.0)
        node.position = Point(9.0, 8.0)
        assert store.positions[0].tolist() == [9.0, 8.0]

    def test_consume_energy_clamps_in_arrays(self):
        store = make_store(1)
        node = SensorNode._bound(store, 0)
        node.consume_energy(DEFAULT_BATTERY_CAPACITY + 5.0)
        assert node.energy == 0.0
        assert store.energy[0] == 0.0
        assert node.is_battery_depleted

    def test_relocate_updates_movement_columns(self):
        store = make_store(1)
        node = SensorNode._bound(store, 0)
        start = node.position
        node.relocate(Point(start.x + 3.0, start.y + 4.0))
        assert store.moved_distance[0] == pytest.approx(5.0)
        assert store.move_count[0] == 1
        assert node.moved_distance == pytest.approx(5.0)
        assert node.move_count == 1

    def test_copy_detaches_from_store(self):
        store = make_store(2)
        node = SensorNode._bound(store, 1)
        snapshot = node.copy()
        store.energy[1] = 0.5
        assert snapshot.energy == DEFAULT_BATTERY_CAPACITY
        snapshot.energy = 99.0
        assert store.energy[1] == 0.5

    def test_bound_and_unbound_compare_equal_on_same_values(self):
        store = make_store(1, start_id=42)
        bound = SensorNode._bound(store, 0)
        unbound = bound.copy()
        assert bound == unbound
