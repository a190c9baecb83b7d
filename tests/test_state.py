"""Unit tests for the mutable network state (WsnState) and its invariants."""

import random

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.grid.head_election import highest_energy_policy
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell, deploy_per_cell_counts
from repro.network.node import ROLE_CODES, NodeRole, NodeState
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState

from helpers import install_batteries, make_hole


def _corrupt_role(state: WsnState, node_id: int, role: NodeRole) -> None:
    """Write a role straight into the column, past the state's bookkeeping."""
    state.arrays.role[state.arrays.row_of(node_id)] = ROLE_CODES[role]


class TestConstruction:
    def test_rejects_duplicate_ids(self, small_grid):
        nodes = NodeArrays.from_positions([1, 1], [0.5, 1.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            WsnState(small_grid, nodes)

    def test_rejects_nodes_outside_area(self, small_grid):
        with pytest.raises(ValueError):
            WsnState(small_grid, NodeArrays.from_positions([0], [10.0], [10.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_position(self, small_grid, bad):
        nodes = NodeArrays.from_positions(np.arange(3), [0.5, bad, 1.5], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="node 1 at .* outside the surveillance area"):
            WsnState(small_grid, nodes)
        nodes = NodeArrays.from_positions(np.arange(3), [0.5, 0.5, 1.5], [0.5, 0.5, bad])
        with pytest.raises(ValueError, match="node 2 at .* outside the surveillance area"):
            WsnState(small_grid, nodes)

    def test_a_non_finite_position_keeps_the_first_offence_order(self, small_grid):
        """Whichever offence comes first in deployment order is the one reported."""
        nan_first = NodeArrays.from_positions([0, 1, 1], [np.nan, 0.5, 1.5], [0.5] * 3)
        with pytest.raises(ValueError, match="node 0 at"):
            WsnState(small_grid, nan_first)
        duplicate_first = NodeArrays.from_positions([0, 0, 1], [0.5, 0.5, np.nan], [0.5] * 3)
        with pytest.raises(ValueError, match="duplicate node id 0"):
            WsnState(small_grid, duplicate_first)

    def test_rejects_columns_of_unequal_length(self, small_grid):
        nodes = NodeArrays.from_positions(np.arange(5), [0.5, 1.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="column positions has shape"):
            WsnState(small_grid, nodes)
        nodes = NodeArrays.from_positions(np.arange(2), [0.5, 1.5], [0.5, 0.5])
        nodes.energy = nodes.energy[:1]
        with pytest.raises(ValueError, match="column energy has shape"):
            WsnState(small_grid, nodes)

    def test_takes_only_a_node_arrays_population(self, small_grid, dense_state):
        with pytest.raises(TypeError, match="NodeArrays"):
            WsnState(small_grid, list(dense_state.nodes()))
        with pytest.raises(TypeError, match="NodeArrays"):
            WsnState(small_grid, [])

    def test_initial_heads_elected_everywhere(self, dense_state):
        for coord in dense_state.grid.all_coords():
            head = dense_state.head_of(coord)
            assert head is not None
            assert head.is_head
            assert dense_state.grid.cell_of(head.position) == coord

    def test_counts(self, dense_state):
        assert dense_state.node_count == 60
        assert dense_state.enabled_count == 60
        assert dense_state.spare_count == 40
        assert dense_state.hole_count == 0
        assert dense_state.spare_surplus == 40

    def test_custom_head_policy(self, small_grid, rng):
        nodes = deploy_per_cell(small_grid, 2, rng)
        install_batteries(nodes, [float(i) for i in range(len(nodes))])
        state = WsnState(small_grid, nodes, head_policy=highest_energy_policy)
        for coord in small_grid.all_coords():
            members = state.members_of(coord)
            head = state.head_of(coord)
            assert head.energy == max(m.energy for m in members)


class TestHandles:
    def test_a_state_built_from_a_copy_is_independent(self, dense_state):
        """Two states over one deployment: the second takes ``arrays.copy()``."""
        node_id = dense_state.members_of(GridCoord(1, 1))[0].node_id
        twin = WsnState(dense_state.grid, dense_state.arrays.copy())
        twin.node(node_id).reset_energy(1.0)
        assert twin.arrays.energy[twin.arrays.row_of(node_id)] == 1.0
        assert dense_state.node(node_id).energy == 100.0
        assert dense_state.arrays.energy[dense_state.arrays.row_of(node_id)] == 100.0

    def test_the_state_owns_its_store_and_caches_handles(self, small_grid):
        nodes = NodeArrays.from_positions([0], [0.5], [0.5])
        state = WsnState(small_grid, nodes)
        assert state.arrays is nodes
        handle = state.node(0)
        assert state.node(0) is handle
        assert state.clone().node(0) is not handle
        state.arrays.energy[0] = 7.0
        assert handle.energy == 7.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("state", NodeState.FAILED),
            ("role", NodeRole.SPARE),
            ("position", Point(3.5, 4.5)),
            ("node_id", 99),
            ("energy", 1.0),
            ("initial_energy", 1.0),
            ("moved_distance", 1.0),
            ("move_count", 1),
        ],
    )
    def test_a_handle_cannot_write_a_field(self, uniform_state, field, value):
        """Every field is read-only on a handle, so nothing bypasses the indices."""
        before = uniform_state.to_bytes()
        for node_id in (0, 5):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(uniform_state.node(node_id), field, value)
        assert uniform_state.to_bytes() == before
        uniform_state.check_invariants()

    def test_handles_offer_no_mutators(self, uniform_state):
        handle = uniform_state.node(0)
        for name in ("disable", "enable", "relocate", "consume_energy", "copy"):
            assert not hasattr(handle, name)

    def test_handle_taken_before_a_move_reports_the_new_position(self, dense_state, rng):
        spare = dense_state.spares_of(GridCoord(2, 2))[0]
        before = spare.position
        record = dense_state.move_node(spare.node_id, GridCoord(2, 3), rng)
        assert record.source_position == before
        assert spare.position == record.target_position
        assert spare.move_count == 1
        assert spare.moved_distance == record.distance


class TestIdLevelReads:
    def test_head_and_spare_ids_match_handles(self, dense_state):
        for coord in dense_state.grid.all_coords():
            assert dense_state.head_id_of(coord) == dense_state.head_of(coord).node_id
            assert dense_state.spare_ids_of(coord) == [
                node.node_id for node in dense_state.spares_of(coord)
            ]

    def test_vacant_cell_has_no_head_id(self, sparse_state):
        coord = GridCoord(0, 0)
        make_hole(sparse_state, coord)
        assert sparse_state.head_id_of(coord) is None
        assert sparse_state.spare_ids_of(coord) == []

    def test_off_grid_cell_misses_the_index(self, dense_state):
        with pytest.raises(KeyError):
            dense_state.head_id_of(GridCoord(9, 9))
        with pytest.raises(KeyError):
            dense_state.spare_ids_of(GridCoord(-1, 0))

    def test_energy_reads_and_debits(self, dense_state):
        node_id = dense_state.head_id_of(GridCoord(0, 0))
        assert dense_state.is_node_enabled(node_id)
        dense_state.debit_energy(node_id, 30.0)
        assert dense_state.energy_of(node_id) == 70.0
        dense_state.debit_energy(node_id, 500.0)
        assert dense_state.energy_of(node_id) == 0.0
        dense_state.disable_node(node_id)
        assert not dense_state.is_node_enabled(node_id)

    def test_public_queries_keep_their_range_check(self, dense_state):
        for query in (
            dense_state.is_vacant,
            dense_state.member_count,
            dense_state.has_spare,
            dense_state.head_of,
            dense_state.members_of,
            dense_state.spares_of,
        ):
            with pytest.raises(ValueError, match=r"cell \(4, 0\) outside 4x5 grid"):
                query(GridCoord(4, 0))


class TestQueries:
    def test_members_and_spares(self, dense_state):
        coord = GridCoord(1, 1)
        members = dense_state.members_of(coord)
        spares = dense_state.spares_of(coord)
        head = dense_state.head_of(coord)
        assert len(members) == 3
        assert len(spares) == 2
        assert head not in spares
        assert dense_state.has_spare(coord)

    def test_vacant_and_occupied(self, dense_state):
        coord = GridCoord(0, 0)
        assert not dense_state.is_vacant(coord)
        make_hole(dense_state, coord)
        assert dense_state.is_vacant(coord)
        assert coord in dense_state.vacant_cells()
        assert coord not in dense_state.occupied_cells()
        assert dense_state.head_of(coord) is None

    def test_occupancy_and_spare_counts(self, dense_state):
        occupancy = dense_state.occupancy()
        spare_counts = dense_state.spare_counts()
        assert all(count == 3 for count in occupancy.values())
        assert all(count == 2 for count in spare_counts.values())

    def test_cell_of_node(self, dense_state):
        node = dense_state.members_of(GridCoord(2, 3))[0]
        assert dense_state.cell_of_node(node.node_id) == GridCoord(2, 3)

    def test_unknown_node_raises(self, dense_state):
        with pytest.raises(KeyError):
            dense_state.node(10_000)


class TestDisableEnable:
    def test_disable_reelects_head(self, dense_state):
        coord = GridCoord(0, 0)
        original_head = dense_state.head_of(coord)
        dense_state.disable_node(original_head.node_id)
        new_head = dense_state.head_of(coord)
        assert new_head is not None
        assert new_head.node_id != original_head.node_id
        dense_state.check_invariants()

    def test_disable_last_node_creates_hole(self, sparse_state):
        coord = GridCoord(2, 2)
        head = sparse_state.head_of(coord)
        sparse_state.disable_node(head.node_id)
        assert sparse_state.is_vacant(coord)
        assert sparse_state.hole_count == 1
        sparse_state.check_invariants()

    def test_disable_is_idempotent(self, dense_state):
        node = dense_state.members_of(GridCoord(0, 0))[0]
        dense_state.disable_node(node.node_id)
        dense_state.disable_node(node.node_id)
        assert dense_state.enabled_count == 59

    def test_enable_restores_membership(self, sparse_state):
        coord = GridCoord(1, 1)
        head = sparse_state.head_of(coord)
        sparse_state.disable_node(head.node_id, reason=NodeState.MISBEHAVING)
        assert sparse_state.is_vacant(coord)
        sparse_state.enable_node(head.node_id)
        assert not sparse_state.is_vacant(coord)
        assert sparse_state.head_of(coord).node_id == head.node_id
        sparse_state.check_invariants()


class TestMoves:
    def test_move_spare_into_neighbour_cell(self, dense_state, rng):
        source, target = GridCoord(1, 1), GridCoord(1, 2)
        make_hole(dense_state, target)
        spare = dense_state.spares_of(source)[0]
        record = dense_state.move_node(spare.node_id, target, rng, round_index=3)
        assert record.source_cell == source
        assert record.target_cell == target
        assert record.round_index == 3
        assert dense_state.grid.central_area(target).contains(record.target_position)
        assert not dense_state.is_vacant(target)
        assert dense_state.head_of(target).node_id == spare.node_id
        dense_state.check_invariants()

    def test_move_head_triggers_reelection_in_source(self, dense_state, rng):
        source, target = GridCoord(0, 0), GridCoord(0, 1)
        make_hole(dense_state, target)
        head = dense_state.head_of(source)
        dense_state.move_node(head.node_id, target, rng)
        assert dense_state.head_of(source) is not None
        assert dense_state.head_of(source).node_id != head.node_id
        assert dense_state.head_of(target).node_id == head.node_id
        dense_state.check_invariants()

    def test_move_rejects_non_adjacent_by_default(self, dense_state, rng):
        node = dense_state.members_of(GridCoord(0, 0))[0]
        with pytest.raises(ValueError):
            dense_state.move_node(node.node_id, GridCoord(3, 4), rng)

    def test_move_non_adjacent_allowed_when_requested(self, dense_state, rng):
        node = dense_state.spares_of(GridCoord(0, 0))[0]
        record = dense_state.move_node(
            node.node_id, GridCoord(3, 4), rng, enforce_adjacent=False
        )
        assert record.target_cell == GridCoord(3, 4)
        dense_state.check_invariants()

    def test_move_disabled_node_raises(self, dense_state, rng):
        node = dense_state.members_of(GridCoord(0, 0))[0]
        dense_state.disable_node(node.node_id)
        with pytest.raises(RuntimeError):
            dense_state.move_node(node.node_id, GridCoord(0, 1), rng)

    def test_move_accumulates_distance(self, dense_state, rng):
        before = dense_state.total_moved_distance
        spare = dense_state.spares_of(GridCoord(2, 2))[0]
        record = dense_state.move_node(spare.node_id, GridCoord(2, 3), rng)
        assert dense_state.total_moved_distance == pytest.approx(before + record.distance)
        assert dense_state.total_move_count == 1

    def test_move_with_explicit_target_position(self, dense_state, rng):
        spare = dense_state.spares_of(GridCoord(2, 2))[0]
        target_position = Point(2.5, 3.5)
        record = dense_state.move_node(
            spare.node_id, GridCoord(2, 3), rng, target_position=target_position
        )
        assert record.target_position == target_position
        assert dense_state.node(spare.node_id).position == target_position


class TestRoles:
    def test_roles_are_consistent(self, dense_state):
        for coord in dense_state.grid.all_coords():
            head = dense_state.head_of(coord)
            for member in dense_state.members_of(coord):
                if member.node_id == head.node_id:
                    assert member.role is NodeRole.HEAD
                else:
                    assert member.role is NodeRole.SPARE

    def test_heads_mapping_copy(self, dense_state):
        heads = dense_state.heads()
        heads[GridCoord(0, 0)] = None
        assert dense_state.head_of(GridCoord(0, 0)) is not None


class TestClone:
    def test_clone_is_independent(self, dense_state, rng):
        clone = dense_state.clone()
        make_hole(clone, GridCoord(0, 0))
        assert clone.hole_count == 1
        assert dense_state.hole_count == 0
        spare = dense_state.spares_of(GridCoord(1, 0))[0]
        dense_state.move_node(spare.node_id, GridCoord(0, 0), rng)
        assert clone.node(spare.node_id).position != dense_state.node(spare.node_id).position

    def test_clone_preserves_statistics(self, uniform_state):
        clone = uniform_state.clone()
        assert clone.enabled_count == uniform_state.enabled_count
        assert clone.hole_count == uniform_state.hole_count
        assert clone.spare_count == uniform_state.spare_count
        assert clone.heads() == uniform_state.heads()


class TestInvariantsChecker:
    def test_detects_head_in_wrong_cell(self, small_grid, rng):
        nodes = deploy_per_cell_counts(small_grid, {GridCoord(0, 0): 2}, rng)
        state = WsnState(small_grid, nodes)
        # Corrupt the internal index (by flat cell id) on purpose to check the
        # detector fires.
        state._heads[small_grid.flat_index(GridCoord(1, 1))] = int(nodes.node_ids[0])
        with pytest.raises(AssertionError):
            state.check_invariants()

    def test_detects_a_spare_marked_head(self, dense_state):
        spare = dense_state.spares_of(GridCoord(1, 1))[0]
        _corrupt_role(dense_state, spare.node_id, NodeRole.HEAD)
        with pytest.raises(AssertionError, match="role rule"):
            dense_state.check_invariants()

    def test_detects_a_head_marked_spare(self, dense_state):
        _corrupt_role(dense_state, dense_state.head_id_of(GridCoord(2, 3)), NodeRole.SPARE)
        with pytest.raises(AssertionError, match="role rule"):
            dense_state.check_invariants()

    def test_disabled_nodes_are_outside_the_role_rule(self, dense_state):
        head = dense_state.head_of(GridCoord(0, 0))
        dense_state.disable_node(head.node_id)
        _corrupt_role(dense_state, head.node_id, NodeRole.HEAD)
        dense_state.check_invariants()
