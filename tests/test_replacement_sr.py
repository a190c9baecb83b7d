"""Unit tests for the SR scheme (Algorithm 1 / Algorithm 2 controller)."""

import random

import pytest

from repro.core.hamilton import DualPathHamiltonCycle, build_hamilton_cycle
from repro.core.protocol import ProcessStatus
from repro.core.replacement import HamiltonReplacementController
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell, deploy_per_cell_counts
from repro.network.state import WsnState
from repro.sim.engine import run_recovery

from helpers import make_hole, step_round


def controller_for(state, **kwargs):
    return HamiltonReplacementController(build_hamilton_cycle(state.grid), **kwargs)


class TestConstruction:
    def test_invalid_arguments(self, small_cycle):
        with pytest.raises(ValueError):
            HamiltonReplacementController(small_cycle, spare_selection="closest")
        with pytest.raises(ValueError):
            HamiltonReplacementController(small_cycle, max_hops=0)

    def test_default_hop_budget_is_path_length(self, small_cycle):
        controller = HamiltonReplacementController(small_cycle)
        assert controller.max_hops == small_cycle.replacement_path_length


class TestSingleHole:
    def test_spare_in_predecessor_fills_hole_in_one_round(self, dense_state, rng):
        controller = controller_for(dense_state)
        hole = GridCoord(2, 2)
        make_hole(dense_state, hole)
        outcome = step_round(controller, dense_state, rng, 0)
        assert not dense_state.is_vacant(hole)
        assert outcome.move_count == 1
        assert len(outcome.processes_started) == 1
        assert len(outcome.processes_converged) == 1
        process = controller.processes()[0]
        assert process.converged
        assert process.origin_cell == hole
        assert process.move_count == 1
        dense_state.check_invariants()

    def test_only_the_predecessor_initiates(self, dense_state, rng):
        """Synchronisation claim: one and only one process per hole."""
        controller = controller_for(dense_state)
        cycle = controller.cycle
        hole = GridCoord(1, 3)
        make_hole(dense_state, hole)
        step_round(controller, dense_state, rng, 0)
        assert controller.total_processes == 1
        assert controller.processes()[0].initiator_cell == cycle.initiator_for(hole)

    def test_spare_moves_into_central_area(self, dense_state, rng):
        controller = controller_for(dense_state)
        hole = GridCoord(0, 2)
        make_hole(dense_state, hole)
        outcome = step_round(controller, dense_state, rng, 0)
        move = outcome.moves[0]
        assert dense_state.grid.central_area(hole).contains(move.target_position)

    def test_cascading_when_predecessor_has_no_spare(self, sparse_state, rng):
        """Without a spare, the head itself moves, vacating its own cell (step 3)."""
        controller = controller_for(sparse_state)
        cycle = controller.cycle
        hole = GridCoord(2, 2)
        predecessor = cycle.initiator_for(hole)
        make_hole(sparse_state, hole)
        outcome = step_round(controller, sparse_state, rng, 0)
        assert not sparse_state.is_vacant(hole)
        assert sparse_state.is_vacant(predecessor), "the cascade leaves the initiator cell vacant"
        assert outcome.messages_sent == 1
        process = controller.processes()[0]
        assert process.is_active
        assert process.move_count == 1

    def test_no_action_without_holes(self, dense_state, rng):
        controller = controller_for(dense_state)
        outcome = step_round(controller, dense_state, rng, 0)
        assert not outcome.made_progress
        assert controller.total_processes == 0
        assert controller.is_quiescent(dense_state)


class TestCascadeConvergence:
    def test_cascade_walks_until_spare_found(self, rng):
        """One spare far upstream: the snake walks the Hamilton path to reach it."""
        grid = VirtualGrid(4, 4, cell_size=1.0)
        cycle = build_hamilton_cycle(grid)
        order = cycle.order()
        # One node per cell, plus one extra spare placed 5 hops upstream of the hole.
        hole = order[10]
        spare_cell = order[5]
        counts = {coord: 1 for coord in grid.all_coords()}
        counts[spare_cell] = 2
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        make_hole(state, hole)
        controller = HamiltonReplacementController(cycle)
        result = run_recovery(state, controller, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.processes_initiated == 1
        assert result.metrics.processes_converged == 1
        # The cascade needed exactly the number of hops between spare and hole.
        assert result.metrics.total_moves == 5
        state.check_invariants()

    def test_each_round_advances_one_hop(self, rng):
        grid = VirtualGrid(4, 4, cell_size=1.0)
        cycle = build_hamilton_cycle(grid)
        order = cycle.order()
        hole = order[8]
        spare_cell = order[4]
        counts = {coord: 1 for coord in grid.all_coords()}
        counts[spare_cell] = 2
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        make_hole(state, hole)
        controller = HamiltonReplacementController(cycle)
        for round_index in range(4):
            outcome = step_round(controller, state, rng, round_index)
            assert outcome.move_count == 1
        assert state.hole_count == 0

    def test_no_spares_process_fails_within_hop_budget(self, sparse_state, rng):
        controller = controller_for(sparse_state)
        hole = GridCoord(3, 3)
        make_hole(sparse_state, hole)
        result = run_recovery(sparse_state, controller, rng)
        process = controller.processes()[0]
        assert process.failed
        assert process.move_count <= controller.max_hops
        # The hole was never truly repaired: it just moved along the cycle.
        assert sparse_state.hole_count == 1

    def test_custom_hop_budget(self, sparse_state, rng):
        controller = controller_for(sparse_state, max_hops=3)
        make_hole(sparse_state, GridCoord(1, 1))
        run_recovery(sparse_state, controller, rng)
        assert controller.processes()[0].move_count <= 3


class TestMultipleHoles:
    def test_one_process_per_hole(self, dense_state, rng):
        controller = controller_for(dense_state)
        holes = [GridCoord(0, 0), GridCoord(2, 3), GridCoord(3, 1)]
        for hole in holes:
            make_hole(dense_state, hole)
        result = run_recovery(dense_state, controller, rng)
        assert result.metrics.processes_initiated == len(holes)
        assert result.metrics.final_holes == 0
        assert result.metrics.success_rate == 1.0
        assert {p.origin_cell for p in controller.processes()} == set(holes)

    def test_adjacent_holes_are_conflict_free(self, dense_state, rng):
        """The directed cycle guarantees different initiators for adjacent holes."""
        controller = controller_for(dense_state)
        holes = [GridCoord(1, 1), GridCoord(1, 2), GridCoord(2, 1), GridCoord(2, 2)]
        for hole in holes:
            make_hole(dense_state, hole)
        result = run_recovery(dense_state, controller, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.processes_initiated == len(holes)
        dense_state.check_invariants()

    def test_theorem1_whenever_spares_exist(self, rng):
        """Theorem 1 / Corollary 1: holes are filled whenever spares exist."""
        grid = VirtualGrid(6, 6, cell_size=1.0)
        counts = {coord: 1 for coord in grid.all_coords()}
        # Exactly 4 spares, all piled up in one corner cell.
        counts[GridCoord(5, 5)] = 5
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        controller = HamiltonReplacementController(build_hamilton_cycle(grid))
        for hole in [GridCoord(0, 0), GridCoord(3, 2), GridCoord(1, 4), GridCoord(2, 2)]:
            make_hole(state, hole)
        result = run_recovery(state, controller, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.success_rate == 1.0


class TestDualPathAlgorithm2:
    @pytest.mark.parametrize(
        "hole",
        [GridCoord(0, 0), GridCoord(1, 1), GridCoord(1, 0), GridCoord(0, 1), GridCoord(4, 4)],
        ids=["A", "B", "D", "C", "far-chain-cell"],
    )
    def test_recovery_through_every_special_cell(self, hole, rng):
        grid = VirtualGrid(5, 5, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 2, rng))
        make_hole(state, hole)
        controller = HamiltonReplacementController(DualPathHamiltonCycle(grid))
        result = run_recovery(state, controller, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.processes_initiated == 1
        assert result.metrics.success_rate == 1.0

    def test_single_far_spare_reaches_cell_b(self, rng):
        """Corollary 1 on the dual-path cycle: one spare anywhere suffices."""
        grid = VirtualGrid(5, 5, cell_size=1.0)
        counts = {coord: 1 for coord in grid.all_coords()}
        counts[GridCoord(4, 4)] = 2
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        make_hole(state, GridCoord(1, 1))  # cell B
        controller = HamiltonReplacementController(DualPathHamiltonCycle(grid))
        result = run_recovery(state, controller, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.success_rate == 1.0


class TestSpareSelection:
    def test_nearest_spare_selected(self, dense_state, rng):
        controller = controller_for(dense_state, spare_selection="nearest")
        hole = GridCoord(2, 2)
        initiator = controller.cycle.initiator_for(hole)
        make_hole(dense_state, hole)
        spares_before = dense_state.spares_of(initiator)
        target_center = dense_state.grid.cell_center(hole)
        expected = min(
            spares_before,
            key=lambda node: (node.position.distance_to(target_center), node.node_id),
        )
        outcome = step_round(controller, dense_state, rng, 0)
        assert outcome.moves[0].node_id == expected.node_id

    def test_random_selection_supported(self, dense_state, rng):
        controller = controller_for(dense_state, spare_selection="random")
        make_hole(dense_state, GridCoord(1, 1))
        outcome = step_round(controller, dense_state, rng, 0)
        assert outcome.move_count == 1


class TestBookkeeping:
    def test_describe_and_aggregates(self, dense_state, rng):
        controller = controller_for(dense_state)
        make_hole(dense_state, GridCoord(0, 3))
        run_recovery(dense_state, controller, rng)
        text = controller.describe()
        assert "SR" in text and "processes=1" in text
        assert controller.total_moves >= 1
        assert controller.total_distance > 0
        assert controller.success_rate == 1.0

    def test_finalize_marks_active_processes_failed(self, sparse_state, rng):
        controller = controller_for(sparse_state)
        make_hole(sparse_state, GridCoord(0, 0))
        step_round(controller, sparse_state, rng, 0)
        assert controller.active_processes()
        controller.finalize(sparse_state, round_index=1)
        assert not controller.active_processes()
        assert controller.processes()[0].status is ProcessStatus.FAILED

    def test_pending_vacancies_tracking(self, sparse_state, rng):
        controller = controller_for(sparse_state)
        make_hole(sparse_state, GridCoord(2, 2))
        step_round(controller, sparse_state, rng, 0)
        pending = controller.pending_vacancies()
        assert len(pending) == 1
        assert sparse_state.is_vacant(pending[0])
