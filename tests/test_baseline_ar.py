"""Unit tests for the AR baseline (localized, unsynchronised replacement)."""

import pytest

from repro.core.baseline_ar import LocalizedReplacementController
from repro.core.hamilton import build_hamilton_cycle
from repro.core.replacement import HamiltonReplacementController
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell
from repro.network.state import WsnState
from repro.sim.engine import run_recovery

from helpers import make_hole, step_round


class TestConstruction:
    def test_invalid_arguments(self, small_grid):
        with pytest.raises(ValueError):
            LocalizedReplacementController(small_grid, max_hops=0)
        with pytest.raises(ValueError):
            LocalizedReplacementController(small_grid, stall_limit=0)

    def test_default_hop_budget(self, small_grid):
        controller = LocalizedReplacementController(small_grid)
        assert controller.max_hops == small_grid.cell_count


class TestOverreaction:
    def test_every_occupied_neighbour_initiates(self, dense_state, rng):
        """The defining AR behaviour: one hole, several replacement processes."""
        controller = LocalizedReplacementController(dense_state.grid)
        hole = GridCoord(2, 2)  # interior cell: four occupied neighbours
        make_hole(dense_state, hole)
        step_round(controller, dense_state, rng, 0)
        assert controller.total_processes == 4
        origins = {p.origin_cell for p in controller.processes()}
        assert origins == {hole}
        initiators = {p.initiator_cell for p in controller.processes()}
        assert initiators == set(dense_state.grid.neighbours(hole))

    def test_redundant_moves_into_same_hole(self, dense_state, rng):
        """Same-round processes cannot see each other, so the hole gets several nodes."""
        controller = LocalizedReplacementController(dense_state.grid)
        hole = GridCoord(1, 2)
        make_hole(dense_state, hole)
        outcome = step_round(controller, dense_state, rng, 0)
        assert outcome.move_count >= 2
        assert dense_state.member_count(hole) >= 2
        dense_state.check_invariants()

    def test_corner_hole_has_fewer_processes(self, dense_state, rng):
        controller = LocalizedReplacementController(dense_state.grid)
        make_hole(dense_state, GridCoord(0, 0))
        step_round(controller, dense_state, rng, 0)
        assert controller.total_processes == 2

    def test_sr_initiates_strictly_fewer_processes(self, dense_state, rng):
        """The paper's headline comparison on a single scenario."""
        ar_state = dense_state.clone()
        holes = [GridCoord(1, 1), GridCoord(2, 3), GridCoord(3, 0)]
        for hole in holes:
            make_hole(dense_state, hole)
            make_hole(ar_state, hole)
        sr = HamiltonReplacementController(build_hamilton_cycle(dense_state.grid))
        ar = LocalizedReplacementController(ar_state.grid)
        run_recovery(dense_state, sr, rng)
        run_recovery(ar_state, ar, rng)
        assert sr.total_processes == len(holes)
        assert ar.total_processes >= 2 * sr.total_processes


class TestCascadeAndFailure:
    def test_aborts_when_hole_already_filled_previous_round(self, dense_state, rng):
        controller = LocalizedReplacementController(dense_state.grid)
        hole = GridCoord(2, 2)
        make_hole(dense_state, hole)
        step_round(controller, dense_state, rng, 0)
        # Round 1: the hole is covered, the remaining processes abort as redundant.
        step_round(controller, dense_state, rng, 1)
        assert not controller.active_processes()
        assert controller.redundant_processes >= 0
        assert controller.converged_processes == controller.total_processes

    def test_cascading_without_spares_leaves_trail(self, sparse_state, rng):
        """Heads move into the hole, vacating their own cells (the 1-hop cascade)."""
        controller = LocalizedReplacementController(sparse_state.grid)
        hole = GridCoord(2, 2)
        make_hole(sparse_state, hole)
        outcome = step_round(controller, sparse_state, rng, 0)
        assert outcome.move_count >= 2
        assert not sparse_state.is_vacant(hole)
        # The moved heads left their own cells vacant (new holes appear).
        assert sparse_state.hole_count >= 1

    def test_success_rate_below_one_without_spares(self, sparse_state, rng):
        controller = LocalizedReplacementController(sparse_state.grid)
        make_hole(sparse_state, GridCoord(1, 1))
        result = run_recovery(sparse_state, controller, rng)
        assert controller.failed_processes >= 1
        assert result.metrics.success_rate < 1.0

    def test_dense_network_single_hole_full_success(self, dense_state, rng):
        controller = LocalizedReplacementController(dense_state.grid)
        make_hole(dense_state, GridCoord(3, 3))
        result = run_recovery(dense_state, controller, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.success_rate == 1.0

    def test_hop_budget_limits_cascade(self, sparse_state, rng):
        controller = LocalizedReplacementController(sparse_state.grid, max_hops=2)
        make_hole(sparse_state, GridCoord(2, 2))
        run_recovery(sparse_state, controller, rng)
        for process in controller.processes():
            assert process.move_count <= 2 + 1  # budget plus the final marking move

    def test_finalize_marks_leftover_processes(self, sparse_state, rng):
        controller = LocalizedReplacementController(sparse_state.grid)
        make_hole(sparse_state, GridCoord(0, 0))
        step_round(controller, sparse_state, rng, 0)
        controller.finalize(sparse_state, 1)
        assert not controller.active_processes()


class TestIsolatedHole:
    def test_hole_with_no_occupied_neighbours_waits(self, rng):
        """A hole surrounded by holes cannot be announced until a neighbour recovers."""
        grid = VirtualGrid(5, 4, cell_size=1.0)
        state = WsnState(grid, deploy_per_cell(grid, 1, rng))
        center = GridCoord(2, 2)
        for coord in [center] + grid.neighbours(center):
            make_hole(state, coord)
        controller = LocalizedReplacementController(grid)
        step_round(controller, state, rng, 0)
        origins = {p.origin_cell for p in controller.processes()}
        assert center not in origins
