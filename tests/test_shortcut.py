"""Unit tests for the short-cut SR extension (the paper's stated future work)."""

from repro.core.hamilton import build_hamilton_cycle
from repro.core.replacement import HamiltonReplacementController
from repro.core.shortcut import ShortcutReplacementController
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell_counts
from repro.network.state import WsnState
from repro.sim.engine import run_recovery

from helpers import make_hole, step_round


def shortcut_for(state):
    return ShortcutReplacementController(build_hamilton_cycle(state.grid))


class TestConstruction:
    def test_name_distinguishes_from_plain_sr(self, small_cycle):
        assert ShortcutReplacementController(small_cycle).name == "SR-shortcut"


class TestBehaviour:
    def test_identical_to_sr_when_initiator_has_spare(self, dense_state, rng):
        controller = shortcut_for(dense_state)
        hole = GridCoord(2, 2)
        make_hole(dense_state, hole)
        outcome = step_round(controller, dense_state, rng, 0)
        assert outcome.move_count == 1
        assert controller.shortcut_moves == 0
        assert controller.converged_processes == 1

    def test_pulls_spare_from_neighbour_instead_of_cascading(self, rng):
        """The short-cut case: the cycle initiator is empty-handed but a physical
        neighbour of the hole has a spare."""
        grid = VirtualGrid(4, 4, cell_size=1.0)
        cycle = build_hamilton_cycle(grid)
        hole = GridCoord(2, 2)
        initiator = cycle.initiator_for(hole)
        # Every cell has exactly one node except one non-initiator neighbour
        # of the hole, which holds the only spare in the network.
        donor = next(
            c for c in grid.neighbours(hole) if c != initiator
        )
        counts = {coord: 1 for coord in grid.all_coords()}
        counts[donor] = 2
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        make_hole(state, hole)

        shortcut = ShortcutReplacementController(cycle)
        result = run_recovery(state, shortcut, rng)
        assert result.metrics.final_holes == 0
        assert result.metrics.total_moves == 1
        assert shortcut.shortcut_moves == 1
        state.check_invariants()

    def test_shortcut_preserves_one_process_per_hole(self, rng):
        grid = VirtualGrid(6, 6, cell_size=1.0)
        counts = {coord: 2 for coord in grid.all_coords()}
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        controller = ShortcutReplacementController(build_hamilton_cycle(grid))
        holes = [GridCoord(1, 1), GridCoord(4, 4), GridCoord(2, 5)]
        for hole in holes:
            make_hole(state, hole)
        result = run_recovery(state, controller, rng)
        assert result.metrics.processes_initiated == len(holes)
        assert result.metrics.final_holes == 0
        assert result.metrics.success_rate == 1.0

    def test_falls_back_to_cascade_when_no_neighbour_has_spares(self, rng):
        grid = VirtualGrid(4, 4, cell_size=1.0)
        cycle = build_hamilton_cycle(grid)
        order = cycle.order()
        hole = order[10]
        spare_cell = order[4]  # six hops upstream, not adjacent to the hole
        counts = {coord: 1 for coord in grid.all_coords()}
        counts[spare_cell] = 2
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        make_hole(state, hole)
        controller = ShortcutReplacementController(cycle)
        result = run_recovery(state, controller, rng)
        assert result.metrics.final_holes == 0
        # The snake may shorten as soon as some intermediate vacancy has a
        # spare next to it, but it still needs the cascade mechanism.
        assert result.metrics.total_moves >= 1
        state.check_invariants()

    def test_cheaper_than_plain_sr_in_sparse_networks(self, rng):
        """The claim of Section 5's future-work paragraph, measured."""
        grid = VirtualGrid(8, 8, cell_size=1.0)
        counts = {coord: 1 for coord in grid.all_coords()}
        # A handful of spares scattered around the area.
        for coord in (GridCoord(1, 6), GridCoord(6, 1), GridCoord(5, 5), GridCoord(2, 2)):
            counts[coord] = 2
        base = WsnState(grid, deploy_per_cell_counts(grid, counts, rng))
        holes = [GridCoord(0, 3), GridCoord(7, 4), GridCoord(4, 0)]
        for hole in holes:
            make_hole(base, hole)

        sr_state, shortcut_state = base.clone(), base.clone()
        sr = HamiltonReplacementController(build_hamilton_cycle(grid))
        shortcut = ShortcutReplacementController(build_hamilton_cycle(grid))
        sr_result = run_recovery(sr_state, sr, rng)
        shortcut_result = run_recovery(shortcut_state, shortcut, rng)

        assert sr_result.metrics.final_holes == 0
        assert shortcut_result.metrics.final_holes == 0
        # The paper's future-work claim is about cost: the short-cut never
        # moves more nodes than plain SR on the same scenario.  (Round counts
        # can go either way because consuming a nearby spare may lengthen the
        # walk of a *different* hole's cascade.)
        assert shortcut_result.metrics.total_moves <= sr_result.metrics.total_moves
