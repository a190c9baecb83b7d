"""Unit tests for the ASCII grid renderer."""

import random

from repro.core.hamilton import DualPathHamiltonCycle, SerpentineHamiltonCycle
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell_counts
from repro.network.state import WsnState
from repro.viz.ascii_grid import (
    render_cycle,
    render_dual_paths,
    render_occupancy,
)

from helpers import make_hole


class TestOccupancyRendering:
    def test_counts_and_holes(self, dense_state):
        make_hole(dense_state, GridCoord(0, 4))
        text = render_occupancy(dense_state)
        assert "3" in text
        assert "." in text
        # One bordered line per grid row plus the outer borders.
        assert text.count("\n") == 2 * dense_state.grid.rows

    def test_row_orientation_top_is_max_y(self, sparse_state):
        """The first rendered row corresponds to the highest y (paper orientation)."""
        make_hole(sparse_state, GridCoord(0, 4))
        lines = render_occupancy(sparse_state).splitlines()
        first_cell_row = lines[1]
        assert first_cell_row.strip().startswith("|") and "." in first_cell_row

    def test_exact_layout_of_a_2x2_grid(self):
        grid = VirtualGrid(2, 2, 1.0)
        counts = {GridCoord(0, 0): 1, GridCoord(1, 0): 2, GridCoord(0, 1): 3}
        state = WsnState(grid, deploy_per_cell_counts(grid, counts, random.Random(0)))
        assert render_occupancy(state, cell_width=3) == "\n".join(
            [
                "+---+---+",
                "| 3 | . |",
                "+---+---+",
                "| 1 | 2 |",
                "+---+---+",
            ]
        )


class TestCycleRendering:
    def test_all_indices_present(self):
        grid = VirtualGrid(4, 5, 1.0)
        text = render_cycle(SerpentineHamiltonCycle(grid))
        for index in range(20):
            assert str(index) in text

    def test_arrows_present(self):
        grid = VirtualGrid(4, 4, 1.0)
        text = render_cycle(SerpentineHamiltonCycle(grid))
        assert any(arrow in text for arrow in "^v<>")

    def test_exact_layout_of_a_2x3_serpentine(self):
        """Cycle (0,1) (0,2) (1,2) (1,1) (1,0) (0,0): each arrow points at the successor."""
        cycle = SerpentineHamiltonCycle(VirtualGrid(2, 3, 1.0))
        assert render_cycle(cycle, cell_width=3) == "\n".join(
            [
                "+---+---+",
                "| 1>| 2v|",
                "+---+---+",
                "| 0^| 3v|",
                "+---+---+",
                "| 5^| 4<|",
                "+---+---+",
            ]
        )

    def test_labels_are_cut_to_the_cell_width(self):
        grid = VirtualGrid(4, 4, 1.0)
        lines = render_cycle(SerpentineHamiltonCycle(grid), cell_width=1).splitlines()
        assert len(lines) == 2 * grid.rows + 1
        assert all(len(line) == 1 + grid.columns * 2 for line in lines)
        assert lines[-2] == "|1|0|1|2|"  # indices 15, 0, 1, 2 cut to one character

    def test_exact_dual_path_layout_of_a_3x3_grid(self):
        """A, B, C, D as in Figure 4, and the shared chain numbered from D to C."""
        cycle = DualPathHamiltonCycle(VirtualGrid(3, 3, 1.0))
        assert render_dual_paths(cycle, cell_width=4) == "\n".join(
            [
                "+----+----+----+",
                "| 5  | 4  | 3  |",
                "+----+----+----+",
                "| C6 | B  | 2  |",
                "+----+----+----+",
                "| A  | D0 | 1  |",
                "+----+----+----+",
            ]
        )

    def test_dual_path_rendering_labels(self):
        grid = VirtualGrid(5, 5, 1.0)
        cycle = DualPathHamiltonCycle(grid)
        text = render_dual_paths(cycle)
        assert " A " in text or "A" in text
        assert "D0" in text  # D is the first chain cell
        assert "C22" in text  # C is the last chain cell of the 5x5 construction
