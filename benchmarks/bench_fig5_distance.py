"""Figure 5: estimated total moving distance of a single replacement (r = 10).

Regenerates the distance estimates for the 4x5 (L = 19) and 16x16 (L = 255)
grid systems and checks the per-hop distance model of Section 4 (minimum
``r/4``, maximum ``sqrt(58)/4 * r``, average ``1.08 * r``) against sampled
moves.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import analysis
from repro.experiments.figures import figure5_distance_estimates
from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord, VirtualGrid, random_point_in_box
from repro.network.mobility import MovementModel
from repro.network.node import SensorNode
from repro.network.state import WsnState

from figutils import emit


@pytest.mark.benchmark(group="fig5-distance")
def test_fig5_distance_table(benchmark, results_dir):
    """Regenerate the Figure 5 data series (r = 10 m, both grid systems)."""
    result = benchmark(figure5_distance_estimates, 10.0)

    emit(result, results_dir, "fig5_distance_estimates.csv")
    small = {int(row["N"]): row["expected_distance"] for row in result.rows if row["grid"] == "4x5"}
    large = {int(row["N"]): row["expected_distance"] for row in result.rows if row["grid"] == "16x16"}
    # Left edge of the curves: with no spares the estimate is 1.08 * r * L.
    assert small[0] == pytest.approx(1.08 * 10.0 * 19, rel=1e-9)
    assert large[0] == pytest.approx(1.08 * 10.0 * 255, rel=1e-9)
    # Right edge: with many spares a replacement costs about one hop.
    assert small[140] < 1.2 * 1.08 * 10.0
    assert large[1000] < 1.3 * 1.08 * 10.0


@pytest.mark.benchmark(group="fig5-distance")
def test_fig5_hop_distance_model(benchmark):
    """Empirical per-hop distances stay within the paper's [r/4, sqrt(58)/4*r] bounds."""
    cell_size = 10.0
    grid = VirtualGrid(4, 5, cell_size=cell_size)
    model = MovementModel(grid)
    rng = random.Random(5)
    source_cell, target_cell = GridCoord(1, 1), GridCoord(2, 1)

    def sample_moves(samples: int = 400) -> float:
        total = 0.0
        for i in range(samples):
            start = random_point_in_box(grid.cell_bounds(source_cell), rng)
            state = WsnState(
                grid, [SensorNode(node_id=i, position=start)], movement_model=model
            )
            total += state.move_node(i, target_cell, rng, round_index=0).distance
        return total / samples

    average = benchmark(sample_moves)

    low, estimate, high = analysis.hop_distance_statistics(cell_size)
    assert low == pytest.approx(cell_size / 4.0)
    assert high == pytest.approx(math.sqrt(58.0) / 4.0 * cell_size)
    # The empirical mean of random-corner to central-area moves sits near the
    # paper's 1.08 * r figure (it is an approximation, so allow a wide band).
    assert 0.75 * estimate <= average <= 1.25 * estimate
