"""Unit tests for the coverage evaluation."""

import pytest

from repro.experiments.registry import make_controller
from repro.grid.coverage import CoverageReport, cell_coverage_fraction, coverage_report
from repro.grid.virtual_grid import GridCoord
from repro.sim.engine import run_recovery
from repro.sim.metrics import snapshot_state

from helpers import make_hole


class TestCellCoverage:
    def test_fully_covered_network(self, dense_state):
        assert cell_coverage_fraction(dense_state) == 1.0
        report = coverage_report(dense_state)
        assert report.is_complete
        assert report.vacant_cells == 0
        assert report.covered_cells == dense_state.grid.cell_count

    def test_coverage_drops_with_holes(self, dense_state):
        make_hole(dense_state, GridCoord(0, 0))
        make_hole(dense_state, GridCoord(3, 4))
        fraction = cell_coverage_fraction(dense_state)
        assert fraction == pytest.approx(18 / 20)
        report = coverage_report(dense_state)
        assert not report.is_complete
        assert report.vacant_cells == 2

    def test_a_refilled_cell_is_covered_again(self, dense_state):
        coord = GridCoord(1, 1)
        node_ids = [node.node_id for node in dense_state.members_of(coord)]
        make_hole(dense_state, coord)
        assert cell_coverage_fraction(dense_state) == 19 / 20
        dense_state.enable_node(node_ids[0])
        assert cell_coverage_fraction(dense_state) == 1.0
        assert coverage_report(dense_state).is_complete


class TestOneDefinition:
    """Reports, snapshots and run records all read ``cell_coverage_fraction``."""

    @pytest.mark.parametrize("holes", [0, 1, 7, 20])
    def test_report_and_snapshot_agree_with_the_fraction(self, dense_state, holes):
        for coord in list(dense_state.grid.all_coords())[:holes]:
            make_hole(dense_state, coord)
        fraction = cell_coverage_fraction(dense_state)
        assert fraction == (20 - holes) / 20
        assert coverage_report(dense_state) == CoverageReport(
            total_cells=20,
            covered_cells=20 - holes,
            vacant_cells=holes,
            cell_coverage=fraction,
        )
        assert snapshot_state(dense_state).cell_coverage == fraction

    @pytest.mark.parametrize("scheme", ["SR", "AR", "VF"])
    @pytest.mark.parametrize("fixture", ["dense_state", "sparse_state"])
    def test_a_run_records_the_fraction_before_and_after(self, request, rng, fixture, scheme):
        state = request.getfixturevalue(fixture)
        make_hole(state, GridCoord(0, 0))
        make_hole(state, GridCoord(2, 3))
        before = cell_coverage_fraction(state)
        metrics = run_recovery(state, make_controller(scheme, state), rng).metrics
        assert metrics.cell_coverage_before == before == 18 / 20
        assert metrics.cell_coverage_after == cell_coverage_fraction(state)
        assert metrics.cell_coverage_after == (20 - metrics.final_holes) / 20
        if fixture == "dense_state":
            assert metrics.cell_coverage_after == 1.0
