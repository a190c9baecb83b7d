"""Coverage evaluation.

The paper equates *complete coverage* with "every virtual-grid cell has a
grid head" (Section 2, following the GAF result): when that holds, the heads
alone cover the surveillance area and stay connected.  This module provides
the cell-level coverage metrics the paper's argument is based on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoverageReport:
    """Summary of coverage for one network state."""

    total_cells: int
    covered_cells: int
    vacant_cells: int
    cell_coverage: float

    @property
    def is_complete(self) -> bool:
        """Whether every cell has at least one enabled node (no holes)."""
        return self.vacant_cells == 0


def cell_coverage_fraction(state) -> float:
    """Fraction of cells that currently have a head (i.e. are not holes).

    O(1): both terms come from the state's incremental indices.
    """
    total = state.grid.cell_count
    vacant = state.hole_count
    return (total - vacant) / total if total else 1.0


def coverage_report(state) -> CoverageReport:
    """Build a :class:`CoverageReport` for a network state."""
    total = state.grid.cell_count
    vacant = state.hole_count
    return CoverageReport(
        total_cells=total,
        covered_cells=total - vacant,
        vacant_cells=vacant,
        cell_coverage=cell_coverage_fraction(state),
    )
