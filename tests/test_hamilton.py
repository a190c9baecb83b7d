"""Unit tests for the directed Hamilton cycle constructions (Sections 2 and 4)."""

import pytest

from repro.core.hamilton import (
    DualPathHamiltonCycle,
    HamiltonConstructionError,
    SerpentineHamiltonCycle,
    build_hamilton_cycle,
)
from repro.experiments.registry import make_controller
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell
from repro.network.state import WsnState


def grid(columns, rows):
    return VirtualGrid(columns, rows, cell_size=1.0)


class TestFactory:
    @pytest.mark.parametrize("columns,rows", [(2, 2), (4, 5), (16, 16), (6, 3)])
    def test_even_grids_use_serpentine(self, columns, rows):
        cycle = build_hamilton_cycle(grid(columns, rows))
        assert isinstance(cycle, SerpentineHamiltonCycle)

    @pytest.mark.parametrize("columns,rows", [(3, 3), (5, 5), (7, 3), (9, 11)])
    def test_odd_by_odd_grids_use_dual_path(self, columns, rows):
        cycle = build_hamilton_cycle(grid(columns, rows))
        assert isinstance(cycle, DualPathHamiltonCycle)

    @pytest.mark.parametrize("columns,rows", [(1, 1), (1, 5), (7, 1)])
    def test_degenerate_grids_rejected(self, columns, rows):
        with pytest.raises(HamiltonConstructionError):
            build_hamilton_cycle(grid(columns, rows))

    @pytest.mark.parametrize("columns,rows", [(6, 4), (5, 5)])
    def test_sr_controllers_on_equal_grids_share_one_structure(self, columns, rows, rng):
        controllers = [
            make_controller(
                scheme,
                WsnState(grid(columns, rows), deploy_per_cell(grid(columns, rows), 1, rng)),
            )
            for scheme in ("SR", "SR-shortcut", "SR-energy")
        ]
        cycle = controllers[0].cycle
        assert all(controller.cycle is cycle for controller in controllers)
        # Sharing is safe because callers only ever get copies.
        order = cycle.order()
        assert order is not cycle.order()
        order.clear()
        assert len(cycle.order()) == columns * rows


class TestSerpentine:
    @pytest.mark.parametrize("columns,rows", [(2, 2), (4, 5), (5, 4), (16, 16), (3, 8)])
    def test_is_valid_hamilton_cycle(self, columns, rows):
        cycle = SerpentineHamiltonCycle(grid(columns, rows))
        cycle.validate()
        order = cycle.order()
        assert len(order) == columns * rows
        # Closing edge: the last cell is adjacent to the first one.
        assert order[-1].is_neighbour_of(order[0])

    def test_rejects_odd_by_odd(self):
        with pytest.raises(HamiltonConstructionError):
            SerpentineHamiltonCycle(grid(5, 5))

    def test_rejects_single_row(self):
        with pytest.raises(HamiltonConstructionError):
            SerpentineHamiltonCycle(grid(1, 4))

    def test_lengths_match_paper(self):
        assert SerpentineHamiltonCycle(grid(4, 5)).replacement_path_length == 19
        assert SerpentineHamiltonCycle(grid(16, 16)).replacement_path_length == 255
        assert SerpentineHamiltonCycle(grid(4, 5)).cycle_length == 20

    def test_successor_predecessor_inverse(self):
        cycle = SerpentineHamiltonCycle(grid(6, 4))
        for coord in grid(6, 4).all_coords():
            assert cycle.predecessor(cycle.successor(coord)) == coord
            assert cycle.successor(cycle.predecessor(coord)) == coord
            assert cycle.successor(coord).is_neighbour_of(coord)

    def test_every_cell_has_unique_successor(self):
        cycle = SerpentineHamiltonCycle(grid(4, 5))
        successors = [cycle.successor(c) for c in grid(4, 5).all_coords()]
        assert len(set(successors)) == 20

    def test_initiator_is_predecessor(self):
        cycle = SerpentineHamiltonCycle(grid(4, 5))
        vacant = GridCoord(2, 2)
        assert cycle.initiator_for(vacant) == cycle.predecessor(vacant)

    def test_monitored_cells(self):
        cycle = SerpentineHamiltonCycle(grid(4, 5))
        for coord in grid(4, 5).all_coords():
            assert cycle.monitored_cells(coord) == [cycle.successor(coord)]

    def test_upstream_distance(self):
        cycle = SerpentineHamiltonCycle(grid(4, 5))
        vacant = GridCoord(2, 2)
        predecessor = cycle.predecessor(vacant)
        assert cycle.upstream_distance(vacant, predecessor) == 1
        assert cycle.upstream_distance(vacant, vacant) == 0
        assert cycle.upstream_distance(vacant, cycle.successor(vacant)) == 19

    def test_index_of_round_trip(self):
        cycle = SerpentineHamiltonCycle(grid(4, 5))
        order = cycle.order()
        for index, coord in enumerate(order):
            assert cycle.index_of(coord) == index


class TestDualPath:
    @pytest.mark.parametrize("columns,rows", [(3, 3), (5, 5), (3, 7), (9, 5), (11, 11)])
    def test_paths_are_valid_hamilton_paths(self, columns, rows):
        cycle = DualPathHamiltonCycle(grid(columns, rows))
        cycle.validate()
        all_cells = set(grid(columns, rows).all_coords())
        for path in (cycle.path_one(), cycle.path_two()):
            assert set(path) == all_cells
            assert len(path) == columns * rows
            for a, b in zip(path, path[1:]):
                assert a.is_neighbour_of(b)

    def test_rejects_even_grids(self):
        with pytest.raises(HamiltonConstructionError):
            DualPathHamiltonCycle(grid(4, 5))

    def test_rejects_too_small(self):
        with pytest.raises(HamiltonConstructionError):
            DualPathHamiltonCycle(grid(1, 3))

    def test_shared_chain_properties(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        chain = cycle.shared_chain()
        # The two paths share m*n - 2 cells (everything except A and B).
        assert len(chain) == 23
        assert cycle.cell_a not in chain
        assert cycle.cell_b not in chain
        assert chain[0] == cycle.cell_d
        assert chain[-1] == cycle.cell_c

    def test_special_cell_adjacency(self):
        """C must precede both A and B; D must succeed both (Section 4)."""
        cycle = DualPathHamiltonCycle(grid(7, 9))
        assert cycle.cell_c.is_neighbour_of(cycle.cell_a)
        assert cycle.cell_c.is_neighbour_of(cycle.cell_b)
        assert cycle.cell_d.is_neighbour_of(cycle.cell_a)
        assert cycle.cell_d.is_neighbour_of(cycle.cell_b)

    def test_paths_share_middle_section(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        assert cycle.path_one()[1:-1] == cycle.path_two()[1:-1] == cycle.shared_chain()
        assert cycle.path_one()[0] == cycle.cell_a and cycle.path_one()[-1] == cycle.cell_b
        assert cycle.path_two()[0] == cycle.cell_b and cycle.path_two()[-1] == cycle.cell_a

    def test_lengths_match_corollary(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        assert cycle.cycle_length == 24
        assert cycle.replacement_path_length == 23

    def test_chain_navigation(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        chain = cycle.shared_chain()
        assert cycle.chain_predecessor(cycle.cell_d) is None
        assert cycle.chain_successor(cycle.cell_c) is None
        assert cycle.chain_successor(cycle.cell_d) == chain[1]
        assert cycle.chain_predecessor(chain[1]) == cycle.cell_d
        with pytest.raises(ValueError):
            cycle.chain_predecessor(cycle.cell_a)

    def test_initiators_for_special_cells(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        no_spares = lambda _c: False
        # Case one: A or B vacant -> C initiates.
        assert cycle.initiator_for(cycle.cell_a, no_spares, origin=cycle.cell_a) == cycle.cell_c
        assert cycle.initiator_for(cycle.cell_b, no_spares, origin=cycle.cell_b) == cycle.cell_c
        # Case two: D vacant as an original hole -> only B initiates.
        assert cycle.initiator_for(cycle.cell_d, no_spares, origin=cycle.cell_d) == cycle.cell_b
        # Case three: D vacated by a cascade -> prefer A when A has a spare.
        has_spare_at_a = lambda c: c == cycle.cell_a
        other_origin = GridCoord(3, 3)
        assert (
            cycle.initiator_for(cycle.cell_d, has_spare_at_a, origin=other_origin)
            == cycle.cell_a
        )
        assert (
            cycle.initiator_for(cycle.cell_d, no_spares, origin=other_origin)
            == cycle.cell_b
        )

    def test_initiator_for_c_prefers_a_with_spares(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        has_spare_at_a = lambda c: c == cycle.cell_a
        assert (
            cycle.initiator_for(cycle.cell_c, has_spare_at_a, origin=GridCoord(4, 4))
            == cycle.cell_a
        )
        # When the process serves A itself, A cannot be the supplier.
        assert (
            cycle.initiator_for(cycle.cell_c, has_spare_at_a, origin=cycle.cell_a)
            == cycle.chain_predecessor(cycle.cell_c)
        )
        assert (
            cycle.initiator_for(cycle.cell_c, lambda _c: False, origin=GridCoord(4, 4))
            == cycle.chain_predecessor(cycle.cell_c)
        )

    def test_initiator_for_chain_cells(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        chain = cycle.shared_chain()
        for previous, current in zip(chain, chain[1:]):
            assert cycle.initiator_for(current, lambda _c: False, origin=current) == previous

    def test_monitored_cells_cover_every_cell(self):
        cycle = DualPathHamiltonCycle(grid(5, 5))
        monitored = set()
        for coord in grid(5, 5).all_coords():
            monitored.update(cycle.monitored_cells(coord))
        # Every cell is watched by someone, so every hole gets detected.
        assert monitored == set(grid(5, 5).all_coords())
