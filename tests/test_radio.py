"""Unit tests for the unit-disk radio model."""

import math

import pytest

from repro.grid.geometry import Point
from repro.grid.virtual_grid import VirtualGrid
from repro.network.node_arrays import NodeArrays
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState


def nodes_at(*positions, disabled=()):
    """Handles of nodes ``0, 1, ...`` at ``positions`` (on an 11 m square), some disabled."""
    xs, ys = zip(*positions)
    state = WsnState(
        VirtualGrid(11, 11, cell_size=1.0), NodeArrays.from_positions(range(len(xs)), xs, ys)
    )
    state.disable_nodes(disabled)
    return list(state.nodes())


class TestRange:
    def test_rejects_non_positive_range(self):
        with pytest.raises(ValueError):
            UnitDiskRadio(0.0)

    def test_in_range_is_inclusive(self):
        radio = UnitDiskRadio(5.0)
        assert radio.in_range(Point(0, 0), Point(5, 0))
        assert radio.in_range(Point(0, 0), Point(3, 4))
        assert not radio.in_range(Point(0, 0), Point(5.01, 0))

    def test_gaf_cell_size(self):
        radio = UnitDiskRadio(10.0)
        assert radio.gaf_cell_size == pytest.approx(10.0 / math.sqrt(5))
        assert radio.supports_cell_size(radio.gaf_cell_size)
        assert not radio.supports_cell_size(radio.gaf_cell_size * 1.01)

    def test_gaf_range_reaches_neighbouring_cells(self):
        """R = sqrt(5)*r reaches any point of a 4-neighbouring cell (the GAF claim)."""
        r = 4.4721
        radio = UnitDiskRadio(math.sqrt(5) * r)
        # Worst case: opposite corners of two cells sharing an edge span
        # sqrt((2r)^2 + r^2) = sqrt(5) r.
        assert radio.in_range(Point(0, 0), Point(2 * r, r))


class TestNeighbourhoods:
    def test_neighbours_exclude_self_disabled_and_distant_nodes(self):
        radio = UnitDiskRadio(2.0)
        nodes = nodes_at((0, 0), (1, 0), (1.5, 0), (10, 10), disabled=[2])
        adjacency = radio.adjacency(nodes)
        assert adjacency[0] == [1]
        assert 2 not in adjacency
        assert adjacency[3] == []

    def test_adjacency_is_symmetric(self):
        radio = UnitDiskRadio(3.0)
        nodes = nodes_at(*[(float(i), 0.0) for i in range(5)])
        adjacency = radio.adjacency(nodes)
        for node_id, neighbours in adjacency.items():
            for other in neighbours:
                assert node_id in adjacency[other]

    def test_adjacency_empty_input(self):
        assert UnitDiskRadio(1.0).adjacency([]) == {}

    def test_adjacency_ignores_disabled(self):
        radio = UnitDiskRadio(2.0)
        nodes = nodes_at((0, 0), (1, 0), disabled=[1])
        adjacency = radio.adjacency(nodes)
        assert adjacency == {0: []}

    def test_link_pairs_unique_and_sorted(self):
        radio = UnitDiskRadio(1.5)
        nodes = nodes_at((0, 0), (1, 0), (2, 0))
        pairs = radio.link_pairs(nodes)
        assert (0, 1) in pairs and (1, 2) in pairs
        assert (0, 2) not in pairs
        assert all(a < b for a, b in pairs)
        assert len(pairs) == len(set(pairs))

    def test_chain_topology_link_count(self):
        radio = UnitDiskRadio(1.0)
        nodes = nodes_at(*[(float(i), 0.0) for i in range(10)])
        assert len(radio.link_pairs(nodes)) == 9
