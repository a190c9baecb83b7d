"""Unit tests for the grid-head election policies."""

from repro.grid.geometry import Point
from repro.grid.head_election import (
    elect_head,
    highest_energy_policy,
    lowest_id_policy,
    nearest_to_center_policy,
)
from repro.grid.virtual_grid import VirtualGrid
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState

from helpers import install_batteries


def node(node_id, x=0.0, y=0.0, energy=100.0):
    """One node of a :func:`cell`: ``(node_id, x, y, energy)``."""
    return node_id, x, y, energy


def cell(*nodes):
    """A one-cell state holding ``nodes``, and their handles in the given order."""
    ids, xs, ys, energies = zip(*nodes)
    population = install_batteries(NodeArrays.from_positions(ids, xs, ys), energies)
    state = WsnState(VirtualGrid(1, 1, cell_size=1.0), population)
    return state, [state.node(node_id) for node_id in ids]


def handles(*nodes):
    """The handles of a :func:`cell` holding ``nodes``."""
    return cell(*nodes)[1]


CENTER = Point(0.5, 0.5)


class TestPolicies:
    def test_lowest_id(self):
        candidates = handles(node(5), node(2), node(9))
        assert lowest_id_policy(candidates, CENTER).node_id == 2

    def test_highest_energy(self):
        candidates = handles(node(1, energy=10), node(2, energy=80), node(3, energy=80))
        # Ties broken by the smaller id.
        assert highest_energy_policy(candidates, CENTER).node_id == 2

    def test_nearest_to_center(self):
        candidates = handles(node(1, 0.0, 0.0), node(2, 0.4, 0.5), node(3, 0.9, 0.9))
        assert nearest_to_center_policy(candidates, CENTER).node_id == 2

    def test_nearest_to_center_tie_breaks_by_id(self):
        candidates = handles(node(7, 0.4, 0.5), node(3, 0.6, 0.5))
        assert nearest_to_center_policy(candidates, CENTER).node_id == 3


class TestElectHead:
    def test_empty_cell_returns_none(self):
        assert elect_head([], CENTER) is None

    def test_ignores_disabled_candidates(self):
        state, (a, b) = cell(node(1), node(2))
        state.disable_node(1)
        assert elect_head([a, b], CENTER).node_id == 2

    def test_all_disabled_returns_none(self):
        state, (a,) = cell(node(1))
        state.disable_node(1)
        assert elect_head([a], CENTER) is None

    def test_default_policy_is_lowest_id(self):
        assert elect_head(handles(node(9), node(4)), CENTER).node_id == 4

    def test_custom_policy_is_used(self):
        candidates = handles(node(1, energy=5), node(2, energy=50))
        head = elect_head(candidates, CENTER, policy=highest_energy_policy)
        assert head.node_id == 2
