"""Unit tests for the connectivity evaluation (GAF overlay argument)."""

import random

import networkx as nx
import pytest

from repro.grid.connectivity import (
    connected_component_count,
    head_connectivity_graph,
    is_head_network_connected,
    is_node_network_connected,
    node_connectivity_graph,
)
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_uniform
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState

from helpers import make_hole


class TestHeadOverlay:
    def test_full_coverage_implies_connected_heads(self, dense_state):
        """The GAF claim: one head per cell with R = sqrt(5)*r keeps heads connected."""
        assert is_head_network_connected(dense_state)
        graph = head_connectivity_graph(dense_state)
        assert graph.number_of_nodes() == dense_state.grid.cell_count

    def test_full_coverage_implies_connected_network(self, dense_state):
        assert is_node_network_connected(dense_state)
        assert connected_component_count(dense_state) == 1

    def test_wide_hole_band_disconnects_heads(self, sparse_state):
        """Emptying two full adjacent columns splits the head overlay in two."""
        for y in range(sparse_state.grid.rows):
            make_hole(sparse_state, GridCoord(1, y))
            make_hole(sparse_state, GridCoord(2, y))
        assert not is_head_network_connected(sparse_state)
        assert connected_component_count(sparse_state) >= 2

    def test_empty_network_not_connected(self, sparse_state):
        for coord in list(sparse_state.grid.all_coords()):
            make_hole(sparse_state, coord)
        assert not is_head_network_connected(sparse_state)
        assert connected_component_count(sparse_state) == 0

    def test_custom_radio(self, dense_state):
        tiny = UnitDiskRadio(0.1)
        graph = head_connectivity_graph(dense_state, radio=tiny)
        assert graph.number_of_edges() == 0
        assert not is_head_network_connected(dense_state, radio=tiny)


class TestGraphs:
    def test_node_graph_includes_all_enabled(self, dense_state):
        graph = node_connectivity_graph(dense_state)
        assert graph.number_of_nodes() == dense_state.enabled_count

    def test_node_graph_excludes_disabled(self, dense_state):
        victim = dense_state.members_of(GridCoord(0, 0))[0]
        dense_state.disable_node(victim.node_id)
        graph = node_connectivity_graph(dense_state)
        assert victim.node_id not in graph

    def test_graphs_are_networkx_objects(self, dense_state):
        assert isinstance(node_connectivity_graph(dense_state), nx.Graph)
        assert isinstance(head_connectivity_graph(dense_state), nx.Graph)


def _random_state(seed: int):
    """A seeded state: empty, one node, all disabled, or random disables and moves."""
    rng = random.Random(seed)
    grid = VirtualGrid(rng.randint(1, 6), rng.randint(1, 6), cell_size=rng.choice([1.0, 4.4721]))
    count = {0: 0, 1: 1}.get(seed, rng.randint(2, 60))
    state = WsnState(grid, deploy_uniform(grid, count, rng))
    ids = state.enabled_node_ids()
    if seed == 2:
        state.disable_nodes(ids)
    elif ids:
        state.disable_nodes(rng.sample(ids, rng.randint(0, len(ids))))
        enabled = state.enabled_node_ids()
        for node_id in rng.sample(enabled, min(len(enabled), rng.randint(0, 8))):
            target = rng.choice(list(grid.all_coords()))
            state.move_node(node_id, target, rng, enforce_adjacent=False)
    return state, rng


@pytest.mark.parametrize("seed", range(60))
def test_union_find_answers_equal_networkx(seed):
    state, rng = _random_state(seed)
    for radio in (None, UnitDiskRadio(rng.uniform(0.05, 0.5)), UnitDiskRadio(rng.uniform(1.0, 12.0))):
        heads = head_connectivity_graph(state, radio)
        nodes = node_connectivity_graph(state, radio)
        assert is_head_network_connected(state, radio) == (
            heads.number_of_nodes() > 0 and nx.is_connected(heads)
        )
        assert is_node_network_connected(state, radio) == (
            nodes.number_of_nodes() > 0 and nx.is_connected(nodes)
        )
        assert connected_component_count(state, radio) == nx.number_connected_components(nodes)
