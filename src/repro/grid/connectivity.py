"""Connectivity evaluation of the head overlay and of the whole network.

The GAF argument the paper builds on: with ``R = sqrt(5) * r``, a head can
talk to any node in the four neighbouring cells, so if *every* cell has a
head the head overlay is connected and relays traffic for the whole network.
These helpers let tests and examples verify the connectivity claim before
and after hole recovery.

:func:`is_head_network_connected`, :func:`is_node_network_connected` and
:func:`connected_component_count` run a union-find over the radio links of
:func:`~repro.network.adjacency.build_edges`, in numpy.
:func:`node_connectivity_graph` and :func:`head_connectivity_graph` build the
same graphs as ``networkx.Graph`` objects; networkx is an optional
dependency, imported only when one of them is called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.network.adjacency import build_edges
from repro.network.radio import UnitDiskRadio

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


def node_connectivity_graph(state, radio: Optional[UnitDiskRadio] = None) -> "nx.Graph":
    """Unit-disk communication graph over all enabled nodes.

    When ``radio`` is omitted, the minimum GAF-compatible range
    ``R = sqrt(5) * r`` for the state's grid is used.
    """
    import networkx as nx

    if radio is None:
        radio = UnitDiskRadio(state.grid.required_communication_range)
    graph = nx.Graph()
    enabled = state.enabled_nodes()
    graph.add_nodes_from(node.node_id for node in enabled)
    graph.add_edges_from(radio.link_pairs(enabled))
    return graph


def head_connectivity_graph(state, radio: Optional[UnitDiskRadio] = None) -> "nx.Graph":
    """Unit-disk communication graph restricted to the current grid heads."""
    import networkx as nx

    if radio is None:
        radio = UnitDiskRadio(state.grid.required_communication_range)
    heads = state.head_nodes()
    graph = nx.Graph()
    graph.add_nodes_from(node.node_id for node in heads)
    graph.add_edges_from(radio.link_pairs(heads))
    return graph


def _component_count(positions: np.ndarray, communication_range: float) -> int:
    """Connected components of the unit-disk graph over ``positions`` (one row per node).

    Union-find over the edge list: every round hooks the root of each link's
    endpoints onto the lower of the two roots, then compresses every node's
    pointer to its root, until no link joins two roots.
    """
    count = len(positions)
    left, right = build_edges(positions[:, 0], positions[:, 1], communication_range)
    roots = np.arange(count)
    while True:
        low = np.minimum(roots[left], roots[right])
        hooked = roots.copy()
        np.minimum.at(hooked, roots[left], low)
        np.minimum.at(hooked, roots[right], low)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, roots):
            return int(np.count_nonzero(roots == np.arange(count)))
        roots = hooked


def _radio_range(state, radio: Optional[UnitDiskRadio]) -> float:
    if radio is None:
        return state.grid.required_communication_range
    return radio.communication_range


def _head_positions(state) -> np.ndarray:
    heads = np.array([h for h in state.cell_heads if h is not None], dtype=np.int64)
    return state.arrays.positions[state.arrays.rows_of(heads)]


def _enabled_positions(state) -> np.ndarray:
    return state.arrays.positions[state.arrays.enabled_mask()]


def is_head_network_connected(state, radio: Optional[UnitDiskRadio] = None) -> bool:
    """Whether the head overlay forms a single connected component.

    An overlay with no heads at all (fully failed network) is reported as not
    connected; a single head is trivially connected.
    """
    return _component_count(_head_positions(state), _radio_range(state, radio)) == 1


def is_node_network_connected(state, radio: Optional[UnitDiskRadio] = None) -> bool:
    """Whether all enabled nodes form a single connected component."""
    return connected_component_count(state, radio) == 1


def connected_component_count(state, radio: Optional[UnitDiskRadio] = None) -> int:
    """Number of connected components among enabled nodes."""
    return _component_count(_enabled_positions(state), _radio_range(state, radio))
