"""Shared helper functions for the test suite."""

from __future__ import annotations

from typing import Sequence

from repro.grid.virtual_grid import GridCoord
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState


def install_batteries(nodes: NodeArrays, capacities: Sequence[float]) -> NodeArrays:
    """Give each node, in row order, a fresh battery of the listed capacity (joules).

    For a population no ``WsnState`` has taken yet: a state's own nodes get
    batteries through ``state.node(i).reset_energy``.
    """
    nodes.energy[:] = capacities
    nodes.initial_energy[:] = capacities
    return nodes


def make_hole(state: WsnState, coord: GridCoord) -> None:
    """Disable every enabled node currently inside ``coord``, creating a hole."""
    for node in list(state.members_of(coord)):
        state.disable_node(node.node_id)
    assert state.is_vacant(coord)
