"""Shared helper functions for the test suite."""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.protocol import MobilityController, RoundOutcome
from repro.grid.virtual_grid import GridCoord
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState
from repro.sim.engine import RoundBasedEngine


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


def step_round(
    controller: MobilityController,
    state: WsnState,
    rng: random.Random,
    round_index: int,
) -> RoundOutcome:
    """Run one round of ``controller`` on ``state`` the way the engine does.

    On first use the controller gets the engine's default perfect channel,
    bound by constructing a :class:`RoundBasedEngine` (so message debits go
    through the same hook as in a real run).  Each call then delivers the
    round's inbox through ``handle_messages`` and calls ``execute_round``.
    """
    if controller.channel is None:
        RoundBasedEngine(state, controller, rng)
    inbox = controller.channel.deliver(round_index)
    if inbox:
        controller.handle_messages(state, inbox, round_index)
    return controller.execute_round(state, rng, round_index)
