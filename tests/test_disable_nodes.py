"""The bulk-disable contract: ``WsnState.disable_nodes`` equals a per-node loop.

``disable_nodes(victims)`` writes the state columns once, filters only the
touched cells' member lists, and holds one election per cell whose head was
hit.  For every stateless head policy that must leave the state exactly as a
loop of one-element ``disable_node`` calls over the same victims would, and
as the per-node algorithm it replaced (``_reference_disable``, kept here as
the reference): byte-identical snapshots, the same heads, members,
occupancy, vacancy and totals, and indices that pass ``check_invariants``.
A stateful policy is consulted once per hit cell, which the last test pins.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.grid.head_election import (
    highest_energy_policy,
    lowest_id_policy,
    nearest_to_center_policy,
)
from repro.grid.virtual_grid import VirtualGrid
from repro.network.deployment import deploy_uniform
from repro.network.node import STATE_CODES, NodeState
from repro.network.node_arrays import UNASSIGNED_CODE, NodeArrays
from repro.network.state import WsnState

from helpers import install_batteries

POLICIES = {
    "lowest_id": lowest_id_policy,
    "highest_energy": highest_energy_policy,
    "nearest_to_center": nearest_to_center_policy,
}
#: (columns, rows) of the property grids, from a single cell to a wide strip.
SHAPES = ((1, 1), (3, 5), (4, 4), (8, 2))
REASONS = tuple(state for state in NodeState if state is not NodeState.ENABLED)
SEEDS = range(8)


def _state(shape, policy, seed, irregular_ids=False) -> WsnState:
    """A uniformly deployed state with jittered batteries (so energy policies differ)."""
    rng = random.Random(seed)
    grid = VirtualGrid(*shape, cell_size=1.0)
    count = rng.randint(0, 6 * grid.cell_count)
    nodes = deploy_uniform(grid, count, rng)
    if irregular_ids:
        # Non-consecutive ids in shuffled order exercise the id -> row dict.
        # Shuffling a row permutation draws what shuffling the rows would.
        order = list(range(count))
        rng.shuffle(order)
        nodes = NodeArrays.from_positions(
            7 * np.arange(count) + 3, nodes.positions[order, 0], nodes.positions[order, 1]
        )
    install_batteries(nodes, [rng.uniform(1.0, 2.0) for _ in range(count)])
    return WsnState(grid, nodes, head_policy=policy)


def _reference_disable(state: WsnState, node_id: int, reason=NodeState.FAILED) -> None:
    """The per-node algorithm: flip one node, re-elect its cell if it was head."""
    if not state.is_node_enabled(node_id):
        return
    arrays = state.arrays
    row = arrays.row_of(node_id)
    flat = int(arrays.cell[row])
    arrays.state[row] = STATE_CODES[reason]
    arrays.role[row] = UNASSIGNED_CODE
    state._cell_members[flat].remove(node_id)
    state._occupancy[flat] -= 1
    state._enabled_total -= 1
    if state._occupancy[flat]:
        state._spare_total -= 1
    else:
        state._vacant.add(flat)
    if state._heads[flat] == node_id:
        state._heads[flat] = None
        state._elect_cell_head(flat)


def _victims(state: WsnState, rng: random.Random) -> list:
    """A random victim list with repeats and already-disabled ids mixed in."""
    ids = state.arrays.node_ids.tolist()
    if not ids:
        return []
    victims = rng.sample(ids, rng.randint(0, len(ids)))
    victims += rng.sample(victims, len(victims) // 4)  # repeats
    rng.shuffle(victims)
    return victims


def _assert_same(bulk: WsnState, looped: WsnState) -> None:
    assert bulk.to_bytes() == looped.to_bytes()
    assert bulk.heads() == looped.heads()
    for flat in range(bulk.grid.cell_count):
        assert bulk._cell_members[flat] == looped._cell_members[flat]
    assert bulk.occupancy() == looped.occupancy()
    assert bulk.vacant_cells() == looped.vacant_cells()
    assert bulk.hole_count == looped.hole_count
    assert bulk.spare_count == looped.spare_count
    assert bulk.enabled_count == looped.enabled_count
    bulk.check_invariants()
    looped.check_invariants()


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_equals_per_node_loop(policy, shape, seed):
    bulk = _state(shape, POLICIES[policy], seed)
    rng = random.Random(1000 + seed)
    # Some nodes are already down before the bulk call.
    bulk.disable_nodes(_victims(bulk, rng)[:3], NodeState.MISBEHAVING)
    looped = bulk.clone()
    reference = bulk.clone()
    victims = _victims(bulk, rng)
    reason = REASONS[seed % len(REASONS)]

    bulk.disable_nodes(victims, reason)
    for node_id in victims:
        looped.disable_node(node_id, reason)
        _reference_disable(reference, node_id, reason)

    _assert_same(bulk, looped)
    _assert_same(bulk, reference)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_equals_loop_with_irregular_ids(policy, seed):
    bulk = _state((4, 3), POLICIES[policy], seed, irregular_ids=True)
    reference = bulk.clone()
    victims = _victims(bulk, random.Random(seed))
    bulk.disable_nodes(victims)
    for node_id in victims:
        _reference_disable(reference, node_id)
    _assert_same(bulk, reference)


@pytest.mark.parametrize("reason", REASONS, ids=lambda reason: reason.value)
def test_every_disabled_reason_is_written(reason):
    state = _state((4, 4), lowest_id_policy, seed=3)
    victims = state.enabled_node_ids()[::2]
    state.disable_nodes(victims, reason)
    assert all(state.node(node_id).state is reason for node_id in victims)
    state.check_invariants()


def test_empty_and_already_disabled_calls_change_nothing():
    state = _state((4, 4), lowest_id_policy, seed=5)
    down = state.enabled_node_ids()[:4]
    state.disable_nodes(down, NodeState.MISBEHAVING)
    before = state.to_bytes()
    state.disable_nodes([])
    state.disable_nodes(np.empty(0, dtype=np.int64))
    state.disable_nodes(down, NodeState.FAILED)  # the first reason stays
    assert state.to_bytes() == before
    assert all(state.node(node_id).state is NodeState.MISBEHAVING for node_id in down)


def test_accepts_any_iterable_of_ids():
    by_list = _state((3, 3), lowest_id_policy, seed=2)
    victims = by_list.enabled_node_ids()[1::3]
    by_array = by_list.clone()
    by_generator = by_list.clone()
    by_list.disable_nodes(victims)
    by_array.disable_nodes(np.asarray(victims))
    by_generator.disable_nodes(node_id for node_id in victims)
    assert by_list.to_bytes() == by_array.to_bytes() == by_generator.to_bytes()


def test_unknown_id_raises_before_anything_changes():
    state = _state((3, 3), lowest_id_policy, seed=4)
    before = state.to_bytes()
    known = state.enabled_node_ids()[:2]
    for unknown in (-1, state.node_count, 10**9):
        with pytest.raises(KeyError):
            state.disable_nodes(known + [unknown])
    assert state.to_bytes() == before
    state.check_invariants()


def test_enabled_reason_is_rejected():
    state = _state((3, 3), lowest_id_policy, seed=4)
    with pytest.raises(ValueError):
        state.disable_nodes(state.enabled_node_ids()[:1], NodeState.ENABLED)


def test_stateful_policy_sees_one_election_per_hit_cell():
    """A policy that keeps state (here, its calls) is consulted once per hit cell
    that keeps a member, in row-major order."""
    centers = []

    def counted(candidates, cell_center: Point):
        centers.append(cell_center)
        return lowest_id_policy(candidates, cell_center)

    grid = VirtualGrid(4, 4, cell_size=1.0)
    state = WsnState(grid, deploy_uniform(grid, 80, random.Random(11)), head_policy=counted)
    looped = state.clone()
    # Every head falls, and so does the next-lowest member of each cell, so a
    # one-at-a-time loop would re-elect some cells more than once.
    victims = []
    for flat in range(grid.cell_count):
        victims += state._cell_members[flat][:2]
    keeping = [
        coord
        for flat, coord in enumerate(grid.all_coords())
        if state.heads()[coord] in victims
        and len(state._cell_members[flat]) > 2
    ]
    centers.clear()
    state.disable_nodes(victims)
    assert centers == [grid.cell_center(coord) for coord in keeping]
    state.check_invariants()

    centers.clear()
    for node_id in victims:
        _reference_disable(looped, node_id)
    assert len(centers) > len(keeping)
