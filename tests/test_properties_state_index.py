"""Property tests for the incremental state indices of :class:`WsnState`.

The state keeps live indices (per-cell sorted membership, occupancy
counters, the vacant-cell set, running spare/enabled totals, and the role
column of the enabled nodes) that are updated by the mutation paths —
``disable_nodes`` (and its one-element form ``disable_node``),
``enable_node``, ``move_node``, and ``rotate_head``.  These tests drive long
seeded sequences of random mutations and assert, via ``check_invariants``
(the contract's oracle, which rebuilds every index from scratch) and an
explicit rebuilt ``WsnState``, that the incremental indices never drift from
the ground truth.
"""

from __future__ import annotations

import random

import pytest

from repro.grid.head_election import highest_energy_policy, lowest_id_policy
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_uniform
from repro.network.state import WsnState

from helpers import install_batteries

#: Number of seeded mutation sequences (acceptance: 200+).
SEQUENCE_COUNT = 220
#: Mutations per sequence.
OPERATIONS_PER_SEQUENCE = 30


def _random_state(rng: random.Random, head_policy=None) -> WsnState:
    grid = VirtualGrid(columns=4, rows=4, cell_size=1.0)
    nodes = deploy_uniform(grid, rng.randint(10, 36), rng)
    if head_policy is highest_energy_policy:
        install_batteries(nodes, [rng.uniform(1.0, 100.0) for _ in range(len(nodes))])
    return WsnState(grid, nodes, head_policy=head_policy)


def _apply_random_operation(state: WsnState, rng: random.Random) -> None:
    """One random disable / bulk disable / enable / move, skipping impossible choices."""
    operation = rng.random()
    enabled = state.enabled_nodes()
    if operation < 0.25:
        if enabled:
            state.disable_node(rng.choice(enabled).node_id)
    elif operation < 0.35:
        # Any ids, enabled or not, with a repeat: the bulk path skips the
        # already-disabled ones and the duplicate.
        ids = state.arrays.node_ids.tolist()
        victims = rng.sample(ids, rng.randint(1, min(len(ids), 8)))
        state.disable_nodes(victims + victims[:1])
    elif operation < 0.55:
        disabled = state.disabled_nodes()
        if disabled:
            state.enable_node(rng.choice(disabled).node_id)
    elif enabled:
        node = rng.choice(enabled)
        source = state.cell_of_node(node.node_id)
        if operation < 0.9:
            neighbours = state.grid.neighbours(source)
            state.move_node(node.node_id, rng.choice(neighbours), rng)
        else:
            target = GridCoord(
                rng.randrange(state.grid.columns), rng.randrange(state.grid.rows)
            )
            state.move_node(node.node_id, target, rng, enforce_adjacent=False)


@pytest.mark.parametrize("policy", [lowest_id_policy, highest_energy_policy])
@pytest.mark.parametrize("seed", range(0, SEQUENCE_COUNT, 5))
def test_roles_follow_heads_under_every_mutation(seed, policy):
    """Move, disable, enable and rotate each leave the role column consistent.

    ``check_invariants`` holds the role rule: an enabled node is HEAD when it
    heads its cell and SPARE otherwise.  Moves write roles by row, so the
    rule is checked after every single operation, under the default policy
    and under one that elects through node handles.
    """
    rng = random.Random(seed)
    state = _random_state(rng, head_policy=policy)
    state.check_invariants()
    for _ in range(OPERATIONS_PER_SEQUENCE):
        if rng.random() < 0.2:
            state.rotate_head(
                GridCoord(rng.randrange(state.grid.columns), rng.randrange(state.grid.rows))
            )
        else:
            _apply_random_operation(state, rng)
        state.check_invariants()


@pytest.mark.parametrize("seed", range(SEQUENCE_COUNT))
def test_incremental_indices_match_rebuild(seed):
    """After every mutation the live indices equal a from-scratch rebuild."""
    rng = random.Random(seed)
    state = _random_state(rng)
    state.check_invariants()
    for _ in range(OPERATIONS_PER_SEQUENCE):
        _apply_random_operation(state, rng)
        state.check_invariants()

    # Cross-check against an independently constructed WsnState built from
    # a copy of the nodes' columns: every derived statistic must agree.
    rebuilt = WsnState(state.grid, state.arrays.copy())
    assert rebuilt.occupancy() == state.occupancy()
    assert rebuilt.spare_counts() == state.spare_counts()
    assert rebuilt.vacant_cells() == state.vacant_cells()
    assert rebuilt.vacant_cell_set() == state.vacant_cell_set()
    assert rebuilt.hole_count == state.hole_count
    assert rebuilt.spare_count == state.spare_count
    assert rebuilt.enabled_count == state.enabled_count
    for coord in state.grid.all_coords():
        assert [n.node_id for n in rebuilt.members_of(coord)] == [
            n.node_id for n in state.members_of(coord)
        ]


@pytest.mark.parametrize("seed", range(0, SEQUENCE_COUNT, 10))
def test_clone_preserves_indices_and_stays_independent(seed):
    """Structural clones share no mutable state with the original."""
    rng = random.Random(seed)
    state = _random_state(rng)
    for _ in range(10):
        _apply_random_operation(state, rng)
    twin = state.clone()
    twin.check_invariants()
    assert twin.occupancy() == state.occupancy()
    assert twin.heads() == state.heads()

    before = state.occupancy()
    for _ in range(10):
        _apply_random_operation(twin, rng)
        twin.check_invariants()
    assert state.occupancy() == before
    state.check_invariants()


def test_corrupted_occupancy_counter_is_detected():
    rng = random.Random(99)
    state = _random_state(rng)
    coord = next(iter(state.grid.all_coords()))
    state._occupancy[state.grid.flat_index(coord)] += 1
    with pytest.raises(AssertionError):
        state.check_invariants()


def test_corrupted_vacant_set_is_detected():
    rng = random.Random(99)
    state = _random_state(rng)
    occupied = [c for c in state.grid.all_coords() if not state.is_vacant(c)]
    state._vacant.add(state.grid.flat_index(occupied[0]))
    with pytest.raises(AssertionError):
        state.check_invariants()


def test_corrupted_spare_total_is_detected():
    rng = random.Random(99)
    state = _random_state(rng)
    state._spare_total += 1
    with pytest.raises(AssertionError):
        state.check_invariants()
