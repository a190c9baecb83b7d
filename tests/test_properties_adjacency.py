"""Property tests for the vectorized adjacency layer.

:func:`build_edges` is compared against an O(N^2) brute-force scan using the
exact historical in-range predicate, over randomized deployments, and the
dict-of-lists view :func:`adjacency_lists` against its contract and the
radio's object path.  Long seeded random move/disable/enable histories then
hold the state to ``check_invariants()`` after every mutation, and the batch
adjacency of the mutated state to the brute-force scan and the object path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.adjacency import RANGE_SLACK_SQ, adjacency_lists, build_edges
from repro.network.deployment import deploy_uniform
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState

#: Seeded random deployments checked against the brute-force oracle.
EDGE_SEQUENCE_COUNT = 40
#: Seeded mutation histories driven through the state.
MUTATION_SEQUENCE_COUNT = 60
#: Mutations per history.
OPERATIONS_PER_SEQUENCE = 25

COMMUNICATION_RANGE = 3.0


def brute_force_edges(xs, ys, communication_range):
    """All in-range unordered pairs by direct O(N^2) comparison."""
    limit_sq = communication_range * communication_range + RANGE_SLACK_SQ
    pairs = set()
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            dx = xs[a] - xs[b]
            dy = ys[a] - ys[b]
            if dx * dx + dy * dy <= limit_sq:
                pairs.add((a, b))
    return pairs


@pytest.mark.parametrize("seed", range(EDGE_SEQUENCE_COUNT))
def test_build_edges_matches_brute_force(seed):
    """The bucketed vectorized edge list equals the O(N^2) ground truth."""
    rng = random.Random(seed)
    count = rng.randint(0, 60)
    side = rng.uniform(4.0, 20.0)
    xs = np.array([rng.uniform(0.0, side) for _ in range(count)])
    ys = np.array([rng.uniform(0.0, side) for _ in range(count)])
    left, right = build_edges(xs, ys, COMMUNICATION_RANGE)
    produced = {tuple(sorted(pair)) for pair in zip(left.tolist(), right.tolist())}
    assert len(produced) == len(left), "duplicate edges produced"
    assert produced == brute_force_edges(xs, ys, COMMUNICATION_RANGE)


def test_build_edges_chunking_is_transparent():
    """Tiny chunk sizes produce the same edge set as one big batch."""
    rng = random.Random(7)
    xs = np.array([rng.uniform(0.0, 12.0) for _ in range(80)])
    ys = np.array([rng.uniform(0.0, 12.0) for _ in range(80)])
    left_a, right_a = build_edges(xs, ys, COMMUNICATION_RANGE)
    left_b, right_b = build_edges(xs, ys, COMMUNICATION_RANGE, chunk_pairs=16)
    as_set = lambda L, R: {tuple(sorted(p)) for p in zip(L.tolist(), R.tolist())}  # noqa: E731
    assert as_set(left_a, right_a) == as_set(left_b, right_b)


def test_adjacency_lists_covers_every_id_sorted():
    """Every input id gets an entry and neighbour lists are sorted by id."""
    ids = np.array([30, 10, 20], dtype=np.int64)
    # positions: rows 0-1 linked, row 2 isolated
    left = np.array([0], dtype=np.int64)
    right = np.array([1], dtype=np.int64)
    lists = adjacency_lists(ids, left, right)
    assert lists == {30: [10], 10: [30], 20: []}


def test_adjacency_lists_matches_radio_object_path():
    """The array path and the object path produce identical dicts."""
    rng = random.Random(11)
    grid = VirtualGrid(columns=4, rows=4, cell_size=1.5)
    nodes = deploy_uniform(grid, 40, rng)
    state = WsnState(grid, nodes)
    radio = UnitDiskRadio(communication_range=COMMUNICATION_RANGE)
    assert radio.adjacency_of_state(state) == radio.adjacency(state.enabled_nodes())


# ------------------------------------------------------------ mutated states
def _random_state(rng: random.Random) -> WsnState:
    grid = VirtualGrid(columns=4, rows=4, cell_size=1.0)
    arrays = deploy_uniform(grid, rng.randint(8, 30), rng)
    return WsnState(grid, arrays)


def _apply_random_operation(state: WsnState, rng: random.Random) -> None:
    """One random disable / enable / move, skipping impossible choices."""
    operation = rng.random()
    enabled = state.enabled_node_ids()
    if operation < 0.3:
        if enabled:
            state.disable_node(rng.choice(enabled))
    elif operation < 0.5:
        disabled = state.disabled_nodes()
        if disabled:
            state.enable_node(rng.choice(disabled).node_id)
    elif enabled:
        node_id = rng.choice(enabled)
        source = state.cell_of_node(node_id)
        if operation < 0.85:
            state.move_node(node_id, rng.choice(state.grid.neighbours(source)), rng)
        else:
            target = GridCoord(
                rng.randrange(state.grid.columns), rng.randrange(state.grid.rows)
            )
            state.move_node(node_id, target, rng, enforce_adjacent=False)


def brute_force_adjacency(state: WsnState, communication_range):
    """Adjacency by node id over the enabled node handles, by O(N^2) comparison."""
    nodes = state.enabled_nodes()
    ids = [node.node_id for node in nodes]
    xs = [node.position.x for node in nodes]
    ys = [node.position.y for node in nodes]
    adjacency = {node_id: [] for node_id in ids}
    for a, b in brute_force_edges(xs, ys, communication_range):
        adjacency[ids[a]].append(ids[b])
        adjacency[ids[b]].append(ids[a])
    return {node_id: sorted(neighbours) for node_id, neighbours in adjacency.items()}


@pytest.mark.parametrize("seed", range(MUTATION_SEQUENCE_COUNT))
def test_batch_adjacency_follows_every_mutation(seed):
    """After every mutation the state passes its oracle and its adjacency is exact."""
    rng = random.Random(seed)
    state = _random_state(rng)
    radio = UnitDiskRadio(communication_range=COMMUNICATION_RANGE)
    assert radio.adjacency_of_state(state) == brute_force_adjacency(
        state, COMMUNICATION_RANGE
    )
    for _ in range(OPERATIONS_PER_SEQUENCE):
        _apply_random_operation(state, rng)
        state.check_invariants()
        assert radio.adjacency_of_state(state) == brute_force_adjacency(
            state, COMMUNICATION_RANGE
        )


@pytest.mark.parametrize("seed", range(0, MUTATION_SEQUENCE_COUNT, 6))
def test_mutated_state_adjacency_matches_the_object_path(seed):
    """Array path, object path and ``link_pairs`` agree once nodes moved and failed."""
    rng = random.Random(seed)
    state = _random_state(rng)
    radio = UnitDiskRadio(communication_range=COMMUNICATION_RANGE)
    for _ in range(12):
        _apply_random_operation(state, rng)
    # All handles, disabled ones too: the object path must drop them itself.
    expected = radio.adjacency(list(state.nodes()))
    assert radio.adjacency_of_state(state) == expected
    assert sorted(expected) == sorted(state.enabled_node_ids())
    for node_id, neighbours in expected.items():
        assert neighbours == sorted(set(neighbours))
        assert all(node_id in expected[other] for other in neighbours)
    pairs = radio.link_pairs(list(state.nodes()))
    assert len(pairs) == sum(len(n) for n in expected.values()) // 2
