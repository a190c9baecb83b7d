"""The round loop's plain-value hot path keeps every record and every check.

* ``WsnState.enabled_rows()`` — the energy sweep's index — lists the
  enabled rows in ascending order, read-only, after any sequence of
  disables, enables, moves, clones, failure models and energy rounds; moves
  keep it, ``disable_nodes`` and ``enable_node`` drop it, a depleting energy
  round replaces it with the surviving rows, ``clone`` shares it;
* ``EnergyModel.apply_round`` asks the state to disable nodes only in a
  round where some depleted, disables by row (handing over the surviving
  rows) exactly what ``disable_nodes`` disables by id, and returns how many
  nodes it disabled;
* ``select_spare_at``'s single pass picks what the closure-and-``tolist``
  implementation it replaced picks (kept here as the reference), over
  seeded states full of distance and energy ties, and refuses a selection
  it does not know or ``"random"`` without an rng;
* ``move_node`` refuses a given target position outside the target cell
  before anything is written;
* SR leaves the vacancy of a failed process alone, and the run's records
  stay what they were.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hamilton import build_hamilton_cycle
from repro.core.replacement import HamiltonReplacementController
from repro.grid.geometry import BoundingBox, Point
from repro.grid.head_election import highest_energy_policy, lowest_id_policy
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_per_cell, deploy_uniform
from repro.network.energy import EnergyModel
from repro.network.failures import (
    BatteryDepletionFailure,
    RandomFailure,
    RegionJammingFailure,
    ThinningToEnabledCount,
)
from repro.network.node import NodeState
from repro.network.node_arrays import ENABLED_CODE, NodeArrays
from repro.network.state import WsnState

from helpers import install_batteries, make_hole, step_round


def assert_enabled_rows_hold(state: WsnState) -> None:
    rows = state.enabled_rows()
    assert not rows.flags.writeable
    np.testing.assert_array_equal(rows, np.flatnonzero(state.arrays.state == ENABLED_CODE))
    state.check_invariants()


# --------------------------------------------------------- enabled-row index
OPERATIONS = (
    "disable",
    "disable_many",
    "enable",
    "move",
    "relocate",
    "clone",
    "random_failure",
    "thinning",
    "jamming",
    "depletion",
    "energy_round",
)


def _movable(state: WsnState, rng: random.Random):
    """An enabled node with battery left and a neighbouring target cell, or ``None``."""
    candidates = [
        node_id for node_id in state.enabled_node_ids() if state.energy_of(node_id) > 0.0
    ]
    if not candidates:
        return None
    node_id = rng.choice(candidates)
    source = state.arrays.cell.item(state.arrays.row_of(node_id))
    return node_id, rng.choice(state.grid.neighbour_table[source])


def _apply(operation: str, state: WsnState, states: list, rng: random.Random) -> None:
    all_ids = state.arrays.node_ids.tolist()
    if operation == "disable":
        state.disable_node(rng.choice(all_ids))
    elif operation == "disable_many":
        state.disable_nodes([rng.choice(all_ids) for _ in range(rng.randint(0, 6))])
    elif operation == "enable":
        state.enable_node(rng.choice(all_ids))
    elif operation in ("move", "relocate"):
        move = _movable(state, rng)
        if move is None:
            return
        node_id, target = move
        if operation == "move":
            state.move_node(node_id, state.grid.coord_at(target), rng)
        else:
            state.relocate(node_id, target, rng)
    elif operation == "clone":
        states.append(state.clone())
    elif operation == "random_failure":
        RandomFailure(count=rng.randint(0, 4)).apply(state, rng)
    elif operation == "thinning":
        target = max(0, state.enabled_count - rng.randint(0, 5))
        ThinningToEnabledCount(target_enabled=target).apply(state, rng)
    elif operation == "jamming":
        x, y = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        RegionJammingFailure(box=BoundingBox(x, y, x + 1.0, y + 1.0)).apply(state, rng)
    elif operation == "depletion":
        BatteryDepletionFailure(threshold=rng.uniform(0.0, 1.0)).apply(state, rng)
    else:
        EnergyModel(idle_cost_per_round=rng.uniform(0.0, 1.5)).apply_round(state)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.lists(
        st.tuples(st.sampled_from(OPERATIONS), st.integers(min_value=0, max_value=2**32 - 1)),
        min_size=1,
        max_size=25,
    ),
)
def test_enabled_rows_list_the_enabled_rows_after_every_step(seed, steps):
    rng = random.Random(seed)
    grid = VirtualGrid(columns=4, rows=4, cell_size=1.0)
    nodes = deploy_uniform(grid, rng.randint(16, 48), rng)
    install_batteries(nodes, [rng.choice((0.0, rng.uniform(0.5, 6.0))) for _ in range(len(nodes))])
    states = [WsnState(grid, nodes)]
    for operation, step_seed in steps:
        step_rng = random.Random(step_seed)
        _apply(operation, step_rng.choice(states), states, step_rng)
        for state in states:
            assert_enabled_rows_hold(state)


def test_moves_keep_the_index_and_state_changes_drop_it(dense_state, rng):
    rows = dense_state.enabled_rows()
    assert dense_state.enabled_rows() is rows, "built once, then read"
    node_id, target = _movable(dense_state, rng)
    dense_state.relocate(node_id, target, rng)
    assert dense_state.enabled_rows() is rows, "a move leaves the enabled rows alone"
    twin = dense_state.clone()
    assert twin.enabled_rows() is rows, "a clone shares the read-only index"
    dense_state.disable_node(node_id)
    assert dense_state.enabled_rows() is not rows
    assert twin.enabled_rows() is rows, "the twin's index is its own"
    assert_enabled_rows_hold(dense_state)
    assert_enabled_rows_hold(twin)
    before = dense_state.enabled_rows()
    dense_state.enable_node(node_id)
    assert dense_state.enabled_rows() is not before
    assert_enabled_rows_hold(dense_state)
    with pytest.raises(ValueError):
        dense_state.enabled_rows()[0] = 1


def test_check_invariants_catches_a_stale_index(dense_state):
    stale = dense_state.enabled_rows()[1:]
    stale.flags.writeable = False
    dense_state._enabled_rows = stale
    with pytest.raises(AssertionError, match="enabled-row index"):
        dense_state.check_invariants()


# ---------------------------------------------------------------- energy
def test_apply_round_disables_only_in_a_round_where_a_node_depleted(dense_state):
    calls = []
    disable_rows = dense_state.disable_rows

    def counted(rows, reason, enabled_rows=None):
        calls.append(dense_state.arrays.node_ids[rows].tolist())
        return disable_rows(rows, reason, enabled_rows)

    dense_state.disable_rows = counted
    model = EnergyModel(idle_cost_per_round=0.5)

    def disabled_by_round():
        enabled_before = set(dense_state.enabled_node_ids())
        count = model.apply_round(dense_state)
        disabled = sorted(enabled_before - set(dense_state.enabled_node_ids()))
        assert count == len(disabled)
        return disabled

    assert disabled_by_round() == []
    assert calls == []
    drained = dense_state.enabled_node_ids()[3]
    dense_state.debit_energy(drained, dense_state.energy_of(drained) - 0.25)
    assert disabled_by_round() == [drained]
    assert calls == [[drained]]
    assert disabled_by_round() == []
    assert len(calls) == 1
    assert_enabled_rows_hold(dense_state)


def _members(state: WsnState):
    return [
        [node.node_id for node in state.members_of(coord)]
        for coord in state.grid.coord_list()
    ]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    per_cell=st.booleans(),
    policy=st.sampled_from((lowest_id_policy, highest_energy_policy)),
    idle_cost=st.sampled_from((0.0, 0.25)),
)
def test_apply_round_disables_by_row_what_disable_nodes_disables_by_id(
    seed, per_cell, policy, idle_cost
):
    rng = random.Random(seed)
    grid = VirtualGrid(columns=4, rows=4, cell_size=1.0)
    if per_cell:
        nodes = deploy_per_cell(grid, rng.randint(2, 4), rng)
    else:
        nodes = deploy_uniform(grid, rng.randint(16, 60), rng)
    install_batteries(nodes, [rng.uniform(0.2, 6.0) for _ in range(len(nodes))])
    state = WsnState(grid, nodes, head_policy=policy)
    # Drain to zero a random set, a cell's head with all its spares, and a
    # head with one spare left.
    enabled = state.enabled_node_ids()
    drained = set(rng.sample(enabled, rng.randint(0, len(enabled) // 4)))
    occupied = [flat for flat, count in enumerate(state.cell_counts) if count]
    whole = grid.coord_at(rng.choice(occupied))
    drained.update(node.node_id for node in state.members_of(whole))
    crowded = [flat for flat, count in enumerate(state.cell_counts) if count >= 2]
    if crowded:
        flat = rng.choice(crowded)
        spares = state.spare_ids_of(grid.coord_at(flat))
        drained.add(state.cell_heads[flat])
        drained.update(rng.sample(spares, len(spares) - 1))
    for node_id in drained:
        state.debit_energy(node_id, state.energy_of(node_id))
    twin = state.clone()
    model = EnergyModel(idle_cost_per_round=idle_cost)

    enabled_before = set(state.enabled_node_ids())
    count = model.apply_round(state)
    victims = sorted(enabled_before - set(state.enabled_node_ids()))
    assert count == len(victims)

    for node_id in twin.enabled_node_ids():
        twin.debit_energy(node_id, idle_cost)
    expected = sorted(
        node_id for node_id in twin.enabled_node_ids() if twin.energy_of(node_id) <= 0.0
    )
    twin.disable_nodes(expected, NodeState.DEPLETED)
    assert victims == expected
    assert drained <= set(victims)
    assert state.to_bytes() == twin.to_bytes()
    assert state.heads() == twin.heads()
    assert _members(state) == _members(twin)
    assert state.vacant_flat_cells() == twin.vacant_flat_cells()
    assert (state.spare_count, state.enabled_count) == (twin.spare_count, twin.enabled_count)
    np.testing.assert_array_equal(state.enabled_rows(), twin.enabled_rows())
    assert_enabled_rows_hold(state)
    twin.check_invariants()


# ---------------------------------------------------------- spare selection
def reference_select(state, flat, target, selection, rng=None):
    """``select_spare_at`` as written before its single pass (closures, ``tolist``)."""
    head_id = state.cell_heads[flat]
    energy = state.arrays.energy
    row_of = state.arrays.row_of
    spares = []
    for node_id in state.members_of(state.grid.coord_at(flat)):
        node_id = node_id.node_id
        if node_id != head_id:
            row = row_of(node_id)
            if energy[row] > 0.0:
                spares.append((node_id, row))
    if not spares:
        return None
    if selection == "random":
        return spares[rng.randrange(len(spares))][0]
    if len(spares) == 1:
        return spares[0][0]
    grid = state.grid
    target_y, target_x = divmod(target, grid.columns)
    center_x = grid.column_spans[target_x].center
    center_y = grid.row_spans[target_y].center
    positions = state.arrays.positions

    def distance(row):
        x, y = positions[row].tolist()
        return math.hypot(x - center_x, y - center_y)

    if selection == "max_energy":
        return max(
            spares,
            key=lambda spare: (float(energy[spare[1]]), -distance(spare[1]), -spare[0]),
        )[0]
    return min(spares, key=lambda spare: (distance(spare[1]), spare[0]))[0]


def _tied_state(seed: int) -> WsnState:
    """Nodes on a coarse lattice (distance ties) with few battery levels (energy ties).

    Ids are a random sample, so their order is not the row order.
    """
    rng = random.Random(seed)
    grid = VirtualGrid(columns=3, rows=3, cell_size=2.0)
    count = rng.randint(20, 60)
    xs = [rng.randrange(13) * 0.5 for _ in range(count)]
    ys = [rng.randrange(13) * 0.5 for _ in range(count)]
    ids = rng.sample(range(10, 200), count) if seed % 2 else list(range(count))
    nodes = NodeArrays.from_positions(np.asarray(ids), np.asarray(xs), np.asarray(ys))
    install_batteries(nodes, [rng.choice((0.0, 2.0, 2.0, 5.0)) for _ in range(count)])
    return WsnState(grid, nodes)


@pytest.mark.parametrize("selection", ["nearest", "max_energy", "random"])
@pytest.mark.parametrize("seed", range(16))
def test_select_spare_at_picks_what_the_reference_picks(selection, seed):
    state = _tied_state(seed)
    grid = state.grid
    picked = 0
    for flat in range(grid.cell_count):
        for target in grid.neighbour_table[flat] + (flat,):
            ours, theirs = random.Random(flat * 31 + target), random.Random(flat * 31 + target)
            chosen = state.select_spare_at(flat, target, selection, ours)
            assert chosen == reference_select(state, flat, target, selection, theirs)
            assert ours.random() == theirs.random(), "the same draws"
            picked += chosen is not None
    assert picked


def test_select_spare_at_refuses_an_unknown_selection(dense_state):
    flat = dense_state.grid.flat_index(GridCoord(1, 1))
    with pytest.raises(ValueError, match="bogus"):
        dense_state.select_spare_at(flat, flat + 1, "bogus")
    vacant = dense_state.grid.flat_index(GridCoord(2, 2))
    make_hole(dense_state, GridCoord(2, 2))
    with pytest.raises(ValueError, match="bogus"):
        dense_state.select_spare_at(vacant, flat, "bogus")


def test_random_selection_needs_an_rng(dense_state):
    flat = dense_state.grid.flat_index(GridCoord(1, 1))
    with pytest.raises(ValueError, match="rng"):
        dense_state.select_spare_at(flat, flat + 1, "random")
    assert dense_state.select_spare_at(flat, flat + 1, "random", random.Random(0)) is not None


# ------------------------------------------------------------------- moves
def test_move_node_refuses_a_target_position_outside_the_target_cell(rng):
    grid = VirtualGrid(columns=4, rows=4, cell_size=5.0)
    state = WsnState(grid, deploy_per_cell(grid, 2, rng))
    head = state.head_id_of(GridCoord(0, 0))
    image = state.to_bytes()
    with pytest.raises(ValueError, match="not in the target cell"):
        state.move_node(head, GridCoord(1, 0), rng, target_position=Point(17.0, 17.0))
    with pytest.raises(ValueError, match="outside"):
        state.move_node(head, GridCoord(1, 0), rng, target_position=Point(-1.0, 2.0))
    assert state.to_bytes() == image, "nothing is written before the refusal"
    state.check_invariants()
    record = state.move_node(head, GridCoord(1, 0), rng, target_position=Point(7.5, 2.5))
    assert record.target_position == Point(7.5, 2.5)
    state.check_invariants()


def test_move_node_checks_the_position_after_the_adjacency(rng):
    grid = VirtualGrid(columns=4, rows=4, cell_size=5.0)
    state = WsnState(grid, deploy_per_cell(grid, 2, rng))
    head = state.head_id_of(GridCoord(0, 0))
    with pytest.raises(ValueError, match="neighbouring-cell"):
        state.move_node(head, GridCoord(3, 3), rng, target_position=Point(17.0, 17.0))


# -------------------------------------------------------------- SR failure
def failing_sr_run():
    """SR on a spareless 4x4 grid with a 3-hop budget: its one process fails.

    Returns the moves made per round, a digest of the run's records (every
    move, process and series value) and the controller.  Only exact values
    enter the digest: no float sum, which Python 3.12 rounds differently.
    """
    grid = VirtualGrid(columns=4, rows=4, cell_size=1.0)
    rng = random.Random(11)
    state = WsnState(grid, deploy_per_cell(grid, 1, rng))
    controller = HamiltonReplacementController(build_hamilton_cycle(grid), max_hops=3)
    make_hole(state, GridCoord(2, 1))
    moves_per_round = []
    records = []
    for round_index in range(8):
        outcome = step_round(controller, state, rng, round_index)
        moves_per_round.append(outcome.move_count)
        records.append(
            [
                [move.node_id, list(move.source_cell), list(move.target_cell),
                 list(move.source_position), list(move.target_position), move.distance,
                 move.process_id]
                for move in outcome.moves
            ]
            + [outcome.processes_started, outcome.processes_converged, outcome.processes_failed,
               state.hole_count, state.spare_count]
        )
    processes = [
        [p.process_id, p.status.value, p.move_count, p.finished_round, p.notifications_sent]
        for p in controller.processes()
    ]
    records.append(processes)
    records.append(state.to_bytes().hex())
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    return moves_per_round, digest, controller


#: ``failing_sr_run``'s records digest, computed before SR's round tested an
#: absent initiator head ahead of its process lookups.
FAILING_SR_DIGEST = "518fe39869cac88e53fece0e892c750db3e0eda113bfa1a382c145b1ec42ddc3"


def test_sr_leaves_a_failed_process_vacancy_alone():
    moves_per_round, digest, controller = failing_sr_run()
    (process,) = controller.processes()
    assert process.failed and process.move_count == 3
    rest = moves_per_round[process.finished_round + 1 :]
    assert rest and rest == [0] * len(rest), "nobody serves the vacancy it left"
    assert digest == FAILING_SR_DIGEST
