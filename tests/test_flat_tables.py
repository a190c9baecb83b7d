"""Equivalence of the flat-id tables and relocation with their coordinate forms.

The replacement controllers address cells by flat id (``y * columns + x``)
and read per-shape tables instead of calling the coordinate API:

* ``HamiltonCycle.index_table`` must equal ``index_of`` (the position in
  ``order()``), and ``initiator_of`` must give ``initiator_for``'s answer
  for every vacant cell, every spare situation at A and B, and the origins
  that steer Algorithm 2 (``None``, D, A, and another cell);
* ``VirtualGrid.neighbour_table`` must list ``neighbours()`` in order;
* ``WsnState.relocate`` (the controllers' move) must leave the state,
  records, random draws and head-policy calls exactly as ``move_node``
  does, move for move, with ``check_invariants()`` holding throughout;
* ``core.protocol.select_spare`` / ``usable_spares`` are the coordinate
  forms of the state's one spare-selection rule.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.hamilton import DualPathHamiltonCycle, build_hamilton_cycle
from repro.core.protocol import select_spare, usable_spares
from repro.grid.geometry import Point
from repro.grid.head_election import (
    highest_energy_policy,
    lowest_id_policy,
    make_round_robin_policy,
)
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.deployment import deploy_uniform
from repro.network.node import NodeRole
from repro.network.state import WsnState

from helpers import install_batteries

SERPENTINE_SHAPES = ((4, 5), (5, 4), (16, 16))
DUAL_PATH_SHAPES = ((3, 3), (5, 5), (7, 9))


def _grid(columns: int, rows: int) -> VirtualGrid:
    return VirtualGrid(columns, rows, cell_size=1.0)


# ---------------------------------------------------------------- Hamilton
@pytest.mark.parametrize("shape", SERPENTINE_SHAPES + DUAL_PATH_SHAPES)
def test_index_table_equals_index_of(shape):
    grid = _grid(*shape)
    cycle = build_hamilton_cycle(grid)
    order = cycle.order()
    assert len(cycle.index_table) == grid.cell_count
    for coord in grid.all_coords():
        flat = grid.flat_index(coord)
        assert cycle.index_table[flat] == cycle.index_of(coord) == order.index(coord)


@pytest.mark.parametrize("shape", SERPENTINE_SHAPES + DUAL_PATH_SHAPES)
def test_index_of_an_off_grid_cell_is_a_key_error(shape):
    cycle = build_hamilton_cycle(_grid(*shape))
    for cell in (GridCoord(-1, 0), GridCoord(0, shape[1]), GridCoord(shape[0], 0)):
        with pytest.raises(KeyError):
            cycle.index_of(cell)


def _origins(grid: VirtualGrid, cycle) -> list:
    """``None``, D, A and another cell (the dual-path junction rules' inputs)."""
    if isinstance(cycle, DualPathHamiltonCycle):
        return [None, cycle.cell_d, cycle.cell_a, GridCoord(grid.columns - 1, grid.rows - 1)]
    return [None, GridCoord(0, 0), GridCoord(1, 0), GridCoord(grid.columns - 1, grid.rows - 1)]


@pytest.mark.parametrize("shape", SERPENTINE_SHAPES + DUAL_PATH_SHAPES)
def test_initiator_of_equals_initiator_for(shape):
    grid = _grid(*shape)
    cycle = build_hamilton_cycle(grid)
    corners = [GridCoord(0, 0), GridCoord(1, 1)]  # A and B of the dual path
    checked = 0
    for spare_a, spare_b in itertools.product((False, True), repeat=2):
        counts = [1] * grid.cell_count
        counts[grid.flat_index(corners[0])] = 2 if spare_a else 1
        counts[grid.flat_index(corners[1])] = 2 if spare_b else 1

        def has_spare(coord, counts=counts):
            return counts[grid.flat_index(coord)] > 1

        for origin in _origins(grid, cycle):
            origin_flat = None if origin is None else grid.flat_index(origin)
            for vacant in grid.all_coords():
                expected = cycle.initiator_for(vacant, has_spare=has_spare, origin=origin)
                flat = cycle.initiator_of(grid.flat_index(vacant), counts, origin_flat)
                assert (None if flat is None else grid.coord_at(flat)) == expected, (
                    vacant,
                    origin,
                    spare_a,
                    spare_b,
                )
                checked += 1
    assert checked == 16 * grid.cell_count


@pytest.mark.parametrize("shape", SERPENTINE_SHAPES + DUAL_PATH_SHAPES)
def test_initiator_table_holds_every_fixed_initiator(shape):
    """Only C and D of a dual path depend on spares; a serpentine table is its predecessors."""
    grid = _grid(*shape)
    cycle = build_hamilton_cycle(grid)
    dynamic = {
        flat for flat, initiator in enumerate(cycle.initiator_table) if initiator < 0
    }
    if isinstance(cycle, DualPathHamiltonCycle):
        assert dynamic == {grid.flat_index(cycle.cell_c), grid.flat_index(cycle.cell_d)}
    else:
        assert not dynamic
        for coord in grid.all_coords():
            assert grid.coord_at(cycle.initiator_table[grid.flat_index(coord)]) == (
                cycle.predecessor(coord)
            )


def test_dual_path_chain_accessors_reject_off_chain_cells():
    cycle = build_hamilton_cycle(_grid(5, 5))
    for cell in (cycle.cell_a, cycle.cell_b, GridCoord(-1, 0), GridCoord(5, 0)):
        with pytest.raises(ValueError, match="not on the shared chain"):
            cycle.chain_predecessor(cell)


# -------------------------------------------------------------- neighbours
@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 6), (6, 1), (2, 2), (4, 5), (5, 4), (16, 16)]
)
def test_neighbour_table_equals_neighbours(shape):
    grid = _grid(*shape)
    table = grid.neighbour_table
    assert len(table) == grid.cell_count
    for coord in grid.all_coords():
        assert [grid.coord_at(flat) for flat in table[grid.flat_index(coord)]] == (
            grid.neighbours(coord)
        )


def test_flat_id_is_the_checked_flat_index():
    grid = _grid(4, 3)
    for coord in grid.all_coords():
        assert grid.flat_id(coord) == grid.flat_id(tuple(coord)) == grid.flat_index(coord)
    # Unchecked, (-1, 0) would alias the last cell and (4, 0) the first of row 1.
    for cell in ((-1, 0), (4, 0), (0, 3), (0, -1)):
        with pytest.raises(KeyError):
            grid.flat_id(cell)


def test_tables_are_shared_per_shape():
    """Every grid of a shape reads one coordinate list and one neighbour table."""
    first, second = _grid(6, 7), VirtualGrid(6, 7, cell_size=3.5, origin=Point(2.0, 1.0))
    assert first.coord_list() is second.coord_list()
    assert first.neighbour_table is second.neighbour_table
    assert _grid(7, 6).neighbour_table is not first.neighbour_table


# -------------------------------------------------------------- relocation
def _counted(policy):
    """Wrap ``policy`` so the test can count its elections."""
    calls = []

    def counted(candidates, cell_center):
        calls.append(cell_center)
        return policy(candidates, cell_center)

    return counted, calls


POLICIES = {
    "lowest_id": lambda: lowest_id_policy,
    "highest_energy": lambda: highest_energy_policy,
    "round_robin": make_round_robin_policy,
}


def _twin_states(seed: int, policy_name: str):
    """Two equal states under equal (separately counted) head policies."""
    rng = random.Random(seed)
    grid = _grid(rng.randint(2, 6), rng.randint(2, 6))
    nodes = deploy_uniform(grid, rng.randint(grid.cell_count, 4 * grid.cell_count), rng)
    install_batteries(nodes, [rng.uniform(0.5, 30.0) for _ in range(len(nodes))])
    twins = []
    for _ in range(2):
        policy, calls = POLICIES[policy_name](), None
        if policy is not lowest_id_policy:
            policy, calls = _counted(policy)
        state = WsnState(grid, nodes.copy(), head_policy=policy)
        twins.append((state, calls))
    return rng, twins


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(12))
def test_relocate_equals_move_node(policy_name, seed):
    """Seeded move sequences: the controllers' relocation and move_node agree."""
    rng, ((flat_state, flat_calls), (coord_state, coord_calls)) = _twin_states(
        seed, policy_name
    )
    grid = flat_state.grid
    flat_draws, coord_draws = random.Random(seed), random.Random(seed)
    moves = 0
    for _ in range(60):
        enabled = coord_state.enabled_node_ids()
        if not enabled:
            break
        node_id = rng.choice(enabled)
        source = coord_state.cell_of_node(node_id)
        if rng.random() < 0.15:
            # Not a neighbour (or the node's own cell): both refuse.
            target = GridCoord(rng.randrange(grid.columns), rng.randrange(grid.rows))
            if target in grid.neighbours(source):
                continue
            with pytest.raises(ValueError):
                flat_state.relocate(node_id, grid.flat_index(target), flat_draws)
            with pytest.raises(ValueError):
                coord_state.move_node(node_id, target, coord_draws)
            continue
        if rng.random() < 0.1:
            # An empty battery is refused after the target draw, on both paths.
            flat_state.debit_energy(node_id, 1e9)
            coord_state.debit_energy(node_id, 1e9)
        target = rng.choice(grid.neighbours(source))
        process_id = rng.choice((None, moves))
        if coord_state.energy_of(node_id) <= 0.0:
            with pytest.raises(RuntimeError, match="depleted battery"):
                flat_state.relocate(node_id, grid.flat_index(target), flat_draws, 3)
            with pytest.raises(RuntimeError, match="depleted battery"):
                coord_state.move_node(node_id, target, coord_draws, 3)
        else:
            flat_record = flat_state.relocate(
                node_id, grid.flat_index(target), flat_draws, moves, process_id
            )
            coord_record = coord_state.move_node(
                node_id, target, coord_draws, moves, process_id=process_id
            )
            assert flat_record == coord_record
            assert type(flat_record.target_cell) is GridCoord
            moves += 1
        if rng.random() < 0.1:
            victim = rng.choice(enabled)
            flat_state.disable_node(victim)
            coord_state.disable_node(victim)
            with pytest.raises(RuntimeError, match="disabled"):
                flat_state.relocate(victim, grid.neighbour_table[0][0], flat_draws)
        flat_state.check_invariants()
        coord_state.check_invariants()
        assert flat_state.to_bytes() == coord_state.to_bytes()
        assert flat_state.heads() == coord_state.heads()
    assert moves
    assert flat_draws.random() == coord_draws.random()
    if flat_calls is not None:
        assert len(flat_calls) == len(coord_calls)
        assert flat_calls == coord_calls


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_a_head_moved_into_its_own_cell_keeps_the_role_when_re_elected(policy_name):
    """``move_node(..., enforce_adjacent=False)`` may target the mover's own cell."""
    grid = _grid(2, 2)
    nodes = install_batteries(
        deploy_uniform(grid, 12, random.Random(5)), [10.0 + index for index in range(12)]
    )
    state = WsnState(grid, nodes, head_policy=POLICIES[policy_name]())
    for coord in grid.all_coords():
        head = state.head_of(coord)
        if head is None:
            continue
        record = state.move_node(
            head.node_id, coord, random.Random(1), enforce_adjacent=False
        )
        assert record.source_cell == record.target_cell == coord
        state.check_invariants()
        new_head = state.head_of(coord)
        for member in state.members_of(coord):
            expected = NodeRole.HEAD if member is new_head else NodeRole.SPARE
            assert member.role is expected


# ------------------------------------------------------------ spare reads
@pytest.mark.parametrize("selection", ["nearest", "max_energy", "random"])
def test_coordinate_spare_reads_wrap_the_flat_rule(selection):
    rng = random.Random(8)
    grid = _grid(4, 4)
    nodes = deploy_uniform(grid, 90, rng)
    install_batteries(
        nodes, [rng.choice((0.0, 5.0, rng.uniform(1.0, 9.0))) for _ in range(90)]
    )
    state = WsnState(grid, nodes)
    for cell in grid.all_coords():
        flat = grid.flat_index(cell)
        usable = usable_spares(state, cell)
        assert usable == state.usable_spares_at(flat)
        assert usable == [
            node_id for node_id in state.spare_ids_of(cell) if state.energy_of(node_id) > 0.0
        ]
        for target in grid.neighbours(cell):
            draws_a, draws_b = random.Random(flat), random.Random(flat)
            chosen = select_spare(state, cell, target, selection, draws_a)
            assert chosen == state.select_spare_at(
                flat, grid.flat_index(target), selection, draws_b
            )
            assert (chosen is None) == (not usable)
            assert chosen is None or chosen in usable
    with pytest.raises(KeyError):
        usable_spares(state, GridCoord(-1, 0))
    with pytest.raises(KeyError):
        select_spare(state, GridCoord(0, 0), GridCoord(0, 4), "nearest")
