"""``WsnState.to_bytes()`` is a complete byte image of the state.

Tests and benchmarks decide that two states are the same state by comparing
their images, so the image must change whenever any node column or the grid
geometry does:

* one value of one row changed in any of the nine ``NodeArrays`` columns
  changes the image;
* the same node columns on a grid of different geometry (rows, columns, cell
  side, origin) give a different image.

``WsnState.clone()`` is how one scenario fans out to several schemes, so the
last tests hold it to the image over seeded random scenarios and mutation
histories: a clone has the same image, columns, dtypes, heads and totals,
passes ``check_invariants()``, and mutating it leaves the original intact.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.grid.geometry import Point
from repro.grid.virtual_grid import VirtualGrid
from repro.network.node_arrays import NodeArrays
from repro.network.state import WsnState
from repro.sim.scenario import HEAD_POLICIES, ScenarioConfig, build_scenario_state

#: Every ``NodeArrays`` column, as ``(name, per-row element)``; ``positions``
#: has two elements per row, each checked on its own.
COLUMN_ELEMENTS = (
    ("node_ids", None),
    ("positions", 0),
    ("positions", 1),
    ("energy", None),
    ("initial_energy", None),
    ("state", None),
    ("role", None),
    ("cell", None),
    ("moved_distance", None),
    ("move_count", None),
)


def test_the_elements_cover_every_column():
    columns = {name for name in NodeArrays.__slots__ if not name.startswith("_")}
    assert {name for name, _ in COLUMN_ELEMENTS} == columns
    assert len(columns) == 9


@pytest.mark.parametrize("name, element", COLUMN_ELEMENTS)
def test_changing_one_value_of_one_row_changes_the_image(name, element):
    state = build_scenario_state(
        ScenarioConfig(columns=4, rows=4, deployed_count=48, seed=3)
    )
    image = state.to_bytes()
    for row in (0, state.node_count // 2, state.node_count - 1):
        twin = state.clone()
        assert twin.to_bytes() == image
        column = getattr(twin.arrays, name)
        index = row if element is None else (row, element)
        # A different value of the column's own dtype: codes and ids step by
        # one, floats by a quarter (exact in binary).
        step = 1 if np.issubdtype(column.dtype, np.integer) else 0.25
        column[index] = column[index] + step
        assert twin.to_bytes() != image, f"{name}[{index}] is not in the image"


def _corner_nodes() -> NodeArrays:
    """Nodes in ``[0.05, 0.45]^2``: cell 0 of every grid below, so the node columns agree."""
    coords = np.linspace(0.05, 0.45, 5)
    return NodeArrays.from_positions(np.arange(5), coords, coords[::-1].copy())


@pytest.mark.parametrize(
    "grid",
    [
        VirtualGrid(4, 5, cell_size=1.0),
        VirtualGrid(5, 4, cell_size=1.0),
        VirtualGrid(4, 4, cell_size=1.5),
        VirtualGrid(4, 4, cell_size=1.0, origin=Point(-0.25, -0.25)),
    ],
    ids=["rows", "columns", "cell_size", "origin"],
)
def test_the_same_nodes_on_another_grid_give_another_image(grid):
    base = WsnState(VirtualGrid(4, 4, cell_size=1.0), _corner_nodes())
    other = WsnState(grid, _corner_nodes())
    assert other.arrays.to_bytes() == base.arrays.to_bytes()
    assert other.to_bytes() != base.to_bytes()


# ------------------------------------------------------------------- clone
#: Seeded random scenarios (kept moderate: each builds a full state).
SEED_COUNT = 25


def random_config(rng: random.Random) -> ScenarioConfig:
    """A randomized scenario: size, policy, deployment, and optional energy."""
    columns = rng.randint(3, 7)
    rows = rng.randint(3, 7)
    jittered = rng.random() < 0.5
    return ScenarioConfig(
        columns=columns,
        rows=rows,
        deployed_count=columns * rows * rng.randint(2, 4),
        spare_surplus=rng.randint(0, 20),
        seed=rng.randint(0, 2**31),
        head_policy=rng.choice(sorted(HEAD_POLICIES)),
        deployment=rng.choice(("uniform", "per_cell")),
        initial_energy=rng.uniform(0.5, 2.0) if jittered else None,
        initial_energy_jitter=rng.uniform(0.0, 0.3) if jittered else 0.0,
    )


def mutate(state: WsnState, rng: random.Random, operations: int) -> None:
    """A random disable / enable / move history, so non-pristine states are covered."""
    for _ in range(operations):
        roll = rng.random()
        enabled = state.enabled_nodes()
        if roll < 0.4:
            if enabled:
                state.disable_node(rng.choice(enabled).node_id)
        elif roll < 0.6:
            disabled = state.disabled_nodes()
            if disabled:
                state.enable_node(rng.choice(disabled).node_id)
        elif enabled:
            node = rng.choice(enabled)
            source = state.cell_of_node(node.node_id)
            neighbours = state.grid.neighbours(source)
            if neighbours:
                try:
                    state.move_node(node.node_id, rng.choice(neighbours), rng)
                except RuntimeError:
                    pass  # depleted batteries cannot move; skip the operation


def assert_arrays_identical(left: NodeArrays, right: NodeArrays) -> None:
    assert len(left) == len(right)
    for name, _ in COLUMN_ELEMENTS:
        a = getattr(left, name)
        b = getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_clone_is_an_exact_independent_copy(seed):
    rng = random.Random(seed)
    state = build_scenario_state(random_config(rng))
    if seed % 2:  # half the seeds clone a mutated, mid-simulation state
        mutate(state, rng, operations=rng.randint(1, 25))
    image = state.to_bytes()
    twin = state.clone()
    assert twin.to_bytes() == image
    assert_arrays_identical(state.arrays, twin.arrays)
    assert twin.heads() == state.heads()
    assert twin.hole_count == state.hole_count
    assert twin.spare_count == state.spare_count
    assert twin.vacant_cells() == state.vacant_cells()
    twin.check_invariants()
    # Mutating the clone must touch none of the original's columns or indices.
    mutate(twin, rng, operations=10)
    enabled = twin.enabled_node_ids()
    if enabled:
        twin.disable_node(enabled[0])
    twin.check_invariants()
    assert twin.to_bytes() != image
    assert state.to_bytes() == image
    state.check_invariants()


def test_clone_keeps_the_heads_it_was_given():
    """Jittered energy + highest_energy policy: a clone must copy heads, not re-elect.

    Energy jitter installs *after* head election, so a fresh election on the
    jittered energies crowns different heads than the built state holds.
    """
    config = ScenarioConfig(
        columns=5,
        rows=5,
        deployed_count=150,
        seed=11,
        head_policy="highest_energy",
        initial_energy=1.0,
        initial_energy_jitter=0.5,
    )
    state = build_scenario_state(config)
    re_elected = WsnState(state.grid, state.arrays.copy(), config.head_policy_fn)
    assert re_elected.heads() != state.heads()
    twin = state.clone()
    assert twin.heads() == state.heads()
    assert twin.to_bytes() == state.to_bytes()
