"""Property tests for the binary state snapshots (``to_bytes``/``from_bytes``).

A snapshot's round-trip must be *exact*: every :class:`NodeArrays` column
(values and dtypes), the grid geometry, the head table, and the incremental
indices of the restored state must match the snapshotted one, and a buffer
of any other length than one snapshot is rejected.  These tests drive the
round-trip over seeded random scenarios and mutation histories — including
states with disabled nodes, stale head roles on disabled rows, energy
jitter, and non-default head policies — and hold the restored state to
``check_invariants()`` (the index oracle) plus a re-attached
:class:`~repro.network.adjacency.NeighborIndex` checked for consistency.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro.network.node_arrays import (
    BUFFER_FORMAT_VERSION,
    NodeArrays,
    snapshot_nbytes,
)
from repro.network.radio import UnitDiskRadio
from repro.network.state import STATE_SNAPSHOT_VERSION, WsnState
from repro.sim.scenario import HEAD_POLICIES, ScenarioConfig, build_scenario_state

COLUMNS = (
    "node_ids",
    "positions",
    "energy",
    "initial_energy",
    "state",
    "role",
    "cell",
    "moved_distance",
    "move_count",
)

#: Seeded round-trip scenarios (kept moderate: each builds a full state).
SEED_COUNT = 25


def assert_arrays_identical(left: NodeArrays, right: NodeArrays) -> None:
    assert len(left) == len(right)
    for column in COLUMNS:
        a = getattr(left, column)
        b = getattr(right, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column


def random_config(rng: random.Random) -> ScenarioConfig:
    """A randomized scenario: size, policy, deployment, and optional energy."""
    columns = rng.randint(3, 7)
    rows = rng.randint(3, 7)
    jittered = rng.random() < 0.5
    return ScenarioConfig(
        columns=columns,
        rows=rows,
        deployed_count=(
            columns * rows * rng.randint(2, 4)
        ),
        spare_surplus=rng.randint(0, 20),
        seed=rng.randint(0, 2**31),
        head_policy=rng.choice(sorted(HEAD_POLICIES)),
        deployment=rng.choice(("uniform", "per_cell")),
        initial_energy=rng.uniform(0.5, 2.0) if jittered else None,
        initial_energy_jitter=rng.uniform(0.0, 0.3) if jittered else 0.0,
    )


def mutate(state: WsnState, rng: random.Random, operations: int) -> None:
    """A random mutation history so snapshots cover non-pristine states."""
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


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_state_round_trip_over_random_scenarios(seed):
    """Snapshot -> restore is exact for random scenarios and histories."""
    rng = random.Random(seed)
    config = random_config(rng)
    state = build_scenario_state(config)
    if seed % 2:  # half the seeds snapshot a mutated, mid-simulation state
        mutate(state, rng, operations=rng.randint(1, 25))
    restored = WsnState.from_bytes(
        state.to_bytes(), head_policy=config.head_policy_fn
    )
    assert_arrays_identical(state.arrays, restored.arrays)
    assert restored.grid.columns == state.grid.columns
    assert restored.grid.rows == state.grid.rows
    assert restored.grid.cell_size == state.grid.cell_size
    assert restored.heads() == state.heads()
    assert restored.hole_count == state.hole_count
    assert restored.spare_count == state.spare_count
    assert restored.vacant_cells() == state.vacant_cells()
    restored.check_invariants()


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 5))
def test_restored_state_reattaches_a_consistent_neighbor_index(seed):
    rng = random.Random(seed)
    config = random_config(rng)
    state = build_scenario_state(config)
    mutate(state, rng, operations=10)
    restored = WsnState.from_bytes(
        state.to_bytes(), head_policy=config.head_policy_fn
    )
    radio = UnitDiskRadio(config.communication_range)
    index = restored.attach_neighbor_index(radio)
    index.check_consistency()
    reference = state.attach_neighbor_index(radio)
    assert index.as_dict() == reference.as_dict()


def test_restored_heads_are_not_re_elected():
    """Jittered energy + highest_energy policy: restore must keep the roles.

    Energy jitter installs *after* head election, so a fresh election on the
    jittered energies could crown different heads than the built state
    holds.  The snapshot restores heads from the persisted role column,
    which sidesteps the trap entirely.
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
    restored = WsnState.from_bytes(
        state.to_bytes(), head_policy=config.head_policy_fn
    )
    assert restored.heads() == state.heads()


def test_snapshot_rejects_trailing_bytes():
    """A snapshot is exactly ``snapshot_nbytes`` long; padding is rejected."""
    state = build_scenario_state(
        ScenarioConfig(columns=4, rows=4, deployed_count=48, seed=3)
    )
    snapshot = state.to_bytes()
    for padding in (b"\x00", b"\x00" * 4096):
        with pytest.raises(ValueError, match="exactly"):
            WsnState.from_bytes(snapshot + padding)
        with pytest.raises(ValueError, match="exactly"):
            NodeArrays.from_bytes(state.arrays.to_bytes() + padding)
    assert_arrays_identical(state.arrays, WsnState.from_bytes(snapshot).arrays)


def test_state_snapshot_rejects_foreign_versions():
    state = build_scenario_state(
        ScenarioConfig(columns=4, rows=4, deployed_count=48, seed=3)
    )
    snapshot = bytearray(state.to_bytes())
    struct.pack_into("<I", snapshot, 0, STATE_SNAPSHOT_VERSION + 1)
    with pytest.raises(ValueError, match="version"):
        WsnState.from_bytes(bytes(snapshot))
    with pytest.raises(ValueError, match="too short"):
        WsnState.from_bytes(b"\x01")


# ------------------------------------------------------------- NodeArrays
@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 5))
def test_node_arrays_round_trip(seed):
    rng = random.Random(seed)
    state = build_scenario_state(random_config(rng))
    mutate(state, rng, operations=8)
    arrays = state.arrays
    buffer = arrays.to_bytes()
    assert len(buffer) == snapshot_nbytes(len(arrays))
    assert_arrays_identical(arrays, NodeArrays.from_bytes(buffer))


def test_node_arrays_restore_is_an_independent_copy():
    state = build_scenario_state(
        ScenarioConfig(columns=4, rows=4, deployed_count=48, seed=3)
    )
    arrays = state.arrays
    restored = NodeArrays.from_bytes(arrays.to_bytes())
    restored.energy[:] = -1.0
    assert not np.any(arrays.energy == -1.0)


def test_node_arrays_rejects_foreign_versions_and_short_buffers():
    state = build_scenario_state(
        ScenarioConfig(columns=4, rows=4, deployed_count=48, seed=3)
    )
    buffer = bytearray(state.arrays.to_bytes())
    struct.pack_into("<I", buffer, 0, BUFFER_FORMAT_VERSION + 1)
    with pytest.raises(ValueError, match="version"):
        NodeArrays.from_bytes(bytes(buffer))
    with pytest.raises(ValueError, match="too short"):
        NodeArrays.from_bytes(b"")
    truncated = state.arrays.to_bytes()[:-8]
    with pytest.raises(ValueError):
        NodeArrays.from_bytes(truncated)
