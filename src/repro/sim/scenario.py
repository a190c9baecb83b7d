"""Scenario configuration for the paper's experimental workload.

Section 5 of the paper builds its scenarios as follows: deploy a large number
of sensors uniformly at random over the surveillance area (5000 sensors,
communication range ``R = 10 m``, so the virtual grid uses
``4.4721 m x 4.4721 m`` cells and a ``16 x 16`` grid system), then randomly
disable nodes "and create the holes"; the x-axis of every figure is ``N``,
the number of spare nodes left in the network beyond one head per cell, i.e.
``N = enabled - m*n``.  :class:`ScenarioConfig` captures exactly those knobs
plus the ones needed by the extension examples.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grid.head_election import (
    HeadElectionPolicy,
    highest_energy_policy,
    lowest_id_policy,
    nearest_to_center_policy,
)
from repro.grid.virtual_grid import VirtualGrid, cell_side_for_range
from repro.network.deployment import deploy_per_cell, deploy_uniform
from repro.network.failures import ThinningToEnabledCount
from repro.network.node import STATE_CODES
from repro.network.state import WsnState
from repro.sim.rng import derive_rng, draw_uniforms
from repro.validation import checked_int, finite_float

#: Named head-election policies selectable from a scenario config.
HEAD_POLICIES = {
    "lowest_id": lowest_id_policy,
    "highest_energy": highest_energy_policy,
    "nearest_to_center": nearest_to_center_policy,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated deployment.

    Attributes
    ----------
    columns, rows:
        Virtual-grid dimensions (``n x m``); the paper uses ``16 x 16``.
    communication_range:
        Radio range ``R`` in metres; the cell side is ``r = R / sqrt(5)``.
    deployed_count:
        Number of sensors deployed before any failures (paper: 5000).
    spare_surplus:
        The paper's ``N``: nodes are disabled at random until exactly
        ``columns * rows + N`` enabled nodes remain.  ``None`` disables the
        thinning step (all deployed nodes stay enabled).
    seed:
        Master seed; deployment, thinning, and controller randomness use
        independent streams derived from it.
    initial_energy:
        Battery capacity installed in every deployed node (joules).  ``None``
        keeps the node default
        (:data:`~repro.network.node.DEFAULT_BATTERY_CAPACITY`).
    initial_energy_jitter:
        Fraction in ``[0, 1)`` by which individual batteries fall below
        ``initial_energy`` (independent uniform draws from the scenario's
        ``"energy"`` stream).  Heterogeneous capacities stagger depletion,
        which is what makes lifetime workloads produce holes gradually
        instead of in one synchronized wave.
    head_policy:
        Name of the head-election policy (see :data:`HEAD_POLICIES`).
    deployment:
        ``"uniform"`` (the paper's workload) or ``"per_cell"`` (exactly
        ``deployed_count / cells`` nodes per cell; useful for tests).  A
        per-cell deployment requires ``deployed_count`` to be a positive
        multiple of the cell count — anything else cannot be honored exactly
        and is rejected instead of silently rounding.
    """

    columns: int = 16
    rows: int = 16
    communication_range: float = 10.0
    deployed_count: int = 5000
    spare_surplus: Optional[int] = None
    seed: int = 0
    initial_energy: Optional[float] = None
    initial_energy_jitter: float = 0.0
    head_policy: str = "lowest_id"
    deployment: str = "uniform"

    def __post_init__(self) -> None:
        for name in ("columns", "rows", "deployed_count", "seed"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        if self.spare_surplus is not None:
            object.__setattr__(
                self, "spare_surplus", checked_int(self.spare_surplus, "spare_surplus")
            )
        finite_float(self.communication_range, "communication_range")
        finite_float(self.initial_energy_jitter, "initial_energy_jitter")
        if self.initial_energy is not None:
            finite_float(self.initial_energy, "initial_energy")
        if self.columns < 1 or self.rows < 1:
            raise ValueError("grid dimensions must be positive")
        if self.communication_range <= 0:
            raise ValueError("communication_range must be positive")
        if self.deployed_count < 0:
            raise ValueError("deployed_count must be non-negative")
        if self.spare_surplus is not None and self.spare_surplus < 0:
            raise ValueError("spare_surplus must be non-negative when given")
        if self.initial_energy is not None and self.initial_energy <= 0:
            raise ValueError("initial_energy must be positive when given")
        if not 0.0 <= self.initial_energy_jitter < 1.0:
            raise ValueError(
                f"initial_energy_jitter must be in [0, 1), got {self.initial_energy_jitter}"
            )
        if self.head_policy not in HEAD_POLICIES:
            raise ValueError(
                f"unknown head_policy {self.head_policy!r}; choose one of "
                f"{sorted(HEAD_POLICIES)}"
            )
        if self.deployment not in ("uniform", "per_cell"):
            raise ValueError(
                f"deployment must be 'uniform' or 'per_cell', got {self.deployment!r}"
            )
        if self.deployment == "per_cell":
            cells = self.columns * self.rows
            if self.deployed_count == 0 or self.deployed_count % cells != 0:
                raise ValueError(
                    "per_cell deployment requires deployed_count to be a "
                    f"positive multiple of the cell count ({cells}); got "
                    f"{self.deployed_count}.  Use deployed_count = "
                    f"{cells} * k for k nodes per cell, or deployment='uniform'."
                )

    # ----------------------------------------------------------- derived view
    @property
    def cell_size(self) -> float:
        """Cell side ``r = R / sqrt(5)`` in metres."""
        return cell_side_for_range(self.communication_range)

    @property
    def cell_count(self) -> int:
        """Total number of virtual-grid cells (``columns * rows``)."""
        return self.columns * self.rows

    @property
    def target_enabled(self) -> Optional[int]:
        """Number of enabled nodes after thinning (``m*n + N``), if thinning is on."""
        if self.spare_surplus is None:
            return None
        return self.cell_count + self.spare_surplus

    @property
    def head_policy_fn(self) -> HeadElectionPolicy:
        """The head-election policy callable named by :attr:`head_policy`."""
        return HEAD_POLICIES[self.head_policy]

    def make_grid(self) -> VirtualGrid:
        """Construct the virtual grid this scenario deploys onto."""
        return VirtualGrid(self.columns, self.rows, self.cell_size)

    def with_spare_surplus(self, spare_surplus: int) -> "ScenarioConfig":
        """Copy of the config with a different ``N`` (used by parameter sweeps)."""
        return dataclasses.replace(self, spare_surplus=spare_surplus)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy of the config with a different master seed (used for repeated trials)."""
        return dataclasses.replace(self, seed=seed)


def build_scenario_state(config: ScenarioConfig) -> WsnState:
    """Deploy, thin, and index a network according to ``config``.

    The returned :class:`~repro.network.state.WsnState` is ready for a
    controller: nodes are deployed, the requested number of nodes has been
    disabled, and heads are elected in every non-vacant cell.

    The thinning victims are drawn from the deployment order and written as
    failed before the state exists, so indexing and head election run once,
    over the survivors.  The result is byte-identical to indexing every
    deployed node and then disabling the victims: every named head policy is
    stateless, so a cell's head is its best survivor either way, and a
    victim ends with the unassigned role either way.
    """
    grid = config.make_grid()
    deploy_rng = derive_rng(config.seed, "deployment")
    if config.deployment == "uniform":
        arrays = deploy_uniform(grid, config.deployed_count, deploy_rng)
    else:
        # __post_init__ guarantees deployed_count is a positive multiple of
        # the cell count, so this deploys exactly deployed_count nodes.
        arrays = deploy_per_cell(grid, config.deployed_count // config.cell_count, deploy_rng)
    if config.target_enabled is not None:
        thinning = ThinningToEnabledCount(target_enabled=config.target_enabled)
        victims = thinning.draw_victims(
            arrays.node_ids.tolist(), derive_rng(config.seed, "thinning")
        )
        rows = arrays.rows_of(np.asarray(victims, dtype=np.int64))
        arrays.state[rows] = STATE_CODES[thinning.reason]
    state = WsnState(grid, arrays, head_policy=config.head_policy_fn)
    if config.initial_energy is not None:
        # Batched battery install: the per-node jitter draws happen in the
        # historical node order, the affine transform is vectorized, and the
        # result is written straight into the energy columns (matching the
        # per-node ``reset_energy`` calls bit-for-bit).
        if config.initial_energy_jitter:
            draws = draw_uniforms(derive_rng(config.seed, "energy"), len(arrays))
            capacities = config.initial_energy * (
                1.0 - config.initial_energy_jitter * draws
            )
        else:
            capacities = np.full(len(arrays), config.initial_energy, dtype=np.float64)
        arrays.energy[:] = capacities
        arrays.initial_energy[:] = capacities
    return state
