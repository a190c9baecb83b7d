"""Energy model and accounting.

Section 1 of the paper motivates coverage holes with nodes that "deplete
their battery power" (jamming attacks in particular), and movement dominates
the energy budget of mobile sensors — which is exactly why the paper
optimises the number of movements and the total moving distance.  This module
provides both halves of the energy story:

* :class:`EnergyModel` — the physics the round-based engine applies every
  round: a per-round idle/sensing drain for every enabled node, the node-level
  per-move and per-message debit rates, and the depletion threshold at which
  the engine disables a node mid-run (creating a *new* hole the controllers
  must repair — dynamic holes emerging from the energy physics instead of a
  hand-written failure schedule).
* :class:`EnergySummary` / :func:`energy_summary` — an aggregate snapshot of
  the battery state of a network, consumed by :class:`~repro.sim.metrics.RunMetrics`
  and the lifetime experiment driver.

Consumption is accounted per node as ``initial_energy - energy``, summed over
**all** deployed nodes — so heterogeneous battery capacities and nodes that
were disabled mid-run (whose batteries stop draining but whose past
consumption must not vanish) are both handled correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.network.node import (
    MESSAGE_COST,
    MOVE_COST_PER_METER,
    ROLE_CODES,
    STATE_CODES,
    NodeRole,
    NodeState,
)
from repro.validation import finite_float

_ENABLED = STATE_CODES[NodeState.ENABLED]
_DEPLETED = STATE_CODES[NodeState.DEPLETED]
_HEAD = ROLE_CODES[NodeRole.HEAD]
_SPARE = ROLE_CODES[NodeRole.SPARE]


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum: :func:`repro._sums.sequential_sum` of the list.

    ``cumsum`` adds strictly left to right (``np.sum`` adds pairwise, and
    Python 3.12's ``sum()`` compensates, so neither would do).  An empty
    array totals ``0.0``.
    """
    return values.cumsum().item(-1) if len(values) else 0.0


@dataclass(frozen=True)
class EnergyModel:
    """Per-round energy physics applied by the round-based engine.

    Attributes
    ----------
    idle_cost_per_round:
        Joules every enabled node spends per round on sensing and idle
        listening, whether or not it moves.  Zero disables the drain (the
        paper's original workload, where only movement costs energy).
    move_cost_per_meter:
        Joules per metre of movement, debited from the moving node.
    message_cost:
        Joules per control message, debited from the sending head.
    depletion_threshold:
        Remaining-energy level at or below which the engine disables a node
        (:attr:`~repro.network.node.NodeState.DEPLETED`) at the start of the
        next round.  The vacancy this creates is an ordinary hole to the
        controllers.
    """

    idle_cost_per_round: float = 0.0
    move_cost_per_meter: float = MOVE_COST_PER_METER
    message_cost: float = MESSAGE_COST
    depletion_threshold: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "idle_cost_per_round",
            "move_cost_per_meter",
            "message_cost",
            "depletion_threshold",
        ):
            value = finite_float(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            # The float, not the given value: ``1`` and ``1.0`` key one run.
            object.__setattr__(self, name, value)

    def apply_round(self, state) -> int:
        """Drain the per-round idle cost and disable depleted nodes.

        Every enabled node pays :attr:`idle_cost_per_round`; any enabled node
        left at or below :attr:`depletion_threshold` afterwards (including
        nodes drained below it by earlier movement) is disabled with reason
        :attr:`~repro.network.node.NodeState.DEPLETED`.  Returns how many
        nodes it disabled (0 when none depleted); the state says which.

        The drain gathers over the state's enabled-row index
        (:meth:`WsnState.enabled_rows
        <repro.network.state.WsnState.enabled_rows>`).  Only in a round
        where some node depleted is the state asked to disable nodes, by
        row (:meth:`WsnState.disable_rows
        <repro.network.state.WsnState.disable_rows>`): the victims' rows and
        the surviving rows, which become the next enabled-row index.  The
        clamp (``max(0, e - cost)``) matches :meth:`WsnState.debit_energy
        <repro.network.state.WsnState.debit_energy>` bit-for-bit.
        """
        rows = state.enabled_rows()
        if not len(rows):
            return 0
        energy = state.arrays.energy
        enabled_energy = energy[rows]
        if self.idle_cost_per_round:
            enabled_energy -= self.idle_cost_per_round
            np.maximum(0.0, enabled_energy, out=enabled_energy)
            energy[rows] = enabled_energy
        threshold = self.depletion_threshold
        if enabled_energy.min() > threshold:
            return 0
        depleted = enabled_energy <= threshold
        victim_rows = rows[depleted]
        state.disable_rows(victim_rows, NodeState.DEPLETED, rows[~depleted])
        return len(victim_rows)


@dataclass(frozen=True)
class EnergySummary:
    """Aggregate battery statistics of a network.

    The per-node statistics (mean/min/max, role means) cover the *enabled*
    nodes — the network that is still alive — while the capacity and
    consumption totals cover **all** deployed nodes, so energy spent by nodes
    that have since failed or depleted is never lost from the books.
    """

    enabled_nodes: int
    total_energy: float
    mean_energy: float
    min_energy: float
    max_energy: float
    depleted_nodes: int
    head_mean_energy: float
    spare_mean_energy: float
    initial_energy_total: float = 0.0
    total_consumed: float = 0.0


def energy_summary(state) -> EnergySummary:
    """Summarise the battery state of ``state`` (see :class:`EnergySummary`).

    Totals are summed left-to-right over the node arrays, so they equal a
    sequential ``sum()`` over the nodes in deployment order.
    """
    arrays = state.arrays
    initial = arrays.initial_energy
    energy = arrays.energy
    enabled = arrays.state == _ENABLED
    enabled_energy = energy[enabled]
    head_energy = energy[enabled & (arrays.role == _HEAD)]
    spare_energy = energy[enabled & (arrays.role == _SPARE)]
    depleted = int(
        ((arrays.state == _DEPLETED) | (enabled & (energy <= 0.0))).sum()
    )
    count = len(enabled_energy)
    total = _sequential_sum(enabled_energy)
    return EnergySummary(
        enabled_nodes=count,
        total_energy=total,
        mean_energy=total / count if count else 0.0,
        min_energy=float(enabled_energy.min()) if count else 0.0,
        max_energy=float(enabled_energy.max()) if count else 0.0,
        depleted_nodes=depleted,
        head_mean_energy=(
            _sequential_sum(head_energy) / len(head_energy) if len(head_energy) else 0.0
        ),
        spare_mean_energy=(
            _sequential_sum(spare_energy) / len(spare_energy)
            if len(spare_energy)
            else 0.0
        ),
        initial_energy_total=_sequential_sum(initial),
        total_consumed=_sequential_sum(np.maximum(0.0, initial - energy)),
    )


def remaining_energy(state) -> Tuple[float, int]:
    """``(total remaining joules, count)`` over the enabled nodes of ``state``.

    Summed left to right over the enabled-row index, in deployment order.
    """
    enabled_energy = state.arrays.energy[state.enabled_rows()]
    return _sequential_sum(enabled_energy), len(enabled_energy)

