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
* :func:`recovery_energy_cost` — translate a recovery run's cost metrics
  (distance, messages) into joules, so scheme comparisons can be presented in
  energy as well as metres.

Consumption is accounted per node as ``initial_energy - energy``, summed over
**all** deployed nodes — so heterogeneous battery capacities and nodes that
were disabled mid-run (whose batteries stop draining but whose past
consumption must not vanish) are both handled correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

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
    """Left-to-right float sum, identical to Python's ``sum()`` over a list."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


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

    def apply_round(self, state) -> List[int]:
        """Drain the per-round idle cost and disable depleted nodes.

        Every enabled node pays :attr:`idle_cost_per_round`; any enabled node
        left at or below :attr:`depletion_threshold` afterwards (including
        nodes drained below it by earlier movement) is disabled with reason
        :attr:`~repro.network.node.NodeState.DEPLETED`.  Returns the ids of
        the disabled nodes, in ascending order, so callers can log them.

        The drain is one masked array operation; the clamp
        (``max(0, e - cost)``) matches :meth:`WsnState.debit_energy
        <repro.network.state.WsnState.debit_energy>` bit-for-bit.
        """
        arrays = state.arrays
        mask = arrays.state == _ENABLED
        if self.idle_cost_per_round:
            arrays.energy[mask] = np.maximum(
                0.0, arrays.energy[mask] - self.idle_cost_per_round
            )
        depleted = arrays.node_ids[mask & (arrays.energy <= self.depletion_threshold)]
        state.disable_nodes(depleted, reason=NodeState.DEPLETED)
        return sorted(depleted.tolist())

    def recovery_cost(self, total_distance: float, messages_sent: int = 0) -> float:
        """:func:`recovery_energy_cost` evaluated at this model's rates."""
        return recovery_energy_cost(
            total_distance,
            messages_sent,
            move_cost_per_meter=self.move_cost_per_meter,
            message_cost=self.message_cost,
        )


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

    @property
    def imbalance(self) -> float:
        """Spread between the fullest and the emptiest enabled node (joules)."""
        return self.max_energy - self.min_energy


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
    """``(total remaining joules, count)`` over the enabled nodes of ``state``."""
    arrays = state.arrays
    enabled_energy = arrays.energy[arrays.state == _ENABLED]
    return _sequential_sum(enabled_energy), len(enabled_energy)


def recovery_energy_cost(
    total_distance: float,
    messages_sent: int = 0,
    move_cost_per_meter: float = MOVE_COST_PER_METER,
    message_cost: float = MESSAGE_COST,
) -> float:
    """Energy (joules) a recovery run consumed, from its cost metrics.

    The model is the same linear one the node class uses: moving costs
    ``move_cost_per_meter`` joules per metre and each control message costs
    ``message_cost`` joules — so the comparison between schemes in joules has
    exactly the same shape as the paper's moving-distance comparison, shifted
    only by the (tiny) messaging term.
    """
    if total_distance < 0:
        raise ValueError(f"total_distance must be non-negative, got {total_distance}")
    if messages_sent < 0:
        raise ValueError(f"messages_sent must be non-negative, got {messages_sent}")
    return total_distance * move_cost_per_meter + messages_sent * message_cost


def per_scheme_energy_costs(metrics_by_scheme: Dict[str, "RunMetrics"]) -> Dict[str, float]:
    """Translate a mapping of scheme name -> RunMetrics into joules consumed."""
    return {
        scheme: recovery_energy_cost(metrics.total_distance, metrics.messages_sent)
        for scheme, metrics in metrics_by_scheme.items()
    }
