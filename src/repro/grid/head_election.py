"""Grid-head election policies.

In every cell with at least one enabled node, exactly one node is elected
*grid head*; the rest are spares (Section 2).  The paper notes that the head
role can be rotated within the cell, so the election policy is pluggable.
Policies are plain callables taking the candidate nodes and the cell centre,
so that they work both on live :class:`~repro.network.node.SensorNode`
objects and on lightweight test doubles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.grid.geometry import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.node import SensorNode

#: A head-election policy: given the enabled candidates of a cell and the
#: cell centre, return the node that becomes head.  Candidates is never empty.
HeadElectionPolicy = Callable[[Sequence["SensorNode"], Point], "SensorNode"]


def lowest_id_policy(candidates: Sequence["SensorNode"], cell_center: Point) -> "SensorNode":
    """Deterministic election: the enabled node with the smallest id wins.

    This is the default policy because it makes simulations reproducible for
    a fixed deployment, independent of dict/set iteration order.
    """
    return min(candidates, key=lambda node: node.node_id)


def highest_energy_policy(candidates: Sequence["SensorNode"], cell_center: Point) -> "SensorNode":
    """Energy-aware election: the node with the most remaining energy wins.

    Ties are broken by node id so the policy stays deterministic.  Using this
    policy implements the head-rotation idea mentioned in Section 2 (rotate
    the role to balance energy drain).
    """
    return max(candidates, key=lambda node: (node.energy, -node.node_id))


def nearest_to_center_policy(
    candidates: Sequence["SensorNode"], cell_center: Point
) -> "SensorNode":
    """Geometric election: the node closest to the cell centre wins.

    Minimises the coverage overlap between neighbouring heads, matching the
    paper's goal of not needing the larger ``2*sqrt(2)*r`` range.
    """
    return min(
        candidates,
        key=lambda node: (node.position.distance_to(cell_center), node.node_id),
    )


def elect_head(
    candidates: Sequence["SensorNode"],
    cell_center: Point,
    policy: Optional[HeadElectionPolicy] = None,
) -> Optional["SensorNode"]:
    """Elect a head among ``candidates`` (returns ``None`` for an empty cell)."""
    enabled = [node for node in candidates if node.is_enabled]
    if not enabled:
        return None
    chosen_policy = policy or lowest_id_policy
    return chosen_policy(enabled, cell_center)
