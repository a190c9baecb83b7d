"""Unit-disk radio model and neighbour discovery.

All nodes share the same communication range ``R`` (Section 2).  Two nodes
within range are neighbours and directly connected; the paper's overlay needs
``R = sqrt(5) * r`` so that a grid head can reach every node in the four
neighbouring cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.grid.geometry import Point
from repro.grid.virtual_grid import GAF_RANGE_FACTOR, cell_side_for_range
from repro.network.adjacency import adjacency_lists, build_edges
from repro.network.node import SensorNode


@dataclass(frozen=True)
class UnitDiskRadio:
    """A symmetric unit-disk radio with communication range ``R`` (metres)."""

    communication_range: float

    def __post_init__(self) -> None:
        if self.communication_range <= 0:
            raise ValueError(
                f"communication_range must be positive, got {self.communication_range}"
            )

    @property
    def gaf_cell_size(self) -> float:
        """Cell side ``r = R / sqrt(5)`` that this radio supports."""
        return cell_side_for_range(self.communication_range)

    def supports_cell_size(self, cell_size: float) -> bool:
        """Whether ``R >= sqrt(5) * r`` holds for the given cell side."""
        return self.communication_range + 1e-12 >= GAF_RANGE_FACTOR * cell_size

    def in_range(self, a: Point, b: Point) -> bool:
        """Whether two positions can communicate directly."""
        return a.distance_to(b) <= self.communication_range + 1e-12

    def adjacency(
        self, nodes: Sequence[SensorNode]
    ) -> Dict[int, List[int]]:
        """Adjacency lists (by node id, ascending) over the enabled nodes.

        Nodes are hashed into square buckets of side ``R``, so two nodes in
        range always fall into the same or an adjacent bucket; candidate
        pairs are generated and distance-filtered fully vectorised (see
        :func:`repro.network.adjacency.build_edges`), which keeps both time
        and memory proportional to the number of *local* pairs instead of
        the dense ``N x N`` matrix — million-node deployments stay tractable.
        """
        enabled = [n for n in nodes if n.is_enabled]
        if not enabled:
            return {}
        ids = np.array([n.node_id for n in enabled], dtype=np.int64)
        xs = np.array([n.position.x for n in enabled])
        ys = np.array([n.position.y for n in enabled])
        left, right = build_edges(xs, ys, self.communication_range)
        return adjacency_lists(ids, left, right)

    def adjacency_of_state(self, state) -> Dict[int, List[int]]:
        """:meth:`adjacency` over a ``WsnState``, straight from its arrays.

        Skips handle materialisation entirely, so this is the path to use on
        large states (the ``bench_scale`` adjacency tiers measure it).
        """
        arrays = state.arrays
        mask = arrays.enabled_mask()
        ids = arrays.node_ids[mask]
        if len(ids) == 0:
            return {}
        xs = arrays.positions[mask, 0]
        ys = arrays.positions[mask, 1]
        left, right = build_edges(xs, ys, self.communication_range)
        return adjacency_lists(ids, left, right)

    def link_pairs(self, nodes: Sequence[SensorNode]) -> List[Tuple[int, int]]:
        """Undirected communication links among enabled nodes as ``(id_a, id_b)`` pairs."""
        adjacency = self.adjacency(nodes)
        pairs = []
        for a, neighbours in adjacency.items():
            for b in neighbours:
                if a < b:
                    pairs.append((a, b))
        return pairs
