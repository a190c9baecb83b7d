"""Virtual-force hole repair (extension baseline).

The virtual-force approach treats sensors as particles: nearby sensors repel
each other, and uncovered regions attract them.  Nodes in dense regions
therefore drift towards sparse regions and, eventually, into the holes.  The
paper's introduction summarises the known drawback: "without global
information, these methods may take a long time to converge and are not
practical … due to the cost in total moving distance, total number of
movements, and communication/computation".  This controller implements a
standard discretised virtual-force iteration so the extended benchmarks can
measure exactly that cost on the paper's scenarios.

Movement here is continuous (not cell-hop based), so the controller keeps its
own movement accounting instead of the per-process bookkeeping used by SR and
AR: one pseudo-process is opened per initial hole and marked converged when
that cell gains an enabled node, which makes the success-rate metric
comparable across schemes.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

import numpy as np

from repro._sums import sequential_sum
from repro.core.protocol import MobilityController, RoundOutcome
from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord
from repro.network.mobility import MoveRecord
from repro.network.node_arrays import HEAD_CODE
from repro.network.state import WsnState


#: Force coefficients: a stable, slowly converging iteration, which is the
#: behaviour the paper criticises.
REPULSION_GAIN = 1.0
ATTRACTION_GAIN = 2.0

#: Net forces and steps shorter than this (metres) do not move a node.
MINIMUM_STEP = 1e-3


class VirtualForceController(MobilityController):
    """Distributed virtual-force iteration.

    Its ranges follow the grid: two enabled nodes closer than one cell side
    repel each other, a vacant cell attracts spare nodes within three cell
    sides, and a node moves at most half a cell side per round.
    """

    name = "VF"

    def __init__(self) -> None:
        super().__init__()
        self._moves: List[MoveRecord] = []
        self._hole_process: Dict[GridCoord, int] = {}

    # ------------------------------------------------------------------ round
    def execute_round(
        self, state: WsnState, rng: random.Random, round_index: int
    ) -> RoundOutcome:
        """Run one force round: every spare moves one step along its net virtual force."""
        outcome = RoundOutcome(round_index=round_index)
        cell = state.grid.cell_size
        repulsion_range, attraction_range, max_step = cell, 3.0 * cell, cell / 2.0

        self._open_processes(state, round_index, outcome)

        grid = state.grid
        vacant_centers = [
            grid.cell_center(coord).as_tuple() for coord in state.vacant_cells()
        ]
        # One read of the enabled rows per round, in deployment order; the
        # force loop then works on plain floats.
        arrays = state.arrays
        rows = np.flatnonzero(arrays.enabled_mask())
        ids = arrays.node_ids[rows].tolist()
        xs = arrays.positions[rows, 0].tolist()
        ys = arrays.positions[rows, 1].tolist()
        # Heads stay put: removing a head would create a new hole, which no
        # virtual-force formulation intends.  Depleted nodes have no motor
        # power left and stay where they are.
        movable = (
            (arrays.role[rows] != HEAD_CODE) & (arrays.energy[rows] > 0.0)
        ).tolist()
        # Bucket the enabled nodes by repulsion range once per round so each
        # node only inspects its 3x3 bucket neighbourhood instead of every
        # other node (O(N * density) instead of O(N^2)).
        buckets = self._repulsion_buckets(xs, ys, repulsion_range)
        bounds = grid.bounds
        planned: List[tuple] = []
        for index, node_id in enumerate(ids):
            if not movable[index]:
                continue
            x, y = xs[index], ys[index]
            fx, fy = self._force_on(
                index, xs, ys, buckets, vacant_centers, repulsion_range, attraction_range
            )
            magnitude = math.hypot(fx, fy)
            if magnitude < MINIMUM_STEP:
                continue
            scale = min(max_step, magnitude) / magnitude
            target = bounds.clamp(Point(x + fx * scale, y + fy * scale))
            if math.hypot(target.x - x, target.y - y) < MINIMUM_STEP:
                continue
            planned.append((node_id, target))

        for node_id, target in planned:
            record = state.move_node(
                node_id,
                grid.cell_of(target),
                rng,
                round_index=round_index,
                target_position=target,
                enforce_adjacent=False,
            )
            self._moves.append(record)
            outcome.moves.append(record)

        self._close_processes(state, round_index, outcome)
        return outcome

    # ------------------------------------------------------------------ forces
    @staticmethod
    def _repulsion_buckets(
        xs: List[float], ys: List[float], repulsion_range: float
    ) -> Dict[tuple, List[int]]:
        """Spatial hash of the enabled nodes' indices with bucket side ``repulsion_range``.

        Any pair closer than the repulsion range lives in the same or an
        adjacent bucket, so the force computation only needs the 3x3 bucket
        neighbourhood of each node.
        """
        buckets: Dict[tuple, List[int]] = {}
        inverse = 1.0 / repulsion_range
        for index, (x, y) in enumerate(zip(xs, ys)):
            key = (math.floor(x * inverse), math.floor(y * inverse))
            buckets.setdefault(key, []).append(index)
        return buckets

    def _force_on(
        self,
        index: int,
        xs: List[float],
        ys: List[float],
        buckets: Dict[tuple, List[int]],
        vacant_centers: List[tuple],
        repulsion_range: float,
        attraction_range: float,
    ) -> tuple:
        """Net virtual force on enabled node ``index``: repulsion plus hole attraction."""
        x, y = xs[index], ys[index]
        fx = fy = 0.0
        inverse = 1.0 / repulsion_range
        bucket_x = math.floor(x * inverse)
        bucket_y = math.floor(y * inverse)
        for offset_x in (-1, 0, 1):
            for offset_y in (-1, 0, 1):
                for other in buckets.get((bucket_x + offset_x, bucket_y + offset_y), ()):
                    if other == index:
                        continue
                    dx = x - xs[other]
                    dy = y - ys[other]
                    distance = math.hypot(dx, dy)
                    if distance < 1e-9 or distance >= repulsion_range:
                        continue
                    strength = (
                        REPULSION_GAIN * (repulsion_range - distance) / repulsion_range
                    )
                    fx += strength * dx / distance
                    fy += strength * dy / distance
        for center_x, center_y in vacant_centers:
            dx = center_x - x
            dy = center_y - y
            distance = math.hypot(dx, dy)
            if distance < 1e-9 or distance > attraction_range:
                continue
            strength = ATTRACTION_GAIN * (attraction_range - distance) / attraction_range
            fx += strength * dx / distance
            fy += strength * dy / distance
        return fx, fy

    # -------------------------------------------------------------- processes
    def _open_processes(
        self, state: WsnState, round_index: int, outcome: RoundOutcome
    ) -> None:
        for hole in state.vacant_cells():
            if hole in self._hole_process:
                continue
            process = self._start_process(
                origin_cell=hole, initiator_cell=hole, round_index=round_index
            )
            self._hole_process[hole] = process.process_id
            outcome.processes_started.append(process.process_id)

    def _close_processes(
        self, state: WsnState, round_index: int, outcome: RoundOutcome
    ) -> None:
        for hole, process_id in list(self._hole_process.items()):
            process = self._processes[process_id]
            if process.is_active and not state.is_vacant(hole):
                process.mark_converged(round_index)
                outcome.processes_converged.append(process_id)
                del self._hole_process[hole]

    def finalize(self, state: WsnState, round_index: int) -> None:
        """Mark any still-active processes as failed at the end of the run."""
        for process in self._processes.values():
            if process.is_active:
                process.mark_failed(round_index)

    # ------------------------------------------------------------- accounting
    @property
    def total_moves(self) -> int:
        """Total number of force-step movements performed."""
        return len(self._moves)

    @property
    def total_distance(self) -> float:
        """Total distance (metres) moved across all force steps."""
        return sequential_sum(record.distance for record in self._moves)

    def movement_records(self) -> List[MoveRecord]:
        """All individual node movements performed by the iteration."""
        return list(self._moves)
