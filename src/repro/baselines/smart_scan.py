"""SMART-style scan-based balancing (extension baseline).

SMART (Wu & Yang, INFOCOM 2005) balances the number of sensors per virtual
grid cell with two sweeps: first every *row* of the grid is balanced by
shifting nodes between adjacent cells, then every *column*.  After both
sweeps each cell holds either ``floor(avg)`` or ``ceil(avg)`` nodes, so
whenever the network has at least as many nodes as cells every cell ends up
covered.  The paper's criticism (Section 1) is that this "requires node
adjustments in the entire grid network, causing many unnecessary node
movements just for providing the coverage for a single hole" — this
controller reproduces that behaviour so the extended benchmarks can measure
it.

The balancing plan is computed from prefix sums (the classic token
redistribution argument): along a line of cells with counts ``c_1..c_k`` and
targets ``w_1..w_k``, the number of nodes that must cross the boundary
between cell ``i`` and ``i+1`` equals ``t_i = sum_{j<=i} (c_j - w_j)``
(positive values flow forwards, negative backwards).  The controller executes
that plan one cell-hop per node per round, which yields both the move count
and the moving distance of the scheme.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro._sums import sequential_sum
from repro.core.protocol import MobilityController, RoundOutcome
from repro.grid.virtual_grid import GridCoord
from repro.network.state import WsnState


class SmartScanController(MobilityController):
    """Row-then-column scan balancing of per-cell node counts."""

    name = "SMART"

    def __init__(self) -> None:
        super().__init__()
        self._hole_process: Dict[GridCoord, int] = {}
        self._phase = "rows"  # rows -> columns -> done
        self._all_moves: List = []

    # ------------------------------------------------------------------ round
    def execute_round(
        self, state: WsnState, rng: random.Random, round_index: int
    ) -> RoundOutcome:
        """Run one balancing round: advance the row phase, then the column phase."""
        outcome = RoundOutcome(round_index=round_index)
        self._open_processes(state, round_index, outcome)

        transfers = self._phase_transfers(state)
        if not transfers and self._phase == "rows":
            self._phase = "columns"
            transfers = self._phase_transfers(state)
        if not transfers and self._phase == "columns":
            self._phase = "done"

        for source, target in transfers:
            mover = self._pick_mover(state, source, target)
            if mover is None:
                continue
            record = state.move_node(
                mover, target, rng, round_index=round_index, process_id=None
            )
            outcome.moves.append(record)
            self._all_moves.append(record)
            # Attribute the move to the process of the hole being filled, when
            # the destination is (or was) one of the tracked holes.
            process_id = self._hole_process.get(target)
            if process_id is not None and self._processes[process_id].is_active:
                self._processes[process_id].moves.append(record)

        self._close_processes(state, round_index, outcome)
        return outcome

    def is_quiescent(self, state: WsnState) -> bool:
        """Whether both balancing phases finished and no process is active."""
        return self._phase == "done" and super().is_quiescent(state)

    # ------------------------------------------------------------------ plans
    def _phase_transfers(self, state: WsnState) -> List[tuple]:
        """One round's worth of adjacent-cell transfers for the current phase."""
        grid = state.grid
        transfers: List[tuple] = []
        if self._phase == "rows":
            lines = [grid.row(y) for y in range(grid.rows)]
        elif self._phase == "columns":
            lines = [grid.column(x) for x in range(grid.columns)]
        else:
            return transfers
        for line in lines:
            transfers.extend(self._line_transfers(state, line))
        return transfers

    @staticmethod
    def _line_transfers(state: WsnState, line: List[GridCoord]) -> List[tuple]:
        """Boundary flows for one row/column, limited to one node per boundary per round.

        Balancing is inherently a whole-line computation, but each per-cell
        count is an O(1) read of the occupancy index.
        """
        counts = [state.member_count(coord) for coord in line]
        total = sum(counts)
        k = len(line)
        base, remainder = divmod(total, k)
        # Cells at the end of the line take the extra nodes, as in SMART's
        # "give the remainder to the highest-indexed groups" convention.
        targets = [base + (1 if index >= k - remainder else 0) for index in range(k)]
        transfers: List[tuple] = []
        running = 0
        for index in range(k - 1):
            running += counts[index] - targets[index]
            if running > 0 and counts[index] > 0:
                transfers.append((line[index], line[index + 1]))
            elif running < 0 and counts[index + 1] > 0:
                transfers.append((line[index + 1], line[index]))
        return transfers

    @staticmethod
    def _pick_mover(state: WsnState, source: GridCoord, target: GridCoord) -> Optional[int]:
        """Prefer moving a usable spare; fall back to the head otherwise.

        The spare is :meth:`WsnState.select_spare_at`'s ``"nearest"`` pick:
        battery left, closest to the target cell's centre, ties by id.
        Battery-depleted nodes cannot move and are never picked — so the head
        also moves when every remaining spare in the cell is depleted, not
        only when it is literally the last node.
        """
        grid = state.grid
        source_flat = grid.flat_index(source)
        mover = state.select_spare_at(source_flat, grid.flat_index(target), "nearest")
        if mover is None:
            head_id = state.cell_heads[source_flat]
            if head_id is not None and state.energy_of(head_id) > 0.0:
                mover = head_id
        return mover

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
    # Balancing moves the whole network around, so — unlike SR/AR — the cost
    # metrics must count every transfer, not only the ones that end in a hole.
    @property
    def total_moves(self) -> int:
        """Total number of node transfers performed (every balancing move counts)."""
        return len(self._all_moves)

    @property
    def total_distance(self) -> float:
        """Total distance (metres) moved across all balancing transfers."""
        return sequential_sum(record.distance for record in self._all_moves)

    def movement_records(self) -> List:
        """All balancing transfers performed so far."""
        return list(self._all_moves)
