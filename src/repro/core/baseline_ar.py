"""AR: the localized, unsynchronised cascading-replacement baseline.

The paper compares SR against the scheme of [3] (Jiang, Wu, Agah, Lu,
"Topology control for secured coverage in wireless sensor networks",
WSNS'07), which it calls AR and describes as "the best result known to date":
a localized control method based only on the 1-hop neighbourhood in which a
snake-like cascading replacement is initiated *whenever a vacant area is
detected*.  Because there is no synchronisation, **every** head adjacent to a
hole starts its own replacement process, so a single hole incurs multiple —
partly redundant — processes and extra node movements, and competing
processes can strand each other (the 10-20% failure rate in Figure 6(b)).

The original AR implementation is not publicly available, so this module is
a faithful reconstruction of the behaviour the paper relies on:

* every occupied 4-neighbour of a newly detected hole initiates a process;
* a process first tries to send a spare from its initiator cell; with no
  spare the head itself moves in, vacating its own cell, and the cascade
  continues from a neighbouring cell chosen with only 1-hop knowledge
  (preferring to keep moving in a straight line, never backtracking);
* processes acting in the same round cannot see each other's moves, so a
  hole may receive several replacement nodes at once (redundant moves);
* a process fails when its cascade dead-ends on vacant cells or the grid
  boundary, when it is starved by competing processes for too many rounds,
  or when it exceeds its hop budget.

See DESIGN.md ("AR reconstruction") for the mapping between these rules and
the claims made in Section 5 of the paper.

Like SR, the controller works on flat cell ids (``y * columns + x``): the
grid's neighbour table and the state's per-cell counts and heads.  Holes
are still announced in :class:`GridCoord` order, ``(x, y)``, and the
straight-line continuation is computed in ``(x, y)``; processes, move
records and messages carry :class:`GridCoord` cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.protocol import (
    MobilityController,
    ProcessStatus,
    ReplacementProcess,
    RoundOutcome,
)
from repro.grid.virtual_grid import VirtualGrid
from repro.network.state import SPARE_SELECTIONS, WsnState

#: The spare selections AR accepts: every state selection but ``"random"``.
AR_SPARE_SELECTIONS = tuple(
    selection for selection in SPARE_SELECTIONS if selection != "random"
)


@dataclass
class _CascadeState:
    """Controller-private bookkeeping for one AR process (cells are flat ids)."""

    target: int
    supplier: int
    #: Unit direction (dx, dy) of the last hop, used to prefer straight cascades.
    direction: Optional[Tuple[int, int]] = None
    stalls: int = 0
    #: Whether the request asking ``supplier`` to continue the cascade is
    #: still in the channel.  The process may not advance (and does not count
    #: stalls) until the request is delivered; on the default perfect channel
    #: delivery happens exactly one round after the hop, which is when the
    #: process would advance anyway.
    awaiting_delivery: bool = False


class LocalizedReplacementController(MobilityController):
    """The AR baseline: 1-hop, unsynchronised cascading replacement.

    Parameters
    ----------
    grid:
        The virtual grid the network lives on.
    max_hops:
        Hop budget per process; exceeding it marks the process failed.
        Defaults to the number of grid cells.
    stall_limit:
        Number of rounds a process may be starved (its supplier head busy
        serving another process) before it gives up.
    spare_selection:
        ``"nearest"`` (default) sends the spare closest to the target cell's
        centre; ``"max_energy"`` sends the fullest-battery spare (ties broken
        by distance, then id) — the energy-aware policy of the lifetime
        workloads.
    """

    name = "AR"

    def __init__(
        self,
        grid: VirtualGrid,
        max_hops: Optional[int] = None,
        stall_limit: int = 8,
        spare_selection: str = "nearest",
    ) -> None:
        super().__init__()
        self.grid = grid
        self.max_hops = max_hops if max_hops is not None else grid.cell_count
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")
        if stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1, got {stall_limit}")
        self.stall_limit = stall_limit
        if spare_selection not in AR_SPARE_SELECTIONS:
            raise ValueError(
                f"spare_selection must be one of {list(AR_SPARE_SELECTIONS)}, "
                f"got {spare_selection!r}"
            )
        self.spare_selection = spare_selection
        self._cascades: Dict[int, _CascadeState] = {}
        #: The processes still active at the last look, with their cascade
        #: state, in creation order; pruned every round, so a round never
        #: rescans finished ones.
        self._active: List[Tuple[ReplacementProcess, _CascadeState]] = []
        #: Original holes (flat ids) that already triggered their burst of
        #: processes.
        self._announced_holes: Set[int] = set()
        #: Vacancies created by cascading moves (owned by exactly one process).
        self._cascade_vacancies: Set[int] = set()
        #: Vacancies left behind by failed processes; never re-announced.
        self._abandoned: Set[int] = set()

    # ------------------------------------------------------------------ round
    def execute_round(
        self, state: WsnState, rng: random.Random, round_index: int
    ) -> RoundOutcome:
        """Run one AR round: heads detect adjacent holes and cascade 1-hop replacements."""
        outcome = RoundOutcome(round_index)
        self._service_retries(state, round_index, outcome)
        # O(holes) snapshot from the live vacancy index; no grid scan.
        vacant_snapshot = state.vacant_flat_cells()

        self._announce_new_holes(state, vacant_snapshot, round_index, outcome)

        acted_heads: Set[int] = set()
        active = ProcessStatus.ACTIVE
        self._active = [
            (process, cascade)
            for process, cascade in self._active
            if process.status is active
        ]
        # Shuffling the pairs draws what shuffling their ids would: the
        # draws depend only on the length.
        active = list(self._active)
        rng.shuffle(active)
        for process, cascade in active:
            if cascade.awaiting_delivery:
                # The request asking the next supplier to continue the
                # cascade is still in the channel; the process cannot
                # advance (and is not starving — no stall is counted) until
                # it is delivered.
                continue
            self._advance_process(
                state, rng, round_index, process, cascade, vacant_snapshot, acted_heads, outcome
            )
        return outcome

    # ------------------------------------------------------------- initiation
    def _announce_new_holes(
        self,
        state: WsnState,
        vacant_snapshot: FrozenSet[int],
        round_index: int,
        outcome: RoundOutcome,
    ) -> None:
        """Every occupied neighbour of a fresh hole starts its own process.

        Holes are announced in :class:`GridCoord` order — by ``x``, then
        ``y`` — which fixes the process ids; row-major flat order would not.
        """
        coords = self.grid.coord_list()
        neighbour_table = self.grid.neighbour_table
        counts = state.cell_counts
        announced = self._announced_holes
        cascade_vacancies = self._cascade_vacancies
        abandoned = self._abandoned
        fresh = [
            hole
            for hole in vacant_snapshot
            if hole not in announced
            and hole not in cascade_vacancies
            and hole not in abandoned
        ]
        for hole in sorted(fresh, key=coords.__getitem__):
            occupied_neighbours = [
                neighbour for neighbour in neighbour_table[hole] if counts[neighbour]
            ]
            if not occupied_neighbours:
                # Nobody can see the hole yet; it may be announced later once
                # a neighbouring cell gains a head again.
                continue
            self._announced_holes.add(hole)
            for neighbour in occupied_neighbours:
                process = self._start_process(
                    origin_cell=coords[hole],
                    initiator_cell=coords[neighbour],
                    round_index=round_index,
                )
                cascade = _CascadeState(target=hole, supplier=neighbour)
                self._cascades[process.process_id] = cascade
                self._active.append((process, cascade))
                outcome.processes_started.append(process.process_id)

    # -------------------------------------------------------------- cascading
    def _advance_process(
        self,
        state: WsnState,
        rng: random.Random,
        round_index: int,
        process: ReplacementProcess,
        cascade: _CascadeState,
        vacant_snapshot: FrozenSet[int],
        acted_heads: Set[int],
        outcome: RoundOutcome,
    ) -> None:
        """One round of one process that is not waiting on its cascade request."""
        process_id = process.process_id
        target = cascade.target
        counts = state.cell_counts
        if target not in vacant_snapshot and counts[target]:
            # Another process filled the target in a *previous* round; this
            # process aborts.  It is redundant work typical of AR, but it did
            # not fail to find a spare, so it does not count against the
            # success rate.
            process.mark_converged(round_index)
            outcome.processes_converged.append(process_id)
            return

        supplier = cascade.supplier
        if not counts[supplier]:
            # The supplier lost its nodes (e.g. another cascade pulled them
            # away): with only 1-hop knowledge the process cannot recover.
            self._fail(process, cascade, round_index, outcome)
            return
        if supplier in acted_heads:
            cascade.stalls += 1
            if cascade.stalls > self.stall_limit:
                self._fail(process, cascade, round_index, outcome)
            return

        head_id = state.cell_heads[supplier]
        if state.energy_of(head_id) <= 0.0:
            # A dead-battery head can neither move nor message; with 1-hop
            # knowledge the process can only wait (and eventually starve) —
            # under the energy model the head is disabled next round and a
            # charged successor takes over.
            cascade.stalls += 1
            if cascade.stalls > self.stall_limit:
                self._fail(process, cascade, round_index, outcome)
            return
        acted_heads.add(supplier)
        spare_id = state.select_spare_at(supplier, target, self.spare_selection)
        if spare_id is not None:
            record = state.relocate(spare_id, target, rng, round_index, process_id)
            process.moves.append(record)
            outcome.moves.append(record)
            self._cascade_vacancies.discard(target)
            process.mark_converged(round_index)
            outcome.processes_converged.append(process_id)
            return

        # No spare: the head itself moves into the target, vacating its cell.
        # The notification is sent after the move so a transmission charge
        # that empties the battery cannot abort the move the head committed
        # to this round.
        process.notifications_sent += 1
        outcome.messages_sent += 1
        record = state.relocate(head_id, target, rng, round_index, process_id)
        moves = process.moves
        moves.append(record)
        outcome.moves.append(record)
        self._cascade_vacancies.discard(target)
        coords = self.grid.coord_list()

        if len(moves) >= self.max_hops:
            cascade.target = supplier
            # The hop budget is blown: the head still announces the vacancy
            # it left behind, but the process is over, so the notification is
            # advisory (never retried, delivery gates nothing).
            self._post_replacement_request(
                state,
                head_id,
                source_cell=coords[target],
                target_cell=coords[supplier],
                vacancy=coords[supplier],
                process_id=process_id,
                round_index=round_index,
                reliable=False,
            )
            self._fail(process, cascade, round_index, outcome)
            return

        next_supplier, direction = self._choose_next_supplier(
            state, supplier, came_from=target, direction=cascade.direction, rng=rng
        )
        cascade.target = supplier
        self._cascade_vacancies.add(supplier)
        if next_supplier is None:
            # Dead end: every usable neighbour is vacant or would backtrack.
            self._post_replacement_request(
                state,
                head_id,
                source_cell=coords[target],
                target_cell=coords[supplier],
                vacancy=coords[supplier],
                process_id=process_id,
                round_index=round_index,
                reliable=False,
            )
            self._fail(process, cascade, round_index, outcome)
            return
        cascade.supplier = next_supplier
        cascade.direction = direction
        cascade.stalls = 0
        self._post_replacement_request(
            state,
            head_id,
            source_cell=coords[target],
            target_cell=coords[next_supplier],
            vacancy=coords[supplier],
            process_id=process_id,
            round_index=round_index,
        )
        cascade.awaiting_delivery = True

    def _choose_next_supplier(
        self,
        state: WsnState,
        vacated: int,
        came_from: int,
        direction: Optional[Tuple[int, int]],
        rng: random.Random,
    ) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
        """Pick the neighbouring cell (flat id) the cascade pulls from next.

        Prefers continuing in a straight line (the snake keeps its heading),
        never backtracks into the cell it just filled, and only considers
        occupied cells because a vacant cell has no head to ask.  The
        straight-line cell is computed in ``(x, y)``: flat arithmetic would
        wrap across rows.
        """
        coords = self.grid.coord_list()
        vacated_x, vacated_y = coords[vacated]
        came_x, came_y = coords[came_from]
        straight_x = 2 * vacated_x - came_x
        straight_y = 2 * vacated_y - came_y
        counts = state.cell_counts
        candidates = [
            neighbour
            for neighbour in self.grid.neighbour_table[vacated]
            if neighbour != came_from and counts[neighbour]
        ]
        if not candidates:
            return None, None
        for neighbour in candidates:
            if coords[neighbour] == (straight_x, straight_y):
                chosen = neighbour
                break
        else:
            chosen = candidates[rng.randrange(len(candidates))]
        chosen_x, chosen_y = coords[chosen]
        return chosen, (vacated_x - chosen_x, vacated_y - chosen_y)

    # -------------------------------------------------------------- messaging
    def _reset_messaging_state(self) -> None:
        """Drop delivery gates from a previous run's channel (rebind hook)."""
        for cascade in self._cascades.values():
            cascade.awaiting_delivery = False

    def _on_request_delivered(
        self, state: WsnState, message, round_index: int
    ) -> None:
        """The next supplier heard about the cascade: the process may advance."""
        if message.process_id is None:
            return
        cascade = self._cascades.get(message.process_id)
        if cascade is None or not cascade.awaiting_delivery:
            return
        vacancy = (message.payload or {}).get("vacancy")
        target_cell = self.grid.coord_at(cascade.target)
        if vacancy is not None and tuple(vacancy) != target_cell.as_tuple():
            # A late duplicate (retransmission) of an *earlier* hop's request:
            # it must not open the gate for the current hop, whose own
            # notification may still be in flight or lost.
            return
        cascade.awaiting_delivery = False

    def _on_request_abandoned(
        self, state: WsnState, key, round_index: int, outcome: RoundOutcome
    ) -> None:
        """Retry budget exhausted: with 1-hop knowledge the process cannot recover.

        Only the request gating the *current* hop can doom the process: an
        exhausted entry for an earlier hop (delivered long ago, but its
        acknowledgements kept getting lost) says nothing about the cascade's
        viability.
        """
        process = self._processes.get(key[0])
        cascade = self._cascades.get(key[0])
        if process is None or cascade is None or not process.is_active:
            return
        if cascade.awaiting_delivery and key[1] == self.grid.coord_at(cascade.target):
            cascade.awaiting_delivery = False
            self._fail(process, cascade, round_index, outcome)

    def _fail(
        self,
        process: ReplacementProcess,
        cascade: _CascadeState,
        round_index: int,
        outcome: RoundOutcome,
    ) -> None:
        process.mark_failed(round_index)
        outcome.processes_failed.append(process.process_id)
        self._cascade_vacancies.discard(cascade.target)
        self._abandoned.add(cascade.target)

    # -------------------------------------------------------------- lifecycle
    def finalize(self, state: WsnState, round_index: int) -> None:
        """Mark still-active processes as failed when the engine stops."""
        for process in self._processes.values():
            if process.is_active:
                process.mark_failed(round_index)

    @property
    def redundant_processes(self) -> int:
        """Processes that converged without moving anything (aborted as redundant)."""
        return sum(
            1 for p in self._processes.values() if p.converged and p.move_count == 0
        )
