"""SR: the Hamilton-cycle-synchronised snake-like cascading replacement.

This is the paper's contribution (Algorithm 1, extended by Algorithm 2 for
the dual-path construction).  Every head monitors its successor cell along
the directed Hamilton cycle.  When the successor becomes vacant:

1. the head (node ``u``) is the *only* initiator for that vacancy — the
   synchronisation provided by the directed cycle guarantees one and only one
   replacement process per hole;
2. ``u`` sends one of its spare nodes into the vacant cell if it has one, and
   the process converges;
3. otherwise ``u`` itself moves into the vacant cell, notifies the head of
   its preceding grid, and the cascade continues from there in the next
   round — the snake-like cascading movement.

The controller is fully round-based: notifications sent in round ``t`` are
acted upon in round ``t + 1``, exactly as the paper's synchronisation model
assumes.

Cells are flat ids (``y * columns + x``) throughout the controller: holes
come from the state's vacancy index, initiators from the Hamilton
structure's tables, heads from the state's head list.  Processes, move
records and messages carry :class:`GridCoord` cells, taken from the grid's
coordinate list.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.core.hamilton import HamiltonCycle
from repro.core.protocol import (
    MobilityController,
    ProcessStatus,
    ReplacementProcess,
    RoundOutcome,
)
from repro.grid.virtual_grid import GridCoord
from repro.network.messages import Message
from repro.network.state import SPARE_SELECTIONS, WsnState


class HamiltonReplacementController(MobilityController):
    """The SR scheme of the paper (Algorithms 1 and 2).

    Parameters
    ----------
    cycle:
        The directed Hamilton structure threading the grid (serpentine cycle
        or the dual-path construction for odd-by-odd grids).
    max_hops:
        Safety bound on the number of cascading moves a single process may
        perform.  Defaults to the replacement path length ``L``; a converged
        process can never legitimately need more than ``L`` hops because the
        path visits every potential supplier cell exactly once.
    spare_selection:
        ``"nearest"`` (default) sends the spare closest to the vacant cell's
        centre; ``"random"`` picks a uniformly random spare, matching the
        loosest reading of the paper; ``"max_energy"`` sends the spare with
        the fullest battery (ties broken by distance, then id), so repeated
        replacement stops draining the same nearest node — the energy-aware
        policy of the lifetime workloads.
    activation_probability:
        Probability that a responsible head acts in a given round.  The
        default of 1.0 is the paper's round-based model; values below 1.0
        model the asynchronous relaxation mentioned in Section 2 ("all the
        schemes … can be extended easily to an asynchronous system"): heads
        wake up at independent random times, so a vacancy may wait a few
        rounds before its initiator reacts, but the recovery guarantee is
        unchanged.
    """

    name = "SR"

    def __init__(
        self,
        cycle: HamiltonCycle,
        max_hops: Optional[int] = None,
        spare_selection: str = "nearest",
        activation_probability: float = 1.0,
    ) -> None:
        super().__init__()
        if spare_selection not in SPARE_SELECTIONS:
            raise ValueError(
                f"spare_selection must be one of {list(SPARE_SELECTIONS)}, "
                f"got {spare_selection!r}"
            )
        if not 0.0 < activation_probability <= 1.0:
            raise ValueError(
                f"activation_probability must be in (0, 1], got {activation_probability}"
            )
        self.cycle = cycle
        self.max_hops = max_hops if max_hops is not None else cycle.replacement_path_length
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")
        self.spare_selection = spare_selection
        self.activation_probability = activation_probability
        #: Vacant cells (flat ids) currently being served, mapped to their
        #: process id.
        self._vacancy_process: Dict[int, int] = {}
        #: Cascade vacancies (flat ids) whose replacement request is still in
        #: flight.  A head only acts on a cascade vacancy once the
        #: notification has actually been delivered through the channel; on
        #: the default perfect channel delivery happens exactly one round
        #: after the move, which is precisely when the vacancy becomes
        #: actionable anyway.
        self._undelivered: Set[int] = set()

    # ------------------------------------------------------------------ round
    def execute_round(
        self, state: WsnState, rng: random.Random, round_index: int
    ) -> RoundOutcome:
        """Run one SR round: start processes for new holes and advance each cascade one hop."""
        outcome = RoundOutcome(round_index)
        self._service_retries(state, round_index, outcome)
        if not state.hole_count:
            return outcome
        cycle = self.cycle
        # Snapshot the holes visible at the start of the round.  New vacancies
        # created by this round's moves are only observable next round.  The
        # vacancy index makes this O(holes log holes) — round cost no longer
        # depends on the grid size.
        ordered = sorted(state.vacant_flat_cells(), key=cycle.index_table.__getitem__)
        initiator_table = cycle.initiator_table
        heads = state.cell_heads
        vacancy_process = self._vacancy_process
        processes = self._processes
        undelivered = self._undelivered
        active = ProcessStatus.ACTIVE
        acted_heads: Set[int] = set()

        for vacant in ordered:
            initiator = initiator_table[vacant]
            if initiator >= 0 and heads[initiator] is None:
                # The responsible head does not exist yet (its own cell is
                # also vacant); retry next round.  Tested first: in a dying
                # network most holes wait here.
                continue
            process_id = vacancy_process.get(vacant)
            if process_id is None:
                process = None
            else:
                process = processes[process_id]
                if process.status is not active:
                    # Served by a process that already finished (e.g.
                    # failed): leave the vacancy alone; the scheme has no
                    # spare to offer.
                    continue
                if vacant in undelivered:
                    # The cascade notification for this vacancy is still in
                    # the channel; nobody knows about it yet, so nobody may
                    # act.
                    continue
            if initiator < 0:
                origin = (
                    state.grid.flat_index(process.origin_cell)
                    if process is not None
                    else vacant
                )
                initiator = cycle.initiator_of(vacant, state.cell_counts, origin)
                if initiator is None:
                    continue
            head_id = heads[initiator]
            if head_id is None or initiator in acted_heads:
                # The responsible head does not exist yet or is busy this
                # round; retry next round.
                continue
            if (
                self.activation_probability < 1.0
                and rng.random() >= self.activation_probability
            ):
                # Asynchronous relaxation: this head did not wake up this round.
                continue
            if state.energy_of(head_id) <= 0.0:
                # A dead-battery head can neither move nor message; the
                # vacancy waits until the energy model disables the head and
                # a charged successor is elected.
                continue

            if process is None:
                coords = state.grid.coord_list()
                process = self._start_process(
                    origin_cell=coords[vacant],
                    initiator_cell=coords[initiator],
                    round_index=round_index,
                )
                vacancy_process[vacant] = process.process_id
                outcome.processes_started.append(process.process_id)

            self._serve_vacancy(
                state, rng, round_index, vacant, initiator, head_id, process, outcome
            )
            acted_heads.add(initiator)
        return outcome

    # ------------------------------------------------------------------ steps
    def _serve_vacancy(
        self,
        state: WsnState,
        rng: random.Random,
        round_index: int,
        vacant: int,
        initiator: int,
        head_id: int,
        process: ReplacementProcess,
        outcome: RoundOutcome,
    ) -> None:
        """One hop of Algorithm 1 for one vacancy (flat ids); ``head_id`` heads ``initiator``."""
        spare_id = state.select_spare_at(initiator, vacant, self.spare_selection, rng)
        if spare_id is not None:
            # Step 2: a spare exists — it fills the hole and the process converges.
            record = state.relocate(
                spare_id, vacant, rng, round_index, process.process_id
            )
            process.moves.append(record)
            outcome.moves.append(record)
            del self._vacancy_process[vacant]
            process.mark_converged(round_index)
            outcome.processes_converged.append(process.process_id)
            return

        # Step 3: no spare — the head notifies its own initiator and moves
        # itself into the vacant cell, leaving its cell vacant for the
        # cascading replacement.  The notification is sent after the move: a
        # head whose battery would be emptied by the transmission must still
        # complete the move it committed to this round.
        process.notifications_sent += 1
        outcome.messages_sent += 1
        record = state.relocate(head_id, vacant, rng, round_index, process.process_id)
        grid = state.grid
        notify_target = self.cycle.initiator_table[initiator]
        if notify_target < 0:
            notify_target = self.cycle.initiator_of(
                initiator, state.cell_counts, grid.flat_index(process.origin_cell)
            )
            if notify_target is None:
                notify_target = initiator
        # The hop that blows the budget ends the process, so its notification
        # is advisory: nobody will serve the abandoned vacancy, hence nothing
        # to acknowledge or retry.
        moves = process.moves
        final_hop = len(moves) + 1 >= self.max_hops
        coords = grid.coord_list()
        self._post_replacement_request(
            state,
            head_id,
            source_cell=coords[vacant],
            target_cell=coords[notify_target],
            vacancy=coords[initiator],
            process_id=process.process_id,
            round_index=round_index,
            reliable=not final_hop,
        )
        moves.append(record)
        outcome.moves.append(record)
        del self._vacancy_process[vacant]
        if final_hop:
            # The cascade visited every candidate supplier without finding a
            # spare: there is no spare left to find, so the process fails and
            # the remaining vacancy is left in place.
            self._vacancy_process[initiator] = process.process_id
            process.mark_failed(round_index)
            outcome.processes_failed.append(process.process_id)
            return
        self._vacancy_process[initiator] = process.process_id
        self._undelivered.add(initiator)

    # -------------------------------------------------------------- messaging
    def _reset_messaging_state(self) -> None:
        """Drop delivery gates from a previous run's channel (rebind hook)."""
        self._undelivered.clear()

    def _on_request_delivered(
        self, state: WsnState, message: Message, round_index: int
    ) -> None:
        """A cascade notification arrived: its vacancy becomes actionable.

        The gate only opens for the process that currently owns the vacancy:
        a stale retransmission from an earlier process that once served the
        same (since refilled and re-vacated) cell must not unlock a later
        process's still-undelivered notification.
        """
        vacancy = (message.payload or {}).get("vacancy")
        if vacancy is None:
            return
        # The payload carries the cell as an (x, y) tuple.
        try:
            flat = state.grid.flat_id(vacancy)
        except KeyError:
            return
        if self._vacancy_process.get(flat) == message.process_id:
            self._undelivered.discard(flat)

    def _on_request_abandoned(
        self,
        state: WsnState,
        key: Tuple[int, Tuple[int, int]],
        round_index: int,
        outcome: RoundOutcome,
    ) -> None:
        """Retry budget exhausted: the cascade can never continue, so it fails."""
        process_id, vacancy_tuple = key
        vacancy = state.grid.flat_id(vacancy_tuple)
        process = self._processes.get(process_id)
        if process is None or not process.is_active or vacancy not in self._undelivered:
            return
        self._undelivered.discard(vacancy)
        process.mark_failed(round_index)
        outcome.processes_failed.append(process_id)

    # -------------------------------------------------------------- lifecycle
    def is_quiescent(self, state: WsnState) -> bool:
        """The controller is idle when no active process still has a vacancy to serve."""
        return not any(
            self._processes[pid].is_active for pid in self._vacancy_process.values()
        ) and super().is_quiescent(state)

    def finalize(self, state: WsnState, round_index: int) -> None:
        """Mark processes that never converged as failed (engine shutdown hook)."""
        for process in self._processes.values():
            if process.is_active:
                process.mark_failed(round_index)

    def pending_vacancies(self) -> List[GridCoord]:
        """Vacant cells currently owned by an active process (for inspection)."""
        coords = self.cycle.grid.coord_list()
        return [
            coords[cell]
            for cell, pid in self._vacancy_process.items()
            if self._processes[pid].is_active
        ]
