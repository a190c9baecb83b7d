"""Short-cut SR: the paper's stated future work, implemented as an extension.

Section 5 closes with: "A short-cut along the Hamilton cycle can reduce the
length of the path for replacement process to approach a spare node.  The
construction of such a short-cut will be our future work to further increase
the convergence speed of SR.  As a result, the cost of SR will be reduced
greatly in the cases when N < 55."

This module implements the most natural such short-cut that still only uses
1-hop information: before a head extends the cascade *along the cycle* (which
may have to walk a long way before it meets a spare), it first asks its
physical 4-neighbourhood.  If any neighbouring cell holds a spare, that spare
is pulled in directly and the process converges — a one-hop short-cut across
the Hamilton path.  The synchronisation property is untouched: the vacancy is
still served by its unique cycle initiator; only the *supplier* of the
replacement node may come from a neighbouring cell instead of from further
up the path.

The ablation benchmark (``benchmarks/bench_ablation_extensions.py``) compares
plain SR against this variant in the sparse regime the paper highlights.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.hamilton import HamiltonCycle
from repro.core.protocol import ReplacementProcess, RoundOutcome
from repro.core.replacement import HamiltonReplacementController
from repro.network.state import WsnState


class ShortcutReplacementController(HamiltonReplacementController):
    """SR with a 1-hop short-cut across the Hamilton path.

    Behaviour is identical to :class:`HamiltonReplacementController` except in
    Algorithm 1's step 3: when the initiator head has no spare of its own, it
    first looks for a spare in the cells adjacent to the *vacant* cell.  If
    one exists, that spare moves in directly and the process converges without
    extending the snake.  Only when no adjacent cell can help does the cascade
    continue along the directed Hamilton path as in plain SR.  A replacement
    move is a single hop, so only the cells adjacent to the vacancy can
    supply.
    """

    name = "SR-shortcut"

    def __init__(
        self,
        cycle: HamiltonCycle,
        max_hops: Optional[int] = None,
        spare_selection: str = "nearest",
    ) -> None:
        super().__init__(cycle, max_hops=max_hops, spare_selection=spare_selection)
        self.shortcut_moves = 0

    # ------------------------------------------------------------------ hooks
    def _find_shortcut_supplier(self, state: WsnState, vacant: int) -> Optional[int]:
        """The adjacent cell (flat id) to pull a spare from, or ``None`` when none has one.

        Deterministic preference: the cell with the most usable spares, ties
        broken towards the smaller coordinates (x first), so repeated runs
        stay reproducible.
        """
        coords = state.grid.coord_list()
        best = None
        best_key = None
        for cell in state.grid.neighbour_table[vacant]:
            usable = len(state.usable_spares_at(cell))
            if usable:
                x, y = coords[cell]
                key = (usable, -x, -y)
                if best_key is None or key > best_key:
                    best, best_key = cell, key
        return best

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
        # Step 2 of Algorithm 1 is unchanged: a usable (non-depleted) spare in
        # the initiator cell always wins (it is also a 1-hop move and needs no
        # extra messages).
        if state.usable_spares_at(initiator):
            super()._serve_vacancy(
                state, rng, round_index, vacant, initiator, head_id, process, outcome
            )
            return

        shortcut_cell = self._find_shortcut_supplier(state, vacant)
        if shortcut_cell is None or shortcut_cell == initiator:
            super()._serve_vacancy(
                state, rng, round_index, vacant, initiator, head_id, process, outcome
            )
            return

        # Short-cut: pull the spare straight from the neighbouring cell.  The
        # initiator still coordinates the repair (one notification), so the
        # one-process-per-hole property is preserved.  The notification is
        # advisory — the spare dispatch itself carries the command — so it is
        # fire-and-forget on every channel and never gates the move.
        spare_id = state.select_spare_at(shortcut_cell, vacant, self.spare_selection, rng)
        assert spare_id is not None
        process.notifications_sent += 1
        outcome.messages_sent += 1
        coords = state.grid.coord_list()
        self._post_replacement_request(
            state,
            head_id,
            source_cell=coords[initiator],
            target_cell=coords[shortcut_cell],
            vacancy=coords[vacant],
            process_id=process.process_id,
            round_index=round_index,
            reliable=False,
        )
        record = state.relocate(spare_id, vacant, rng, round_index, process.process_id)
        process.moves.append(record)
        outcome.moves.append(record)
        self.shortcut_moves += 1
        del self._vacancy_process[vacant]
        process.mark_converged(round_index)
        outcome.processes_converged.append(process.process_id)
