"""Movement model for replacement moves.

Section 4 ("Implementation Issue") specifies how a node moves during a
replacement: it goes straight to a point in the *central area* of the target
cell.  For an ``r x r`` cell the central area is the middle ``r/2 x r/2``
square, so a single hop covers at least ``r/4`` and at most ``sqrt(58)/4 * r``
metres; the paper uses ``1.08 * r`` as the average per-hop distance in its
estimates (Figure 5).
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from repro.grid.geometry import Point
from repro.grid.virtual_grid import (
    AVERAGE_MOVE_FACTOR,
    GridCoord,
    VirtualGrid,
    move_distance_bounds,
)
from repro.network.node import MOVE_COST_PER_METER

#: The constructor ``NamedTuple._make`` uses.  A drawn target point is built
#: through it from its field values, at under half the cost of the generated
#: ``__new__``; the point is the same.
_new_tuple = tuple.__new__


class MoveRecord(NamedTuple):
    """One completed relocation of a node between two cells.

    A named tuple, like :class:`~repro.grid.virtual_grid.GridCoord`: every
    replacement move builds one, and a positional tuple build costs a
    fraction of a frozen dataclass's.  It is immutable and takes keyword
    arguments too.
    """

    node_id: int
    source_cell: GridCoord
    target_cell: GridCoord
    source_position: Point
    target_position: Point
    distance: float
    round_index: int
    process_id: Optional[int] = None

    @property
    def is_cascading(self) -> bool:
        """Whether the move vacated its source cell as part of a cascade."""
        return self.process_id is not None


class MovementModel:
    """Chooses the target positions of replacement moves and prices them.

    The move itself — position, accounting, and energy written by row — is
    the state's one relocation routine, reached through
    :meth:`repro.network.state.WsnState.move_node` or the controllers'
    :meth:`repro.network.state.WsnState.relocate`.
    """

    def __init__(
        self,
        grid: VirtualGrid,
        move_cost_per_meter: float = MOVE_COST_PER_METER,
    ) -> None:
        if move_cost_per_meter < 0:
            raise ValueError(
                f"move_cost_per_meter must be non-negative, got {move_cost_per_meter}"
            )
        self._grid = grid
        self._move_cost_per_meter = move_cost_per_meter
        # The grid's geometry tables, read by every draw.
        self._columns = grid.columns
        self._column_spans = grid.column_spans
        self._row_spans = grid.row_spans

    @property
    def grid(self) -> VirtualGrid:
        """The virtual grid movements are validated against."""
        return self._grid

    @property
    def move_cost_per_meter(self) -> float:
        """Energy debited per metre moved (joules/metre)."""
        return self._move_cost_per_meter

    def with_move_cost(self, move_cost_per_meter: float) -> "MovementModel":
        """Copy of this model with a different move rate."""
        return MovementModel(self._grid, move_cost_per_meter=move_cost_per_meter)

    @property
    def average_hop_distance(self) -> float:
        """The paper's average per-hop distance estimate, ``1.08 * r``."""
        return AVERAGE_MOVE_FACTOR * self._grid.cell_size

    @property
    def hop_distance_bounds(self) -> tuple:
        """(min, max) possible per-hop distance for this grid's cell size."""
        return move_distance_bounds(self._grid.cell_size)

    def choose_target_position(self, target_cell: GridCoord, rng: random.Random) -> Point:
        """Random point in the central area of ``target_cell``.

        "Each movement of node u from one grid to its neighbour will randomly
        select the destination location in the central area of the target
        grid" (Section 5).
        """
        grid = self._grid
        return self._draw_target(grid.flat_index(grid.validate_coord(target_cell)), rng)

    def _draw_target(self, target: int, rng: random.Random) -> Point:
        """:meth:`choose_target_position` for flat cell id ``target``, known to be on the grid.

        Draws x, then y, from ``rng``, uniformly over the central area — the
        draw order and float expressions every recorded run depends on.
        """
        y, x = divmod(target, self._columns)
        xs = self._column_spans[x]
        ys = self._row_spans[y]
        return _new_tuple(
            Point,
            (
                xs.central_low + rng.random() * (xs.central_high - xs.central_low),
                ys.central_low + rng.random() * (ys.central_high - ys.central_low),
            ),
        )
