"""Mutable network state: which node is where, and who is head.

:class:`WsnState` is the single source of truth the mobility-control
algorithms operate on.  It keeps the per-cell membership index and the grid
head assignment consistent across node failures and replacement moves, and it
enforces the virtual-grid invariants of Section 2:

* every cell with at least one enabled node has exactly one head,
* a vacant cell (no enabled node) has no head,
* the head of a cell is always one of the enabled nodes located in that cell.

Node storage is struct-of-arrays: the state takes one
:class:`~repro.network.node_arrays.NodeArrays` store (``self.arrays``) and
owns it, and :class:`~repro.network.node.SensorNode` objects handed out by
:meth:`node`, :meth:`members_of`, etc. are cached, read-only *handles*:
views of array rows.  The vectorized paths — adjacency construction,
deployment, the per-round energy sweep, coverage — read the arrays directly,
and the replacement hot path (:meth:`move_node`, head elections, the
id-level reads such as :meth:`head_id_of`) and the VF and SMART baselines
work on node ids and rows without creating handles.  All of them stay
bit-for-bit equivalent to the former array-of-objects implementation (see
the golden seed-identity test).

The per-round queries every controller depends on — holes, spares,
occupancy — are served from *incremental indices* maintained by the three
mutation paths (:meth:`WsnState.disable_rows`, behind
:meth:`WsnState.disable_nodes` and the energy sweep;
:meth:`WsnState.enable_node`; and the one relocation routine behind
:meth:`WsnState.move_node` and :meth:`WsnState.relocate`).  Every index
addresses a cell by its *flat id* (``y * columns + x``, the value
``arrays.cell`` stores):

* ``_cell_members`` — per-cell **sorted** lists of enabled node ids, so
  :meth:`members_of` iterates deterministically without re-sorting;
* ``_occupancy`` — per-cell enabled-node counters;
* ``_heads`` — per-cell head node id, ``None`` for a vacant cell;
* ``_vacant`` — the live set of vacant flat ids, making :attr:`hole_count`
  O(1) and :meth:`vacant_cells` O(holes);
* ``_spare_total`` — the running network-wide spare count, making
  :attr:`spare_count` O(1);
* ``arrays.cell`` — the flat cell index of every node, kept in lock-step
  with the node's position by the relocation routine.

Beside them, ``_enabled_rows`` holds the ascending rows of the enabled
nodes, read-only, which the per-round energy sweep gathers over
(:meth:`enabled_rows`).  It is built on first use and replaced or dropped
by the two paths that change the ``state`` column; moves keep it.

The coordinate queries (:meth:`members_of`, :meth:`head_of`, ...) convert
their :class:`GridCoord` once and keep their return types and errors.  The
replacement controllers read the flat form directly: :attr:`cell_heads`,
:attr:`cell_counts`, :meth:`vacant_flat_cells`, :meth:`usable_spares_at`
and :meth:`select_spare_at`, and they move nodes with :meth:`relocate`.

Round cost therefore scales with the number of holes and moves, not with the
``m*n`` grid size.  :meth:`check_invariants` is the oracle for this contract:
it rebuilds every index from scratch from the arrays and asserts the
incremental copies (including the cell column) agree (see DESIGN.md, "The
state-index contract").

:meth:`WsnState.to_bytes` is the state's byte image: the grid geometry plus
every node column.  Tests and benchmarks compare states by it; nothing
rebuilds a state from it.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import insort
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.grid.geometry import Point
from repro.grid.head_election import HeadElectionPolicy, elect_head, lowest_id_policy
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.mobility import MovementModel, MoveRecord
from repro.network.node import ROLE_BY_CODE, STATE_CODES, NodeState, SensorNode
from repro.network.node_arrays import (
    ENABLED_CODE,
    HEAD_CODE,
    SPARE_CODE,
    UNASSIGNED_CODE,
    NodeArrays,
)

#: Version of the :meth:`WsnState.to_bytes` layout (grid header +
#: :meth:`NodeArrays.to_bytes` buffer).  Bump on any header change.
STATE_SNAPSHOT_VERSION = 1

#: ``struct`` format of the state header: layout version, grid columns/rows,
#: cell side, and the grid origin coordinates.
_SNAPSHOT_HEADER_FORMAT = "<IIIddd"

#: The constructor ``NamedTuple._make`` uses.  A move's record and source
#: point are built through it from their field values, at under half the cost
#: of the generated ``__new__``; the records are the same.
_new_tuple = tuple.__new__

#: The spare selections :meth:`WsnState.select_spare_at` knows; the
#: controllers validate their ``spare_selection`` against it when built.
SPARE_SELECTIONS = ("nearest", "max_energy", "random")


def _validate_population(grid: VirtualGrid, arrays: NodeArrays) -> None:
    """Reject ragged columns, duplicate ids and positions outside the area.

    Every column must hold one entry per id (``positions`` one ``(x, y)``
    pair).  Then whichever offence appears first in deployment order is
    reported, as the per-node validation loop of the array-of-objects
    implementation did (duplicate-id checks ran before bounds checks for
    each node).  A non-finite coordinate lies outside the area.
    """
    arrays.check_shapes()
    node_ids = arrays.node_ids
    order = np.argsort(node_ids, kind="stable")
    sorted_ids = node_ids[order]
    duplicate_rows = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
    first_duplicate = int(duplicate_rows.min()) if len(duplicate_rows) else None

    bounds = grid.bounds
    xs = arrays.positions[:, 0]
    ys = arrays.positions[:, 1]
    tolerance = 1e-9
    outside = (
        ~(np.isfinite(xs) & np.isfinite(ys))
        | (xs < bounds.min_x - tolerance)
        | (xs > bounds.max_x + tolerance)
        | (ys < bounds.min_y - tolerance)
        | (ys > bounds.max_y + tolerance)
    )
    first_outside = int(np.argmax(outside)) if outside.any() else None

    if first_duplicate is not None and (
        first_outside is None or first_duplicate <= first_outside
    ):
        raise ValueError(f"duplicate node id {int(node_ids[first_duplicate])}")
    if first_outside is not None:
        raise ValueError(
            f"node {int(node_ids[first_outside])} at "
            f"({float(xs[first_outside])}, {float(ys[first_outside])}) lies outside "
            "the surveillance area"
        )


class WsnState:
    """The deployed network projected onto the virtual grid.

    Parameters
    ----------
    grid:
        The virtual grid partition of the surveillance area.
    nodes:
        All deployed nodes (enabled and disabled) as a :class:`NodeArrays`
        store, from a deployment generator or
        :meth:`NodeArrays.from_positions`; anything else raises
        :class:`TypeError`.  The state owns the store from then on: it
        writes the cell and role columns, and every later change goes
        through its methods.  Node ids must be unique and positions finite
        and inside the surveillance area.  To build two states from one
        deployment, pass ``arrays.copy()`` to one of them.
    head_policy:
        Election policy used whenever a cell needs a (new) head.
    movement_model:
        Movement model used by :meth:`move_node`; defaults to central-area
        targeting on the same grid.
    """

    def __init__(
        self,
        grid: VirtualGrid,
        nodes: NodeArrays,
        head_policy: Optional[HeadElectionPolicy] = None,
        movement_model: Optional[MovementModel] = None,
    ) -> None:
        if not isinstance(nodes, NodeArrays):
            raise TypeError(
                f"WsnState takes a NodeArrays population, not {type(nodes).__name__}; "
                "build one with a deploy_* generator or NodeArrays.from_positions"
            )
        _validate_population(grid, nodes)
        self.grid = grid
        self._head_policy = head_policy or lowest_id_policy
        self.movement_model = movement_model or MovementModel(grid)
        self._handles: Dict[int, SensorNode] = {}
        self._enabled_rows: Optional[np.ndarray] = None
        self.arrays = arrays = nodes
        arrays.cell[:] = grid.cell_indices(
            arrays.positions[:, 0], arrays.positions[:, 1]
        )
        self._rebuild_indices_from_arrays()
        self.elect_all_heads()

    # ---------------------------------------------------- vectorized index init
    def _rebuild_indices_from_arrays(self) -> None:
        """Build membership/occupancy/vacancy indices in a few array passes."""
        arrays = self.arrays
        cell_count = self.grid.cell_count
        mask = arrays.enabled_mask()
        enabled_cells = arrays.cell[mask]
        enabled_ids = arrays.node_ids[mask]
        counts = np.bincount(enabled_cells, minlength=cell_count)
        # Build the counters in one pass instead of node by node so the
        # vacant set is allocated at its true size: a set pre-seeded with all
        # m*n cells and then discarded down never shrinks its hash table, and
        # every later iteration of it (vacant_cells is a per-round query)
        # would silently stay O(m*n).
        self._occupancy: List[int] = counts.tolist()
        self._vacant: Set[int] = set(np.flatnonzero(counts == 0).tolist())
        self._enabled_total = int(mask.sum())
        occupied_cells = cell_count - len(self._vacant)
        self._spare_total = self._enabled_total - occupied_cells
        self._cell_members: List[List[int]] = [[] for _ in range(cell_count)]
        if len(enabled_ids):
            grouping = np.lexsort((enabled_ids, enabled_cells))
            sorted_cells = enabled_cells[grouping]
            sorted_ids = enabled_ids[grouping].tolist()
            boundaries = np.flatnonzero(sorted_cells[1:] != sorted_cells[:-1]) + 1
            starts = np.concatenate(([0], boundaries)).tolist()
            ends = np.concatenate((boundaries, [len(sorted_cells)])).tolist()
            group_cells = sorted_cells[np.array(starts, dtype=np.int64)].tolist()
            cell_members = self._cell_members
            for flat, start, end in zip(group_cells, starts, ends):
                cell_members[flat] = sorted_ids[start:end]

    # ------------------------------------------------------ cell conversion
    def _flat_of(self, coord: GridCoord) -> int:
        """Flat id of ``coord``; :class:`ValueError` off the grid (the public range check)."""
        return self.grid.flat_index(self.grid.validate_coord(coord))

    # ------------------------------------------------------------------ nodes
    def node(self, node_id: int) -> SensorNode:
        """Handle for a node by id (:class:`KeyError` if unknown).

        Handles are created lazily and cached, so repeated lookups return the
        identical object (callers may compare by identity, as before).
        """
        handle = self._handles.get(node_id)
        if handle is None:
            handle = SensorNode(self.arrays, self.arrays.row_of(node_id))
            self._handles[node_id] = handle
        return handle

    def nodes(self) -> Iterator[SensorNode]:
        """All deployed nodes, enabled or not, in deployment order."""
        return (self.node(node_id) for node_id in self.arrays.node_ids.tolist())

    def enabled_node_ids(self) -> List[int]:
        """Ids of all enabled nodes, in deployment order (no handle creation)."""
        return self.arrays.node_ids[self.arrays.enabled_mask()].tolist()

    def enabled_nodes(self) -> List[SensorNode]:
        """All nodes currently participating in the collaboration."""
        return [self.node(node_id) for node_id in self.enabled_node_ids()]

    def disabled_nodes(self) -> List[SensorNode]:
        """All nodes that are not enabled (failed, misbehaving, or depleted)."""
        disabled = self.arrays.node_ids[~self.arrays.enabled_mask()]
        return [self.node(node_id) for node_id in disabled.tolist()]

    @property
    def node_count(self) -> int:
        """Total number of deployed nodes."""
        return len(self.arrays)

    @property
    def enabled_count(self) -> int:
        """Number of enabled nodes (an O(1) read of the incremental index)."""
        return self._enabled_total

    def enabled_rows(self) -> np.ndarray:
        """Ascending rows of the enabled nodes, as a read-only array.

        The energy sweep gathers over it every round.  It is built on first
        use after a change of the ``state`` column: :meth:`disable_rows`
        takes the surviving rows when its caller has them and drops it
        otherwise, :meth:`enable_node` drops it, moves keep it, and
        :meth:`clone` shares it (it is never written, only replaced).
        """
        rows = self._enabled_rows
        if rows is None:
            rows = (self.arrays.state == ENABLED_CODE).nonzero()[0]
            rows.flags.writeable = False
            self._enabled_rows = rows
        return rows

    # ------------------------------------------------------------------ cells
    def cell_of_node(self, node_id: int) -> GridCoord:
        """Cell currently containing the node (an O(1) read of the cell column)."""
        return self.grid.coord_at(int(self.arrays.cell[self.arrays.row_of(node_id)]))

    def members_of(self, coord: GridCoord) -> List[SensorNode]:
        """Enabled nodes currently located in cell ``coord``, in id order.

        The per-cell index is kept sorted by the mutation paths, so this is a
        plain lookup — no per-call re-sort.
        """
        return [self.node(node_id) for node_id in self._cell_members[self._flat_of(coord)]]

    def member_count(self, coord: GridCoord) -> int:
        """Number of enabled nodes in ``coord`` (an O(1) read of the occupancy index)."""
        return self._occupancy[self._flat_of(coord)]

    def head_of(self, coord: GridCoord) -> Optional[SensorNode]:
        """The grid head of ``coord``, or ``None`` when the cell is vacant."""
        head_id = self._heads[self._flat_of(coord)]
        return None if head_id is None else self.node(head_id)

    def spares_of(self, coord: GridCoord) -> List[SensorNode]:
        """Enabled non-head nodes in ``coord`` (the cell's spare nodes), in id order."""
        flat = self._flat_of(coord)
        head_id = self._heads[flat]
        return [
            self.node(node_id)
            for node_id in self._cell_members[flat]
            if node_id != head_id
        ]

    def has_spare(self, coord: GridCoord) -> bool:
        """Whether ``coord`` holds at least one spare beyond its head (O(1))."""
        return self.member_count(coord) > 1

    # ---------------------------------------------------------- id-level reads
    # Reads by node id and row, creating no handles.  An off-grid cell raises
    # KeyError here (VirtualGrid.flat_id), as a miss of the index would.
    def head_id_of(self, coord: GridCoord) -> Optional[int]:
        """Id of the grid head of ``coord``, or ``None`` when the cell is vacant."""
        return self._heads[self.grid.flat_id(coord)]

    def spare_ids_of(self, coord: GridCoord) -> List[int]:
        """Ids of the enabled non-head nodes in ``coord``, in id order."""
        flat = self.grid.flat_id(coord)
        head_id = self._heads[flat]
        return [node_id for node_id in self._cell_members[flat] if node_id != head_id]

    def is_node_enabled(self, node_id: int) -> bool:
        """Whether a node is enabled (:class:`KeyError` if unknown)."""
        return bool(self.arrays.state[self.arrays.row_of(node_id)] == ENABLED_CODE)

    def energy_of(self, node_id: int) -> float:
        """Remaining battery energy of a node, in joules."""
        return self.arrays.energy.item(self.arrays.row_of(node_id))

    def debit_energy(self, node_id: int, joules: float) -> None:
        """Take ``joules`` from a node's battery, clamping at zero."""
        energy = self.arrays.energy
        row = self.arrays.row_of(node_id)
        energy[row] = max(0.0, energy.item(row) - joules)

    def is_vacant(self, coord: GridCoord) -> bool:
        """Whether ``coord`` has no enabled node (a hole in the coverage)."""
        return self.member_count(coord) == 0

    def vacant_cells(self) -> List[GridCoord]:
        """All holes, in row-major order.  Costs O(holes log holes), not O(m*n)."""
        coords = self.grid.coord_list()
        return [coords[flat] for flat in sorted(self._vacant)]

    def vacant_cell_set(self) -> FrozenSet[GridCoord]:
        """The current holes as an (unordered) frozen set — an O(holes) snapshot."""
        coords = self.grid.coord_list()
        return frozenset([coords[flat] for flat in self._vacant])

    def occupied_cells(self) -> List[GridCoord]:
        """Cells with at least one enabled node, in grid enumeration order."""
        return [
            coord
            for coord, count in zip(self.grid.coord_list(), self._occupancy)
            if count
        ]

    @property
    def hole_count(self) -> int:
        """Number of vacant cells (an O(1) read of the incremental index)."""
        return len(self._vacant)

    @property
    def spare_count(self) -> int:
        """Total number of spare nodes in the network."""
        return self._spare_total

    @property
    def spare_surplus(self) -> int:
        """Spares minus holes.

        Equals the paper's ``N`` (enabled nodes minus number of cells) whenever
        the network was thinned to ``N + m*n`` enabled nodes.
        """
        return self.spare_count - self.hole_count

    def occupancy(self) -> Dict[GridCoord, int]:
        """Enabled-node count for every cell."""
        return dict(zip(self.grid.coord_list(), self._occupancy))

    def spare_counts(self) -> Dict[GridCoord, int]:
        """Spare-node count for every cell."""
        return {
            coord: max(0, count - 1)
            for coord, count in zip(self.grid.coord_list(), self._occupancy)
        }

    # ---------------------------------------------------- flat controller API
    # The replacement controllers address cells by flat id.  These reads are
    # the state's live indices, read-only by contract: a caller that writes
    # to them corrupts the state (check_invariants() would say so).
    @property
    def cell_heads(self) -> List[Optional[int]]:
        """Head node id per flat cell id (``None`` for a vacant cell); live, read-only."""
        return self._heads

    @property
    def cell_counts(self) -> List[int]:
        """Enabled-node count per flat cell id; live, read-only."""
        return self._occupancy

    def vacant_flat_cells(self) -> FrozenSet[int]:
        """Flat ids of the current holes — an O(holes) snapshot."""
        return frozenset(self._vacant)

    def _usable_spare_rows(self, flat: int) -> List[Tuple[int, int]]:
        """``(id, row)`` of the usable spares of cell ``flat``, in id order.

        A spare is usable when it is not the head and its battery is above
        zero, so it can move: the one definition both spare reads share.
        """
        head_id = self._heads[flat]
        energy = self.arrays.energy
        row_of = self.arrays.row_of
        spares = []
        for node_id in self._cell_members[flat]:
            if node_id != head_id:
                row = row_of(node_id)
                if energy.item(row) > 0.0:
                    spares.append((node_id, row))
        return spares

    def usable_spares_at(self, flat: int) -> List[int]:
        """Ids of the spares of cell ``flat`` with battery left to move, in id order."""
        return [node_id for node_id, _ in self._usable_spare_rows(flat)]

    def select_spare_at(
        self,
        flat: int,
        target: int,
        selection: str,
        rng: Optional[random.Random] = None,
    ) -> Optional[int]:
        """The usable spare of cell ``flat`` sent into cell ``target``; ``None`` if none.

        One pass over the cell's members finds the usable spares, then
        ``"nearest"`` takes the one closest to the target cell's centre
        (ties by id), ``"max_energy"`` the fullest battery (ties by
        distance, then id), and ``"random"`` draws uniformly from ``rng``,
        the only selection that needs one.  This is the one spare-selection
        rule.  An unknown selection, or ``"random"`` without an ``rng``,
        raises :class:`ValueError`.
        """
        if selection not in SPARE_SELECTIONS:
            raise ValueError(
                f"spare selection must be one of {list(SPARE_SELECTIONS)}, got {selection!r}"
            )
        if rng is None and selection == "random":
            raise ValueError("the 'random' spare selection needs an rng to draw from")
        if self._occupancy[flat] < 2:
            return None  # at most the head: no spare to read
        spares = self._usable_spare_rows(flat)
        if not spares:
            return None
        if selection == "random":
            return spares[rng.randrange(len(spares))][0]
        if len(spares) == 1:
            return spares[0][0]
        grid = self.grid
        target_y, target_x = divmod(target, grid.columns)
        center_x = grid.column_spans[target_x].center
        center_y = grid.row_spans[target_y].center
        position = self.arrays.positions.item
        hypot = math.hypot
        # Each spare's key as a tuple, so min/max compare in C; ids are
        # unique, so the best key names exactly one spare.
        if selection == "nearest":
            return min(
                (hypot(position(row, 0) - center_x, position(row, 1) - center_y), node_id)
                for node_id, row in spares
            )[1]
        energy = self.arrays.energy.item
        return -max(
            (
                energy(row),
                -hypot(position(row, 0) - center_x, position(row, 1) - center_y),
                -node_id,
            )
            for node_id, row in spares
        )[2]

    # ---------------------------------------------------------------- changes
    def disable_node(self, node_id: int, reason: NodeState = NodeState.FAILED) -> None:
        """Disable a node and repair the head assignment of its cell."""
        self.disable_nodes((node_id,), reason)

    def disable_nodes(
        self, node_ids: Iterable[int], reason: NodeState = NodeState.FAILED
    ) -> None:
        """Disable a set of nodes in one pass and repair the heads of their cells.

        The id-checking front of :meth:`disable_rows`: an unknown id raises
        :class:`KeyError` before anything changes, ids that are repeated or
        already disabled are skipped, and the rows left are disabled in one
        :meth:`disable_rows` call, which drops the enabled-row index.

        Under any stateless policy the result equals disabling the nodes one
        at a time, bit for bit: a policy picks the best candidate under a
        fixed order, so the head a run of per-victim elections ends on is the
        best survivor, which the single election picks too.  A stateful policy
        is consulted once per hit cell that keeps a member, where the
        one-at-a-time loop consulted it once per hit head.
        """
        if reason is NodeState.ENABLED:
            raise ValueError("disable_nodes() requires a non-enabled reason state")
        arrays = self.arrays
        if not isinstance(node_ids, (list, tuple, np.ndarray)):
            node_ids = list(node_ids)
        ids = np.asarray(node_ids, dtype=np.int64)
        if not len(ids):
            return
        rows = arrays.rows_of(ids)
        # One reduction checks both ends: a negative row wraps to a huge
        # unsigned one.
        if rows.view(np.uint64).max() >= len(arrays):
            unknown = (rows < 0) | (rows >= len(arrays))
            raise KeyError(int(ids[np.argmax(unknown)]))
        rows = np.unique(rows[arrays.state[rows] == ENABLED_CODE])
        if len(rows):
            self.disable_rows(rows, reason)

    def disable_rows(
        self,
        rows: np.ndarray,
        reason: NodeState,
        enabled_rows: Optional[np.ndarray] = None,
    ) -> None:
        """Disable the enabled nodes at ``rows`` and repair the heads of their cells.

        The one disabling routine.  ``rows`` lists rows of enabled nodes,
        each once, and ``reason`` is a non-enabled state; nothing is
        checked (:meth:`disable_nodes` is the checking front, by id).
        ``enabled_rows``, when given, is the ascending rows of the nodes
        still enabled afterwards: it becomes the enabled-row index, made
        read-only, where otherwise the index is dropped and rebuilt on next
        use.  The energy sweep passes both, since it holds them already.

        The ``state`` and ``role`` columns are written once; each touched
        cell drops its victims from its member list, so the cost is
        O(victims + members of the touched cells) with no full index
        rebuild; and every touched cell whose head was hit holds exactly one
        fresh election — the lowest member id under the default policy,
        which writes only the new heads' roles (the kept members were spares
        beside the head that went), through :meth:`_elect_cell_head` (in
        row-major cell order) under any other.
        """
        arrays = self.arrays
        arrays.state[rows] = STATE_CODES[reason]
        arrays.role[rows] = UNASSIGNED_CODE
        if enabled_rows is not None:
            enabled_rows.flags.writeable = False
        self._enabled_rows = enabled_rows

        gone = set(arrays.node_ids[rows].tolist())
        cell_members = self._cell_members
        occupancy = self._occupancy
        heads = self._heads
        hit: List[int] = []
        for flat in sorted(set(arrays.cell[rows].tolist())):
            members = cell_members[flat]
            kept = [node_id for node_id in members if node_id not in gone]
            removed = len(members) - len(kept)
            members[:] = kept
            occupancy[flat] = len(kept)
            if kept:
                self._spare_total -= removed
            else:
                self._vacant.add(flat)
                self._spare_total -= removed - 1
            if heads[flat] in gone:
                heads[flat] = None
                hit.append(flat)
        self._enabled_total -= len(gone)
        if hit:
            if self._head_policy is lowest_id_policy:
                # The kept members of a hit cell were spares beside the
                # head that went, so only the new heads' roles change.
                role = arrays.role
                row_of = arrays.row_of
                for head_id in self._elect_lowest_id(hit):
                    role[row_of(head_id)] = HEAD_CODE
            else:
                for flat in hit:
                    self._elect_cell_head(flat)

    def enable_node(self, node_id: int) -> None:
        """Re-admit a previously disabled node (extension; not used by the paper)."""
        arrays = self.arrays
        row = arrays.row_of(node_id)
        if arrays.state[row] == ENABLED_CODE:
            return
        arrays.state[row] = ENABLED_CODE
        arrays.role[row] = UNASSIGNED_CODE
        self._enabled_rows = None
        flat = int(arrays.cell[row])
        insort(self._cell_members[flat], node_id)
        count = self._occupancy[flat] + 1
        self._occupancy[flat] = count
        self._enabled_total += 1
        if count == 1:
            self._vacant.discard(flat)
        else:
            self._spare_total += 1
        self._elect_cell_head(flat)

    def move_node(
        self,
        node_id: int,
        target_cell: GridCoord,
        rng: random.Random,
        round_index: int = 0,
        process_id: Optional[int] = None,
        target_position: Optional[Point] = None,
        enforce_adjacent: bool = True,
    ) -> MoveRecord:
        """Relocate an enabled node into ``target_cell`` and repair head roles.

        Replacement moves in the paper always go to a neighbouring cell; pass
        ``enforce_adjacent=False`` for extension algorithms (e.g. virtual
        force) that relocate nodes over longer distances.  Without an explicit
        ``target_position`` the movement model draws one (x, then y) from
        ``rng``.  The move is written by row: position, ``moved_distance``,
        ``move_count``, the energy debit (``max(0, e - distance * rate)``),
        and the cell column.  A disabled node raises :class:`RuntimeError`,
        and so does one whose battery is depleted (no motor power left).

        The checks run here, in this order, before anything is written: an
        unknown id raises :class:`KeyError`, a disabled node
        :class:`RuntimeError`, an off-grid target :class:`ValueError`, a
        target that is not a neighbouring cell (unless
        ``enforce_adjacent=False``) :class:`ValueError`, a given
        ``target_position`` that does not lie in ``target_cell``
        :class:`ValueError` (otherwise the point is drawn), and an empty
        battery :class:`RuntimeError`.  The move itself is the one
        relocation routine :meth:`relocate` also uses.
        """
        arrays = self.arrays
        row = arrays.row_of(node_id)
        if arrays.state.item(row) != ENABLED_CODE:
            raise RuntimeError(f"cannot move disabled node {node_id}")
        grid = self.grid
        source = arrays.cell.item(row)
        target = self._flat_of(target_cell)
        if enforce_adjacent and target not in grid.neighbour_table[source]:
            raise ValueError(
                f"move from {grid.coord_at(source).as_tuple()} to "
                f"{target_cell.as_tuple()} is not a neighbouring-cell move"
            )
        if target_position is None:
            target_position = self.movement_model._draw_target(target, rng)
        else:
            position_cell = grid.cell_of(target_position)
            if grid.flat_index(position_cell) != target:
                raise ValueError(
                    f"target position {tuple(target_position)} lies in cell "
                    f"{position_cell.as_tuple()}, not in the target cell "
                    f"{target_cell.as_tuple()}"
                )
        energy = arrays.energy.item(row)
        if energy <= 0.0:
            raise RuntimeError(f"node {node_id} has a depleted battery and cannot move")
        return self._apply_move(
            row, node_id, source, target, target_position, energy, round_index, process_id
        )

    def relocate(
        self,
        node_id: int,
        target: int,
        rng: random.Random,
        round_index: int = 0,
        process_id: Optional[int] = None,
    ) -> MoveRecord:
        """The replacement controllers' move: node ``node_id`` into neighbouring cell ``target``.

        ``target`` is a flat cell id.  The checks are :meth:`move_node`'s for
        a neighbouring-cell move, in O(1) flat form and the same order: the
        node is enabled, ``target`` is one of its cell's 4-neighbours (which
        also puts it on the grid), the target position is drawn (x, then y,
        from ``rng``), and the battery is not empty.  The records, draws and
        state it leaves are the ones ``move_node(node_id, coord_at(target),
        rng, round_index, process_id)`` would.
        """
        arrays = self.arrays
        row = arrays.row_of(node_id)
        if arrays.state.item(row) != ENABLED_CODE:
            raise RuntimeError(f"cannot move disabled node {node_id}")
        source = arrays.cell.item(row)
        if target not in self.grid.neighbour_table[source]:
            raise ValueError(
                f"move from cell {source} to cell {target} is not a "
                "neighbouring-cell move"
            )
        target_position = self.movement_model._draw_target(target, rng)
        energy = arrays.energy.item(row)
        if energy <= 0.0:
            raise RuntimeError(f"node {node_id} has a depleted battery and cannot move")
        return self._apply_move(
            row, node_id, source, target, target_position, energy, round_index, process_id
        )

    def _apply_move(
        self,
        row: int,
        node_id: int,
        source: int,
        target: int,
        target_position: Point,
        energy: float,
        round_index: int,
        process_id: Optional[int],
    ) -> MoveRecord:
        """The one relocation routine; its callers have checked the move.

        Only :meth:`move_node` and :meth:`relocate` call it, after their
        checks: ``row`` holds the enabled node ``node_id`` in flat cell
        ``source``, ``target`` is on the grid and holds ``target_position``,
        and ``energy`` is the node's (positive) battery.  It writes the
        node's row, and keeps the indices itself: it moves the node between
        the two member lists and updates the counters.  It repairs the heads
        writing at most two role rows: the new head of ``source`` when the
        mover headed it, and the mover itself (HEAD when it heads
        ``target``, SPARE otherwise).  Every other member of both cells
        already holds the role the rule gives it, so rewriting them (as a
        full election pass would) changes nothing.
        """
        arrays = self.arrays
        positions = arrays.positions
        source_x = positions.item(row, 0)
        source_y = positions.item(row, 1)
        target_x, target_y = target_position
        distance = math.hypot(source_x - target_x, source_y - target_y)
        positions[row, 0] = target_x
        positions[row, 1] = target_y
        moved = arrays.moved_distance
        moved[row] = moved.item(row) + distance
        count = arrays.move_count
        count[row] = count.item(row) + 1
        arrays.energy[row] = max(
            0.0, energy - distance * self.movement_model.move_cost_per_meter
        )
        arrays.cell[row] = target
        # The node leaves ``source`` and joins ``target``: the enabled total
        # stays, a cell left empty turns vacant, and a cell that was already
        # occupied gains a spare.
        self._cell_members[source].remove(node_id)
        insort(self._cell_members[target], node_id)
        occupancy = self._occupancy
        left = occupancy[source] - 1
        occupancy[source] = left
        joined = occupancy[target] + 1
        occupancy[target] = joined
        if left:
            self._spare_total -= 1
        else:
            self._vacant.add(source)
        if joined == 1:
            self._vacant.discard(target)
        else:
            self._spare_total += 1
        heads = self._heads
        role = arrays.role
        if heads[source] == node_id:
            new_head = self._elect_fresh(source)
            if new_head is not None:
                role[arrays.row_of(new_head)] = HEAD_CODE
        head_id = heads[target]
        if head_id is None:
            head_id = self._elect_fresh(target)
        role[row] = HEAD_CODE if head_id == node_id else SPARE_CODE
        coords = self.grid.coord_list()
        return _new_tuple(
            MoveRecord,
            (
                node_id,
                coords[source],
                coords[target],
                _new_tuple(Point, (source_x, source_y)),
                target_position,
                distance,
                round_index,
                process_id,
            ),
        )

    # ----------------------------------------------------------------- heads
    def _elect_fresh(self, flat: int) -> Optional[int]:
        """Run a fresh election in cell ``flat``; record and return the winner.

        Under the default lowest-id policy the winner is ``members[0]``
        (member lists are sorted); any other policy is called once, on
        handles of the members.  A vacant cell gets ``None`` and no call.
        Roles are the caller's to write.
        """
        members = self._cell_members[flat]
        if not members:
            head_id = None
        elif self._head_policy is lowest_id_policy:
            head_id = members[0]
        else:
            grid = self.grid
            y, x = divmod(flat, grid.columns)
            center = Point(grid.column_spans[x].center, grid.row_spans[y].center)
            head = elect_head(
                [self.node(node_id) for node_id in members], center, self._head_policy
            )
            head_id = head.node_id
        self._heads[flat] = head_id
        return head_id

    def _elect_cell_head(self, flat: int) -> Optional[int]:
        """Keep or elect the head of cell ``flat``; returns its id (``None`` if vacant).

        A head that is still a member keeps the role; otherwise a fresh
        election runs (:meth:`_elect_fresh`).  Every member is then a spare
        except the head, written by row.
        """
        members = self._cell_members[flat]
        head_id = self._heads[flat]
        if head_id is None or head_id not in members:
            head_id = self._elect_fresh(flat)
        role = self.arrays.role
        row_of = self.arrays.row_of
        for node_id in members:
            role[row_of(node_id)] = HEAD_CODE if node_id == head_id else SPARE_CODE
        return head_id

    def _elect_lowest_id(self, cells: Iterable[int]) -> List[int]:
        """Fresh election of flat ``cells`` under the default lowest-id policy.

        The smallest member id of each occupied cell becomes its head; an
        empty cell gets none.  Returns the new heads' ids.  Roles are the
        caller's to write: the new heads become ``HEAD``, and every other
        member must already be a spare (:meth:`elect_all_heads` writes them,
        and the kept members of a cell :meth:`disable_rows` hit were spares
        beside the head it removed).
        """
        heads = self._heads
        cell_members = self._cell_members
        head_ids: List[int] = []
        for flat in cells:
            members = cell_members[flat]
            if members:
                heads[flat] = members[0]
                head_ids.append(members[0])
            else:
                heads[flat] = None
        return head_ids

    def elect_all_heads(self) -> None:
        """(Re-)elect the head of every cell from scratch-consistent membership."""
        cell_count = self.grid.cell_count
        self._heads: List[Optional[int]] = [None] * cell_count
        if self._head_policy is lowest_id_policy:
            arrays = self.arrays
            arrays.role[arrays.enabled_mask()] = SPARE_CODE
            head_ids = self._elect_lowest_id(range(cell_count))
            arrays.role[arrays.rows_of(np.asarray(head_ids, dtype=np.int64))] = HEAD_CODE
        else:
            for flat in range(cell_count):
                self._elect_cell_head(flat)

    def heads(self) -> Dict[GridCoord, Optional[int]]:
        """Copy of the head assignment (cell -> head node id or ``None``)."""
        return dict(zip(self.grid.coord_list(), self._heads))

    def head_nodes(self) -> List[SensorNode]:
        """All current grid heads, in row-major cell order."""
        return [self.node(h) for h in self._heads if h is not None]

    # -------------------------------------------------------------- accounting
    @property
    def total_moved_distance(self) -> float:
        """Total distance moved by all nodes since deployment (metres).

        Summed left-to-right (``cumsum``) so the float result is identical to
        the sequential ``sum()`` over nodes in deployment order.
        """
        moved = self.arrays.moved_distance
        return float(np.cumsum(moved)[-1]) if len(moved) else 0.0

    @property
    def total_move_count(self) -> int:
        """Total number of relocation moves since deployment."""
        return int(self.arrays.move_count.sum())

    # ------------------------------------------------------------------ misc
    def clone(self) -> "WsnState":
        """Independent copy of the state, for running several schemes on one scenario.

        This is an explicit structural copy, not ``copy.deepcopy``: the grid,
        head policy, and movement model are immutable and shared, the node
        arrays are copied column-by-column, and the incremental indices are
        copied container-by-container.  Handles are re-created lazily on the
        clone.  Sweep fan-out over one scenario therefore pays O(nodes +
        cells) per clone instead of a full recursive deepcopy.
        """
        twin = WsnState.__new__(WsnState)
        twin.grid = self.grid
        twin._head_policy = self._head_policy
        twin.movement_model = self.movement_model
        twin.arrays = self.arrays.copy()
        twin._handles = {}
        twin._enabled_rows = self._enabled_rows
        twin._cell_members = [list(members) for members in self._cell_members]
        twin._heads = list(self._heads)
        twin._occupancy = list(self._occupancy)
        twin._vacant = set(self._vacant)
        twin._spare_total = self._spare_total
        twin._enabled_total = self._enabled_total
        return twin

    # ------------------------------------------------------------ byte image
    def to_bytes(self) -> bytes:
        """The state's byte image: grid header + raw node columns.

        The grid geometry and the :meth:`NodeArrays.to_bytes` buffer (every
        node column) determine the whole state: the incremental indices
        follow from the state and cell columns, and the head table from the
        role column.  Two states are the same state exactly when their
        images are equal, which is how tests and benchmarks compare them.
        Behaviour objects (head policy, movement model) are functions, not
        data, and are not part of the image.
        """
        grid = self.grid
        origin = grid.origin
        header = struct.pack(
            _SNAPSHOT_HEADER_FORMAT,
            STATE_SNAPSHOT_VERSION,
            grid.columns,
            grid.rows,
            grid.cell_size,
            origin.x,
            origin.y,
        )
        return header + self.arrays.to_bytes()

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if any index or grid-overlay invariant is violated.

        This is the oracle of the state-index contract: every incremental
        index (membership lists, occupancy counters, vacant set, spare and
        enabled totals, and the per-node cell column) is compared against a
        from-scratch rebuild derived from the node arrays, and the head
        invariants of Section 2 are checked on top.
        """
        arrays = self.arrays
        grid = self.grid
        coords = grid.coord_list()
        rebuilt: List[List[int]] = [[] for _ in range(grid.cell_count)]
        enabled_total = 0
        node_ids = arrays.node_ids.tolist()
        xs = arrays.positions[:, 0].tolist()
        ys = arrays.positions[:, 1].tolist()
        states = arrays.state.tolist()
        cells = arrays.cell.tolist()
        for row, node_id in enumerate(node_ids):
            flat = grid.flat_index(grid.cell_of(Point(xs[row], ys[row])))
            assert cells[row] == flat, (
                f"cell column of node {node_id} is {cells[row]}, position "
                f"says {flat}"
            )
            if states[row] == ENABLED_CODE:
                rebuilt[flat].append(node_id)
                enabled_total += 1
        assert self._enabled_total == enabled_total, (
            f"enabled total {self._enabled_total} != rebuilt {enabled_total}"
        )
        enabled_rows = self.enabled_rows()
        assert not enabled_rows.flags.writeable, "the enabled-row index is writeable"
        assert np.array_equal(
            enabled_rows, np.flatnonzero(arrays.state == ENABLED_CODE)
        ), "the enabled-row index does not list the enabled rows"
        sizes = {len(self._cell_members), len(self._occupancy), len(self._heads)}
        assert sizes == {len(rebuilt)}, "a per-cell index does not hold one entry per cell"
        spare_total = 0
        vacant = set()
        for flat, expected in enumerate(rebuilt):
            expected.sort()
            cell = coords[flat].as_tuple()
            members = self._cell_members[flat]
            assert members == expected, (
                f"membership index of {cell} is {members}, rebuild says {expected}"
            )
            assert self._occupancy[flat] == len(expected), (
                f"occupancy counter of {cell} is {self._occupancy[flat]}, "
                f"rebuild says {len(expected)}"
            )
            if expected:
                spare_total += len(expected) - 1
            else:
                vacant.add(flat)
            head_id = self._heads[flat]
            if expected:
                assert head_id is not None, f"occupied cell {cell} has no head"
                assert head_id in expected, (
                    f"head {head_id} of cell {cell} is not one of its members"
                )
            else:
                assert head_id is None, f"vacant cell {cell} has a head"
        assert self._vacant == vacant, (
            f"vacant-cell index has flat ids {sorted(self._vacant - vacant)} "
            f"too many and {sorted(vacant - self._vacant)} missing"
        )
        assert self._spare_total == spare_total, (
            f"spare total {self._spare_total} != rebuilt {spare_total}"
        )
        # The role rule: an enabled node is HEAD if it heads its cell, SPARE
        # otherwise.  Disabled nodes keep whatever role they were left with.
        head_ids = [head_id for head_id in self._heads if head_id is not None]
        expected_roles = np.full(len(arrays), SPARE_CODE, dtype=np.int8)
        expected_roles[arrays.rows_of(np.asarray(head_ids, dtype=np.int64))] = HEAD_CODE
        wrong = np.flatnonzero(
            (arrays.state == ENABLED_CODE) & (arrays.role != expected_roles)
        )
        assert not len(wrong), (
            f"enabled node {int(arrays.node_ids[wrong[0]])} has role "
            f"{ROLE_BY_CODE[arrays.role[wrong[0]]].value}, the role rule says "
            f"{ROLE_BY_CODE[expected_roles[wrong[0]]].value}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WsnState(grid={self.grid.columns}x{self.grid.rows}, "
            f"nodes={self.node_count}, enabled={self.enabled_count}, "
            f"holes={self.hole_count}, spares={self.spare_count})"
        )
