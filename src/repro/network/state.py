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
mutation paths (:meth:`WsnState.disable_nodes`, :meth:`WsnState.enable_node`,
and the one relocation routine behind :meth:`WsnState.move_node` and
:meth:`WsnState.relocate`).  Every index addresses a cell by its *flat id*
(``y * columns + x``, the value ``arrays.cell`` stores):

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

The coordinate queries (:meth:`members_of`, :meth:`head_of`, ...) convert
their :class:`GridCoord` once and keep their return types and errors.  The
replacement controllers read the flat form directly: :attr:`cell_heads`,
:attr:`cell_counts`, :meth:`vacant_flat_cells`, :meth:`usable_spares_at`
and :meth:`select_spare_at`, and they move nodes with :meth:`relocate`.

An optional :class:`~repro.network.adjacency.NeighborIndex` can be attached
with :meth:`attach_neighbor_index`; the mutation paths then update radio
neighbourhoods incrementally instead of forcing per-query rebuilds.

Round cost therefore scales with the number of holes and moves, not with the
``m*n`` grid size.  :meth:`check_invariants` is the oracle for this contract:
it rebuilds every index from scratch from the arrays and asserts the
incremental copies (including the cell column and any attached neighbour
index) agree (see DESIGN.md, "The state-index contract").
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.grid.geometry import Point
from repro.grid.head_election import HeadElectionPolicy, elect_head, lowest_id_policy
from repro.grid.virtual_grid import GridCoord, VirtualGrid
from repro.network.adjacency import NeighborIndex
from repro.network.mobility import MovementModel, MoveRecord
from repro.network.node import ROLE_BY_CODE, STATE_CODES, NodeState, SensorNode
from repro.network.node_arrays import (
    ENABLED_CODE,
    HEAD_CODE,
    SPARE_CODE,
    UNASSIGNED_CODE,
    NodeArrays,
)

#: Version of the :meth:`WsnState.to_bytes` snapshot layout (grid header +
#: :meth:`NodeArrays.to_bytes` buffer).  Bump on any header change.
STATE_SNAPSHOT_VERSION = 1

#: ``struct`` format of the state snapshot header: layout version, grid
#: columns/rows, cell side, and the grid origin coordinates.
_SNAPSHOT_HEADER_FORMAT = "<IIIddd"
_SNAPSHOT_HEADER_SIZE = struct.calcsize(_SNAPSHOT_HEADER_FORMAT)


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
        self.arrays = arrays = nodes
        arrays.cell[:] = grid.cell_indices(
            arrays.positions[:, 0], arrays.positions[:, 1]
        )
        self._neighbor_index: Optional[NeighborIndex] = None
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
        # Build the counters in one pass instead of via _index_add so the
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

    # ----------------------------------------------------- index maintenance
    def _index_add(self, flat: int, node_id: int) -> None:
        """Register an enabled node in cell ``flat``, updating every index."""
        insort(self._cell_members[flat], node_id)
        count = self._occupancy[flat] + 1
        self._occupancy[flat] = count
        self._enabled_total += 1
        if count == 1:
            self._vacant.discard(flat)
        else:
            self._spare_total += 1

    def _index_remove(self, flat: int, node_id: int) -> None:
        """Unregister an enabled node from cell ``flat``, updating every index."""
        members = self._cell_members[flat]
        position = bisect_left(members, node_id)
        if position >= len(members) or members[position] != node_id:
            raise KeyError(
                f"node {node_id} is not indexed in cell "
                f"{self.grid.coord_at(flat).as_tuple()}"
            )
        members.pop(position)
        count = self._occupancy[flat] - 1
        self._occupancy[flat] = count
        self._enabled_total -= 1
        if count == 0:
            self._vacant.add(flat)
        else:
            self._spare_total -= 1

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
                if energy[row] > 0.0:
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
        rule; :func:`repro.core.protocol.select_spare` is its coordinate form.
        """
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
        energy = self.arrays.energy
        positions = self.arrays.positions

        def distance(row: int) -> float:
            """Distance from the node in ``row`` to the target cell's centre."""
            x, y = positions[row].tolist()
            return math.hypot(x - center_x, y - center_y)

        if selection == "max_energy":
            return max(
                spares,
                key=lambda spare: (float(energy[spare[1]]), -distance(spare[1]), -spare[0]),
            )[0]
        return min(spares, key=lambda spare: (distance(spare[1]), spare[0]))[0]

    # ------------------------------------------------------- adjacency index
    @property
    def neighbor_index(self) -> Optional[NeighborIndex]:
        """The attached incremental radio-neighbourhood index, if any."""
        return self._neighbor_index

    def attach_neighbor_index(self, radio) -> NeighborIndex:
        """Build and attach a :class:`NeighborIndex` for ``radio``.

        The mutation paths keep it up to date incrementally; detach with
        :meth:`detach_neighbor_index` when radio parameters change.
        """
        self._neighbor_index = NeighborIndex(self, radio)
        return self._neighbor_index

    def detach_neighbor_index(self) -> None:
        """Drop the attached neighbour index (if any)."""
        self._neighbor_index = None

    # ---------------------------------------------------------------- changes
    def disable_node(self, node_id: int, reason: NodeState = NodeState.FAILED) -> None:
        """Disable a node and repair the head assignment of its cell."""
        self.disable_nodes((node_id,), reason)

    def disable_nodes(
        self, node_ids: Iterable[int], reason: NodeState = NodeState.FAILED
    ) -> None:
        """Disable a set of nodes in one pass and repair the heads of their cells.

        The ``state`` and ``role`` columns are written once; each touched cell
        drops its victims from its member list, so the cost is O(victims +
        members of the touched cells) with no full index rebuild; and every
        touched cell whose head was hit holds exactly one fresh election —
        vectorized under the default lowest-id policy, through
        :meth:`_elect_cell_head` (in row-major cell order) under any other.
        Ids that are repeated or already disabled are skipped; an unknown id
        raises :class:`KeyError` before anything changes.

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
        unknown = (rows < 0) | (rows >= len(arrays))
        if unknown.any():
            raise KeyError(int(ids[np.argmax(unknown)]))
        rows = rows[arrays.state[rows] == ENABLED_CODE]
        if not len(rows):
            return
        arrays.state[rows] = STATE_CODES[reason]
        arrays.role[rows] = UNASSIGNED_CODE

        gone = set(arrays.node_ids[rows].tolist())
        cell_members = self._cell_members
        occupancy = self._occupancy
        heads = self._heads
        removed_total = 0
        hit: List[int] = []
        hit_members: List[int] = []
        for flat in sorted(set(arrays.cell[rows].tolist())):
            members = cell_members[flat]
            kept = [node_id for node_id in members if node_id not in gone]
            removed = len(members) - len(kept)
            removed_total += removed
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
                hit_members.extend(kept)
        self._enabled_total -= removed_total
        if hit:
            if self._head_policy is lowest_id_policy:
                self._elect_lowest_id(
                    hit, arrays.rows_of(np.asarray(hit_members, dtype=np.int64))
                )
            else:
                for flat in hit:
                    self._elect_cell_head(flat)
        if self._neighbor_index is not None:
            for row in sorted(set(rows.tolist())):
                self._neighbor_index.on_disable(row)

    def enable_node(self, node_id: int) -> None:
        """Re-admit a previously disabled node (extension; not used by the paper)."""
        arrays = self.arrays
        row = arrays.row_of(node_id)
        if arrays.state[row] == ENABLED_CODE:
            return
        arrays.state[row] = ENABLED_CODE
        arrays.role[row] = UNASSIGNED_CODE
        flat = int(arrays.cell[row])
        self._index_add(flat, node_id)
        self._elect_cell_head(flat)
        if self._neighbor_index is not None:
            self._neighbor_index.on_enable(row)

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

        The checks run here, in this order (an unknown id raises
        :class:`KeyError`, an off-grid target :class:`ValueError`); the move
        itself is the one relocation routine :meth:`relocate` also uses.
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
            target_position = self.movement_model._draw_target(target_cell, rng)
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
        grid = self.grid
        source = arrays.cell.item(row)
        if target not in grid.neighbour_table[source]:
            raise ValueError(
                f"move from cell {source} to cell {target} is not a "
                "neighbouring-cell move"
            )
        target_position = self.movement_model._draw_target(
            grid.coord_list()[target], rng
        )
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
        ``source``, ``target`` is on the grid, and ``energy`` is the node's
        (positive) battery.  It writes the node's row, moves it between the
        two member lists, and repairs the heads writing at most two role
        rows: the new head of ``source`` when the mover headed it, and the
        mover itself (HEAD when it heads ``target``, SPARE otherwise).  Every
        other member of both cells already holds the role the rule gives it,
        so rewriting them (as a full election pass would) changes nothing.
        """
        arrays = self.arrays
        positions = arrays.positions
        source_x = positions.item(row, 0)
        source_y = positions.item(row, 1)
        target_x, target_y = target_position.x, target_position.y
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
        self._index_remove(source, node_id)
        self._index_add(target, node_id)
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
        if self._neighbor_index is not None:
            self._neighbor_index.on_move(row)
        coords = self.grid.coord_list()
        return MoveRecord(
            node_id,
            coords[source],
            coords[target],
            Point(source_x, source_y),
            target_position,
            distance,
            round_index,
            process_id,
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

    def _elect_lowest_id(self, cells: Iterable[int], member_rows) -> None:
        """Vectorized fresh election of flat ``cells`` under the default lowest-id policy.

        Equivalent to running :meth:`_elect_cell_head` on each of the cells
        with its head cleared: every member (``member_rows`` indexes the
        member rows of all ``cells``) becomes a spare, the smallest member
        id of each occupied cell becomes head, an empty cell gets none, and
        disabled nodes keep their roles (they are never members).
        """
        arrays = self.arrays
        arrays.role[member_rows] = SPARE_CODE
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
        if head_ids:
            rows = arrays.rows_of(np.asarray(head_ids, dtype=np.int64))
            arrays.role[rows] = HEAD_CODE

    def elect_all_heads(self) -> None:
        """(Re-)elect the head of every cell from scratch-consistent membership."""
        cell_count = self.grid.cell_count
        self._heads: List[Optional[int]] = [None] * cell_count
        if self._head_policy is lowest_id_policy:
            self._elect_lowest_id(range(cell_count), self.arrays.enabled_mask())
        else:
            for flat in range(cell_count):
                self._elect_cell_head(flat)

    def rotate_head(self, coord: GridCoord) -> Optional[SensorNode]:
        """Force a fresh election in ``coord`` (head-rotation extension)."""
        flat = self._flat_of(coord)
        self._heads[flat] = None
        head_id = self._elect_cell_head(flat)
        return None if head_id is None else self.node(head_id)

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
        clone, and an attached neighbour index is not cloned — attach a fresh
        one if the clone needs it.  Sweep fan-out over one scenario therefore
        pays O(nodes + cells) per clone instead of a full recursive deepcopy.
        """
        twin = WsnState.__new__(WsnState)
        twin.grid = self.grid
        twin._head_policy = self._head_policy
        twin.movement_model = self.movement_model
        twin.arrays = self.arrays.copy()
        twin._handles = {}
        twin._cell_members = [list(members) for members in self._cell_members]
        twin._heads = list(self._heads)
        twin._occupancy = list(self._occupancy)
        twin._vacant = set(self._vacant)
        twin._spare_total = self._spare_total
        twin._enabled_total = self._enabled_total
        twin._neighbor_index = None
        return twin

    # -------------------------------------------------------------- snapshots
    def to_bytes(self) -> bytes:
        """Compact binary snapshot of the state: grid header + raw node columns.

        Only the *data* travels — the grid geometry and the
        :meth:`NodeArrays.to_bytes` buffer.  Behaviour objects (head policy,
        movement model) are plain functions, not data; :meth:`from_bytes`
        re-installs them from its arguments.  The incremental indices and the
        head table are redundant with the arrays (membership/occupancy follow
        from state+cell, heads from the role column) and are rebuilt on
        restore, so a snapshot costs exactly one buffer concatenation.
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

    @classmethod
    def from_bytes(
        cls,
        buffer: Union[bytes, memoryview],
        head_policy: Optional[HeadElectionPolicy] = None,
        movement_model: Optional[MovementModel] = None,
    ) -> "WsnState":
        """Rebuild a state from a :meth:`to_bytes` snapshot.

        The restored state is equivalent to a :meth:`clone` of the snapshotted
        one: arrays are copied out of the buffer, the incremental indices are
        rebuilt from the arrays, and the head table is restored from the
        persisted role column — *not* by a fresh election, which under a
        non-default policy (e.g. ``highest_energy``) could pick different
        heads than the snapshotted state held.  Handles are re-created lazily
        and a neighbour index is not carried over, exactly like ``clone``.
        ``buffer`` must hold exactly one snapshot: trailing bytes are
        rejected.
        """
        if len(buffer) < _SNAPSHOT_HEADER_SIZE:
            raise ValueError("state snapshot buffer is too short for a header")
        version, columns, rows, cell_size, origin_x, origin_y = struct.unpack_from(
            _SNAPSHOT_HEADER_FORMAT, buffer, 0
        )
        if version != STATE_SNAPSHOT_VERSION:
            raise ValueError(
                f"state snapshot has version {version}, "
                f"this build expects {STATE_SNAPSHOT_VERSION}"
            )
        grid = VirtualGrid(columns, rows, cell_size, origin=Point(origin_x, origin_y))
        arrays = NodeArrays.from_bytes(memoryview(buffer)[_SNAPSHOT_HEADER_SIZE:])
        twin = cls.__new__(cls)
        twin.grid = grid
        twin._head_policy = head_policy or lowest_id_policy
        twin.movement_model = movement_model or MovementModel(grid)
        twin.arrays = arrays
        twin._handles = {}
        twin._neighbor_index = None
        twin._rebuild_indices_from_arrays()
        twin._restore_heads_from_roles()
        return twin

    def _restore_heads_from_roles(self) -> None:
        """Rebuild the head table from the persisted role column.

        Every occupied cell of a consistent state holds exactly one enabled
        node with the ``HEAD`` role (disabled nodes may keep a stale head
        role; they are ignored), so the role column *is* the head assignment.
        """
        arrays = self.arrays
        heads: List[Optional[int]] = [None] * self.grid.cell_count
        head_rows = np.flatnonzero(
            (arrays.state == ENABLED_CODE) & (arrays.role == HEAD_CODE)
        )
        for flat, node_id in zip(
            arrays.cell[head_rows].tolist(), arrays.node_ids[head_rows].tolist()
        ):
            heads[flat] = node_id
        self._heads = heads

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if any index or grid-overlay invariant is violated.

        This is the oracle of the state-index contract: every incremental
        index (membership lists, occupancy counters, vacant set, spare and
        enabled totals, the per-node cell column, and any attached neighbour
        index) is compared against a from-scratch rebuild derived from the
        node arrays, and the head invariants of Section 2 are checked on top.
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
        if self._neighbor_index is not None:
            self._neighbor_index.check_consistency()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WsnState(grid={self.grid.columns}x{self.grid.rows}, "
            f"nodes={self.node_count}, enabled={self.enabled_count}, "
            f"holes={self.hole_count}, spares={self.spare_count})"
        )
