"""Directed Hamilton cycle over the virtual grid (Sections 2 and 4).

The SR scheme threads all grid cells along a *directed Hamilton cycle*: each
head monitors the successor cell on the cycle and is the unique initiator of
a replacement when that cell becomes vacant.  This module provides:

* :class:`SerpentineHamiltonCycle` — the standard boustrophedon cycle that
  exists whenever at least one grid dimension is even (Figure 1(b) shows it
  for the paper's 4x5 grid);
* :class:`DualPathHamiltonCycle` — the construction of Section 4 for grids
  where *both* dimensions are odd.  A grid graph with an odd number of cells
  has no Hamilton cycle, so the paper builds an ``(m*n - 1)``-hop cycle from
  two directed Hamilton paths that share ``m*n - 2`` cells.  The two
  remaining cells, A and B, are the endpoints: path one runs A -> ... -> B
  and path two runs B -> ... -> A.  The shared chain starts at D (the common
  successor of A and B) and ends at C (their common predecessor), exactly as
  in Figure 4;
* :func:`build_hamilton_cycle` — a factory that picks the right construction
  for a grid.

The replacement controllers only need one question answered: *given a vacant
cell, which cell's head is responsible for initiating (or continuing) its
replacement?*  That is :meth:`HamiltonCycle.initiator_for`, which encodes the
special cases of Algorithm 2 for the dual-path construction.

The controllers ask it by flat cell id (``y * columns + x``): every
structure carries :attr:`~HamiltonCycle.index_table` (the traversal position
of each cell) and :attr:`~HamiltonCycle.initiator_table` (each cell's
initiator wherever it does not depend on spares), and
:meth:`~HamiltonCycle.initiator_of` answers the rest.  The coordinate
methods read the same tables.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, List, Optional, Sequence

from repro.grid.virtual_grid import GridCoord, VirtualGrid


class HamiltonConstructionError(ValueError):
    """Raised when no Hamilton cycle construction exists for a grid shape."""


#: Predicate telling whether a cell currently holds at least one spare node.
SpareLookup = Callable[[GridCoord], bool]

#: How many grids' structures :func:`build_hamilton_cycle` keeps.  A sweep,
#: a lifetime run or a server works on one or two grids; the bound keeps a
#: process that visits many large grids from holding all their structures.
HAMILTON_CACHE_SIZE = 8


class HamiltonCycle(abc.ABC):
    """Common interface of the directed Hamilton structures used by SR.

    Attributes
    ----------
    index_table:
        Position of every cell in :meth:`order`, indexed by flat cell id.
    initiator_table:
        The initiator's flat id for every vacant flat cell id whose initiator
        is fixed, ``-1`` where it depends on spares and the original hole
        (the dual-path junction cells C and D).  Both tables are read-only.
    """

    index_table: List[int]
    initiator_table: List[int]

    def __init__(self, grid: VirtualGrid) -> None:
        self.grid = grid

    # --------------------------------------------------------------- topology
    @property
    @abc.abstractmethod
    def cycle_length(self) -> int:
        """Number of hops of the directed cycle (``m*n`` or ``m*n - 1``)."""

    @property
    @abc.abstractmethod
    def replacement_path_length(self) -> int:
        """``L`` — the length of the Hamilton path a replacement can stretch along.

        This is the value used by the analytical model: ``m*n - 1`` for the
        plain cycle (Theorem 2) and ``m*n - 2`` for the dual-path
        construction (Corollary 2).
        """

    @abc.abstractmethod
    def order(self) -> List[GridCoord]:
        """A representative traversal order covering every cell exactly once."""

    @abc.abstractmethod
    def monitored_cells(self, coord: GridCoord) -> List[GridCoord]:
        """Cells whose vacancy the head of ``coord`` is responsible for."""

    @abc.abstractmethod
    def initiator_for(
        self,
        vacant: GridCoord,
        has_spare: Optional[SpareLookup] = None,
        origin: Optional[GridCoord] = None,
    ) -> Optional[GridCoord]:
        """The unique cell whose head must react to ``vacant`` being empty.

        Parameters
        ----------
        vacant:
            The cell that currently has no head.
        has_spare:
            Optional lookup used by the dual-path construction, where the
            choice at the junction cells C and D depends on which of A/B has
            spare nodes (Algorithm 2, cases two and three).
        origin:
            The original hole the replacement process is serving.  The
            dual-path junction rules differ for an *original* vacancy at D
            versus a vacancy at D created by a cascading move.
        """

    # -------------------------------------------------------------- utilities
    def validate(self) -> None:
        """Check that the construction is a legal directed Hamilton structure.

        Every consecutive pair of the traversal order must be neighbouring
        grids, and every grid cell must appear exactly once.
        """
        order = self.order()
        expected = set(self.grid.all_coords())
        seen = set(order)
        if seen != expected or len(order) != len(expected):
            missing = expected - seen
            extra = seen - expected
            raise AssertionError(
                f"traversal does not cover the grid exactly once "
                f"(missing={sorted(c.as_tuple() for c in missing)}, "
                f"extra={sorted(c.as_tuple() for c in extra)}, "
                f"length={len(order)})"
            )
        for a, b in zip(order, order[1:]):
            if not a.is_neighbour_of(b):
                raise AssertionError(
                    f"consecutive cells {a.as_tuple()} -> {b.as_tuple()} are not neighbours"
                )

    def initiator_of(
        self, vacant: int, cell_counts: Sequence[int], origin: Optional[int]
    ) -> Optional[int]:
        """:meth:`initiator_for` by flat id, for the replacement controllers.

        ``cell_counts`` is the enabled-node count per flat id (a cell has a
        spare when it holds more than one node) and ``origin`` the flat id of
        the hole the process serves.  The base structure's initiators are
        all fixed, so this is one table read.
        """
        return self.initiator_table[vacant]

    def index_of(self, coord: GridCoord) -> int:
        """Position of ``coord`` in the representative traversal order."""
        return self.index_table[self.grid.flat_id(coord)]

    def _index_traversal(self, order: Sequence[GridCoord]) -> List[int]:
        """Set :attr:`index_table` from the traversal ``order``; return its flat ids."""
        flat_order = [self.grid.flat_index(coord) for coord in order]
        self.index_table = [0] * len(flat_order)
        for position, flat in enumerate(flat_order):
            self.index_table[flat] = position
        return flat_order


class SerpentineHamiltonCycle(HamiltonCycle):
    """Boustrophedon Hamilton cycle for grids with at least one even dimension.

    The construction reserves one boundary line and snakes through the rest,
    returning along the reserved line to close the cycle — the layout shown in
    Figure 1(b) of the paper.  It exists for every ``n x m`` grid with
    ``min(n, m) >= 2`` and ``n*m`` even.
    """

    def __init__(self, grid: VirtualGrid) -> None:
        super().__init__(grid)
        n, m = grid.columns, grid.rows
        if n < 2 or m < 2:
            raise HamiltonConstructionError(
                f"a Hamilton cycle needs at least a 2x2 grid, got {n}x{m}"
            )
        if (n * m) % 2 != 0:
            raise HamiltonConstructionError(
                f"grid {n}x{m} has an odd number of cells; use DualPathHamiltonCycle"
            )
        self._order = self._build_order(n, m)
        flat_order = self._index_traversal(self._order)
        self._successor = [0] * len(flat_order)
        self._predecessor = [0] * len(flat_order)
        for i, flat in enumerate(flat_order):
            nxt = flat_order[(i + 1) % len(flat_order)]
            self._successor[flat] = nxt
            self._predecessor[nxt] = flat
        # Every cell's initiator is its cycle predecessor.
        self.initiator_table = self._predecessor

    @staticmethod
    def _build_order(n: int, m: int) -> List[GridCoord]:
        order: List[GridCoord] = []
        if m % 2 == 0:
            # Snake over columns 1..n-1 row by row, then return down column 0.
            for y in range(m):
                xs = range(1, n) if y % 2 == 0 else range(n - 1, 0, -1)
                order.extend(GridCoord(x, y) for x in xs)
            order.extend(GridCoord(0, y) for y in range(m - 1, -1, -1))
        else:
            # n is even: snake over rows 1..m-1 column by column, return along row 0.
            for x in range(n):
                ys = range(1, m) if x % 2 == 0 else range(m - 1, 0, -1)
                order.extend(GridCoord(x, y) for y in ys)
            order.extend(GridCoord(x, 0) for x in range(n - 1, -1, -1))
        return order

    # --------------------------------------------------------------- topology
    @property
    def cycle_length(self) -> int:
        """Number of hops in the directed cycle (``m*n`` cells)."""
        return self.grid.cell_count

    @property
    def replacement_path_length(self) -> int:
        # Removing the vacant cell from the cycle leaves a Hamilton path of
        # m*n - 1 cells that could supply the spare (Theorem 2).
        """Longest replacement path the cycle supports (Theorem 2): ``m*n - 1``."""
        return self.grid.cell_count - 1

    def order(self) -> List[GridCoord]:
        """The cells in cycle visiting order (a copy)."""
        return list(self._order)

    def successor(self, coord: GridCoord) -> GridCoord:
        """The next cell along the directed cycle (the cell ``coord`` monitors)."""
        flat = self.grid.flat_index(self.grid.validate_coord(coord))
        return self.grid.coord_at(self._successor[flat])

    def predecessor(self, coord: GridCoord) -> GridCoord:
        """The previous cell along the directed cycle."""
        flat = self.grid.flat_index(self.grid.validate_coord(coord))
        return self.grid.coord_at(self._predecessor[flat])

    def monitored_cells(self, coord: GridCoord) -> List[GridCoord]:
        """The cells whose coverage ``coord``'s head monitors: its cycle successor."""
        return [self.successor(coord)]

    def initiator_for(
        self,
        vacant: GridCoord,
        has_spare: Optional[SpareLookup] = None,
        origin: Optional[GridCoord] = None,
    ) -> Optional[GridCoord]:
        """The cell whose head initiates the replacement of ``vacant``: its predecessor."""
        return self.predecessor(vacant)

    def upstream_distance(self, vacant: GridCoord, supplier: GridCoord) -> int:
        """Hops from ``vacant`` walking backwards along the cycle to ``supplier``."""
        vi = self.index_of(vacant)
        si = self.index_of(supplier)
        return (vi - si) % self.cycle_length


class DualPathHamiltonCycle(HamiltonCycle):
    """Section 4's dual-path construction for odd-by-odd grids.

    Cell roles (using the concrete layout of this construction):

    * ``A = (0, 0)`` and ``B = (1, 1)`` — the two cells covered by only one
      path each;
    * ``D = (1, 0)`` — the common successor of A and B;
    * ``C = (0, 1)`` — the common predecessor of A and B;
    * the *shared chain* runs from D to C and visits every other cell once.

    Path one is ``A -> D -> chain -> C -> B`` and path two is
    ``B -> D -> chain -> C -> A``; both are directed Hamilton paths of the
    full grid and they share the ``m*n - 2`` chain cells.
    """

    def __init__(self, grid: VirtualGrid) -> None:
        super().__init__(grid)
        n, m = grid.columns, grid.rows
        if n % 2 == 0 or m % 2 == 0:
            raise HamiltonConstructionError(
                f"DualPathHamiltonCycle is meant for odd-by-odd grids, got {n}x{m}; "
                "use SerpentineHamiltonCycle instead"
            )
        if n < 3 or m < 3:
            raise HamiltonConstructionError(
                f"the dual-path construction needs at least a 3x3 grid, got {n}x{m}"
            )
        self.cell_a = GridCoord(0, 0)
        self.cell_b = GridCoord(1, 1)
        self.cell_c = GridCoord(0, 1)
        self.cell_d = GridCoord(1, 0)
        self._chain = self._build_chain(n, m)
        if self._chain[0] != self.cell_d or self._chain[-1] != self.cell_c:
            raise AssertionError("dual-path chain must run from D to C")
        self._path_one = [self.cell_a] + self._chain + [self.cell_b]
        self._path_two = [self.cell_b] + self._chain + [self.cell_a]
        flat_order = self._index_traversal(self._path_one)
        flat_chain = flat_order[1:-1]
        a, b, c, d = (
            grid.flat_index(cell)
            for cell in (self.cell_a, self.cell_b, self.cell_c, self.cell_d)
        )
        self._flat_abcd = (a, b, c, d)
        # Chain neighbours by flat id: -1 before D, after C, and for A and
        # B, the two cells off the chain.
        self._chain_predecessor = [-1] * len(flat_order)
        self._chain_successor = [-1] * len(flat_order)
        for previous, flat in zip(flat_chain, flat_chain[1:]):
            self._chain_predecessor[flat] = previous
            self._chain_successor[previous] = flat
        # Algorithm 2's fixed rules: A and B are served by C, every other
        # chain cell by its chain predecessor.  C and D depend on spares and
        # the original hole (initiator_of).
        self.initiator_table = list(self._chain_predecessor)
        self.initiator_table[a] = c
        self.initiator_table[b] = c
        self.initiator_table[c] = -1
        self.initiator_table[d] = -1

    @staticmethod
    def _build_chain(n: int, m: int) -> List[GridCoord]:
        """Hamilton path over all cells except A=(0,0) and B=(1,1), from D=(1,0) to C=(0,1)."""
        chain: List[GridCoord] = [GridCoord(1, 0)]
        # 1. Zigzag over rows 0 and 1 for columns 2..n-1, ending at (n-1, 1).
        for x in range(2, n):
            if x % 2 == 0:
                chain.append(GridCoord(x, 0))
                chain.append(GridCoord(x, 1))
            else:
                chain.append(GridCoord(x, 1))
                chain.append(GridCoord(x, 0))
        # 2. Climb the last column from row 2 to the top.
        for y in range(2, m):
            chain.append(GridCoord(n - 1, y))
        # 3. Snake back down over columns 0..n-2, rows m-1 .. 2, ending at (0, 2).
        for k, y in enumerate(range(m - 1, 1, -1)):
            xs = range(n - 2, -1, -1) if k % 2 == 0 else range(0, n - 1)
            chain.extend(GridCoord(x, y) for x in xs)
        # 4. Finish at C.
        chain.append(GridCoord(0, 1))
        return chain

    # --------------------------------------------------------------- topology
    @property
    def cycle_length(self) -> int:
        # The paper describes the construction as an (m*n - 1)-hop cycle.
        """Number of hops in the dual-path construction's cycle (``m*n - 1``)."""
        return self.grid.cell_count - 1

    @property
    def replacement_path_length(self) -> int:
        # Corollary 2: replacements can stretch as far as m*n - 2 hops.
        """Longest replacement path of the construction (Corollary 2): ``m*n - 2``."""
        return self.grid.cell_count - 2

    def order(self) -> List[GridCoord]:
        """Path one (A -> D -> chain -> C -> B); covers every cell exactly once."""
        return list(self._path_one)

    def path_one(self) -> List[GridCoord]:
        """Path one of the construction (A -> D -> chain -> C -> B), as a copy."""
        return list(self._path_one)

    def path_two(self) -> List[GridCoord]:
        """Path two of the construction (ends at B instead of A), as a copy."""
        return list(self._path_two)

    def shared_chain(self) -> List[GridCoord]:
        """The ``m*n - 2`` cells shared by both paths, from D to C."""
        return list(self._chain)

    def _chain_flat(self, coord: GridCoord) -> int:
        """Flat id of a chain cell (:class:`ValueError` for A, B, or a cell off the grid)."""
        if not self.grid.contains_coord(coord) or coord in (self.cell_a, self.cell_b):
            raise ValueError(f"{coord.as_tuple()} is not on the shared chain")
        return self.grid.flat_index(coord)

    def chain_predecessor(self, coord: GridCoord) -> Optional[GridCoord]:
        """Predecessor of a chain cell within the shared chain (``None`` for D)."""
        flat = self._chain_predecessor[self._chain_flat(coord)]
        return None if flat < 0 else self.grid.coord_at(flat)

    def chain_successor(self, coord: GridCoord) -> Optional[GridCoord]:
        """Successor of a chain cell within the shared chain (``None`` for C)."""
        flat = self._chain_successor[self._chain_flat(coord)]
        return None if flat < 0 else self.grid.coord_at(flat)

    def monitored_cells(self, coord: GridCoord) -> List[GridCoord]:
        """Cells the head of ``coord`` watches for vacancy.

        * C watches both A and B (it precedes them on the two paths);
        * B watches D (Algorithm 2, case two: only B initiates for D);
        * A also watches D so that case three's "from D either A or B will be
          notified" has a listener even when B is vacant;
        * chain cells watch their chain successor (C's chain successor is
          ``None`` because its successors are A/B, handled above).
        """
        self.grid.validate_coord(coord)
        if coord == self.cell_c:
            return [self.cell_a, self.cell_b]
        if coord == self.cell_b:
            return [self.cell_d]
        if coord == self.cell_a:
            return [self.cell_d]
        successor = self.chain_successor(coord)
        return [successor] if successor is not None else []

    def initiator_for(
        self,
        vacant: GridCoord,
        has_spare: Optional[SpareLookup] = None,
        origin: Optional[GridCoord] = None,
    ) -> Optional[GridCoord]:
        """Algorithm 2's choice of the unique initiator for a vacant cell.

        * vacant A or B -> C initiates (cases one);
        * vacant D as an *original* hole -> B initiates (case two); when D was
          vacated by a cascading move, whichever of A/B still has a spare is
          notified, preferring A (case three);
        * vacant C -> A is preferred when it has spare nodes (and is not the
          hole being served), otherwise the replacement continues up the
          shared chain (case two's "grid A ... is always preferred");
        * any other vacant chain cell -> its chain predecessor.
        """
        self.grid.validate_coord(vacant)
        spare = has_spare or (lambda _c: False)
        if vacant == self.cell_a or vacant == self.cell_b:
            return self.cell_c
        if vacant == self.cell_d:
            if origin is None or origin == self.cell_d:
                return self.cell_b
            if spare(self.cell_a):
                return self.cell_a
            return self.cell_b
        if vacant == self.cell_c:
            if origin != self.cell_a and spare(self.cell_a):
                return self.cell_a
            return self.chain_predecessor(self.cell_c)
        return self.chain_predecessor(vacant)

    def initiator_of(
        self, vacant: int, cell_counts: Sequence[int], origin: Optional[int]
    ) -> Optional[int]:
        """:meth:`initiator_for` by flat id: the fixed table, then Algorithm 2 at C and D.

        ``cell_counts`` answers :meth:`initiator_for`'s ``has_spare`` (more
        than one node in the cell), and ``origin`` is a flat id or ``None``.
        """
        initiator = self.initiator_table[vacant]
        if initiator >= 0:
            return initiator
        a, b, c, d = self._flat_abcd
        if vacant == d:
            if origin is None or origin == d:
                return b
            return a if cell_counts[a] > 1 else b
        if origin != a and cell_counts[a] > 1:
            return a
        return self._chain_predecessor[c]


@functools.lru_cache(maxsize=HAMILTON_CACHE_SIZE)
def build_hamilton_cycle(grid: VirtualGrid) -> HamiltonCycle:
    """Build the appropriate directed Hamilton structure for ``grid``.

    Grids with an even number of cells get the serpentine cycle; odd-by-odd
    grids get the dual-path construction.  Degenerate one-row or one-column
    grids have no Hamilton cycle and raise
    :class:`HamiltonConstructionError`.

    The structure is a pure function of the grid and is never changed after
    construction (its list accessors return copies), so it is built once per
    grid: calls with equal grids return the same object while the grid is
    among the last :data:`HAMILTON_CACHE_SIZE` seen.
    """
    n, m = grid.columns, grid.rows
    if n < 2 or m < 2:
        raise HamiltonConstructionError(
            f"no Hamilton cycle exists over a {n}x{m} grid; the scheme needs a 2-D grid"
        )
    if (n * m) % 2 == 0:
        return SerpentineHamiltonCycle(grid)
    return DualPathHamiltonCycle(grid)
