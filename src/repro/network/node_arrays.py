"""Struct-of-arrays store: the one representation of a node population.

:class:`NodeArrays` holds the per-node fields of an entire deployment as
parallel numpy arrays — positions ``float64[N, 2]``, energy ``float64[N]``,
state/role ``int8[N]`` enum codes (see ``STATE_CODES`` / ``ROLE_CODES`` in
:mod:`repro.network.node`), the flat virtual-grid cell index ``int32[N]``,
and the move-accounting columns.  Every population enters the program as
one: the deployment generators return a store, a hand-placed population is
built with :meth:`NodeArrays.from_positions`, and
:class:`~repro.network.state.WsnState` takes a store and owns it from then
on.  The vectorized hot paths (adjacency, deployment, the per-round energy
sweep, coverage) and the controllers operate on these arrays directly;
:class:`~repro.network.node.SensorNode` handles are read-only views of a row.

Row order is deployment order, so iterating rows reproduces the insertion
order the array-of-objects implementation used — a requirement for the
bit-for-bit seed-identity guarantee (sequential float summation and RNG
draws both depend on it).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

import numpy as np

from repro.network.node import (
    DEFAULT_BATTERY_CAPACITY,
    ROLE_CODES,
    STATE_CODES,
    NodeRole,
    NodeState,
)

#: int8 code of :attr:`NodeState.ENABLED` (the hot-path mask constant).
ENABLED_CODE = STATE_CODES[NodeState.ENABLED]
#: int8 code of :attr:`NodeRole.HEAD`.
HEAD_CODE = ROLE_CODES[NodeRole.HEAD]
#: int8 code of :attr:`NodeRole.SPARE`.
SPARE_CODE = ROLE_CODES[NodeRole.SPARE]
#: int8 code of :attr:`NodeRole.UNASSIGNED`.
UNASSIGNED_CODE = ROLE_CODES[NodeRole.UNASSIGNED]

#: Version of the :meth:`NodeArrays.to_bytes` buffer layout.  Bump whenever a
#: column is added, removed, or changes dtype, so images of different
#: layouts never compare equal.
BUFFER_FORMAT_VERSION = 1

#: Column layout of the byte image: name, dtype, and per-row element count,
#: in buffer order.  The layout is fully determined by the row count, so the
#: image needs no per-column framing.
_COLUMN_LAYOUT: Tuple[Tuple[str, np.dtype, int], ...] = (
    ("node_ids", np.dtype(np.int64), 1),
    ("positions", np.dtype(np.float64), 2),
    ("energy", np.dtype(np.float64), 1),
    ("initial_energy", np.dtype(np.float64), 1),
    ("state", np.dtype(np.int8), 1),
    ("role", np.dtype(np.int8), 1),
    ("cell", np.dtype(np.int32), 1),
    ("moved_distance", np.dtype(np.float64), 1),
    ("move_count", np.dtype(np.int64), 1),
)

#: ``struct`` format of the image header: layout version + row count.
_HEADER_FORMAT = "<II"


class NodeArrays:
    """Parallel per-node arrays (one row per deployed node).

    Attributes
    ----------
    node_ids:
        ``int64[N]`` unique node identifiers, in deployment order.
    positions:
        ``float64[N, 2]`` current (x, y) locations in metres.
    energy / initial_energy:
        ``float64[N]`` remaining and starting battery charge (joules).
    state / role:
        ``int8[N]`` enum codes (``STATE_CODES`` / ``ROLE_CODES``).
    cell:
        ``int32[N]`` flat virtual-grid cell index (``y * columns + x``);
        ``-1`` until a :class:`WsnState` assigns it.
    moved_distance / move_count:
        ``float64[N]`` / ``int64[N]`` movement accounting.
    """

    __slots__ = (
        "node_ids",
        "positions",
        "energy",
        "initial_energy",
        "state",
        "role",
        "cell",
        "moved_distance",
        "move_count",
        "_size",
        "_id_base",
        "_row_by_id",
    )

    def __init__(
        self,
        node_ids: np.ndarray,
        positions: np.ndarray,
        energy: np.ndarray,
        initial_energy: np.ndarray,
        state: np.ndarray,
        role: np.ndarray,
        cell: np.ndarray,
        moved_distance: np.ndarray,
        move_count: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.positions = positions
        self.energy = energy
        self.initial_energy = initial_energy
        self.state = state
        self.role = role
        self.cell = cell
        self.moved_distance = moved_distance
        self.move_count = move_count
        self._size = len(node_ids)
        # Deployments produce consecutive ids, so id -> row is usually a
        # subtraction; the dict fallback is built lazily for irregular ids.
        if len(node_ids) and np.array_equal(
            node_ids, np.arange(node_ids[0], node_ids[0] + len(node_ids))
        ):
            self._id_base: Optional[int] = int(node_ids[0])
        else:
            self._id_base = None
        self._row_by_id: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_positions(
        cls,
        node_ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        energy: float = DEFAULT_BATTERY_CAPACITY,
    ) -> "NodeArrays":
        """Fresh (enabled, unassigned) nodes at the given positions.

        This builds a hand-placed population; the deployment generators use
        it too.  Its columns may be written until a
        :class:`~repro.network.state.WsnState` takes the store (the scenario
        build marks its thinning victims that way); after that, every change
        goes through the state.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if len(node_ids) and node_ids.min() < 0:
            raise ValueError(f"node ids must be non-negative, got {int(node_ids.min())}")
        if energy < 0:
            raise ValueError(f"energy must be non-negative, got {energy}")
        count = len(xs)
        positions = np.empty((count, 2), dtype=np.float64)
        positions[:, 0] = xs
        positions[:, 1] = ys
        return cls(
            node_ids=node_ids,
            positions=positions,
            energy=np.full(count, float(energy), dtype=np.float64),
            initial_energy=np.full(count, float(energy), dtype=np.float64),
            state=np.full(count, ENABLED_CODE, dtype=np.int8),
            role=np.full(count, UNASSIGNED_CODE, dtype=np.int8),
            cell=np.full(count, -1, dtype=np.int32),
            moved_distance=np.zeros(count, dtype=np.float64),
            move_count=np.zeros(count, dtype=np.int64),
        )

    # ----------------------------------------------------------------- lookups
    def __len__(self) -> int:
        return len(self.node_ids)

    def row_of(self, node_id: int) -> int:
        """Row index of ``node_id`` (:class:`KeyError` if unknown)."""
        if self._id_base is not None:
            row = node_id - self._id_base
            if 0 <= row < self._size:
                return row
            raise KeyError(node_id)
        if self._row_by_id is None:
            self._row_by_id = {
                int(node_id_): row for row, node_id_ in enumerate(self.node_ids.tolist())
            }
        return self._row_by_id[node_id]

    def rows_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`row_of` for known-good ids (no validation)."""
        if self._id_base is not None:
            return np.asarray(node_ids, dtype=np.int64) - self._id_base
        return np.fromiter(
            (self.row_of(int(node_id)) for node_id in node_ids),
            dtype=np.int64,
            count=len(node_ids),
        )

    def has_id(self, node_id: int) -> bool:
        """Whether a node with this id exists in the store."""
        try:
            self.row_of(node_id)
        except KeyError:
            return False
        return True

    def check_shapes(self) -> None:
        """Raise :class:`ValueError` unless every column holds one entry per node id."""
        count = len(self.node_ids)
        for name, _, width in _COLUMN_LAYOUT:
            shape = getattr(self, name).shape
            if shape != ((count, width) if width > 1 else (count,)):
                raise ValueError(
                    f"column {name} has shape {shape}, but the population has "
                    f"{count} node ids"
                )

    def enabled_mask(self) -> np.ndarray:
        """Boolean mask over rows: ``state == ENABLED`` (fresh array)."""
        return self.state == ENABLED_CODE

    # ------------------------------------------------------------ byte image
    def to_bytes(self) -> bytes:
        """Byte image of every column: a fixed header plus the raw column buffers.

        The layout (``_COLUMN_LAYOUT``) is versioned and fully determined by
        the row count, so the image is just ``len(self)`` and the
        concatenated little-endian buffers — no pickle, no per-column
        framing.  Two stores hold the same values in every column exactly
        when their images are equal.
        """
        parts = [struct.pack(_HEADER_FORMAT, BUFFER_FORMAT_VERSION, len(self))]
        for name, dtype, _ in _COLUMN_LAYOUT:
            parts.append(np.ascontiguousarray(getattr(self, name), dtype=dtype).tobytes())
        return b"".join(parts)

    # ------------------------------------------------------------------- copy
    def copy(self) -> "NodeArrays":
        """Independent deep copy of every column (used by ``WsnState.clone``)."""
        return NodeArrays(
            node_ids=self.node_ids.copy(),
            positions=self.positions.copy(),
            energy=self.energy.copy(),
            initial_energy=self.initial_energy.copy(),
            state=self.state.copy(),
            role=self.role.copy(),
            cell=self.cell.copy(),
            moved_distance=self.moved_distance.copy(),
            move_count=self.move_count.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NodeArrays(n={len(self.node_ids)}, "
            f"enabled={int(self.enabled_mask().sum())})"
        )
