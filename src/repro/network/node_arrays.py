"""Struct-of-arrays backing store for the deployed node population.

:class:`NodeArrays` holds the per-node fields of an entire deployment as
parallel numpy arrays — positions ``float64[N, 2]``, energy ``float64[N]``,
state/role ``int8[N]`` enum codes (see ``STATE_CODES`` / ``ROLE_CODES`` in
:mod:`repro.network.node`), the flat virtual-grid cell index ``int32[N]``,
and the move-accounting columns.  :class:`~repro.network.state.WsnState`
owns one instance per network and the vectorized hot paths (adjacency,
deployment, the per-round energy sweep, coverage) operate on these arrays
directly; :class:`~repro.network.node.SensorNode` handles bound to a row
provide the unchanged object API on top.

Row order is deployment order, so iterating rows reproduces the insertion
order the array-of-objects implementation used — a requirement for the
bit-for-bit seed-identity guarantee (sequential float summation and RNG
draws both depend on it).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.node import (
    DEFAULT_BATTERY_CAPACITY,
    ROLE_CODES,
    STATE_CODES,
    NodeRole,
    NodeState,
    SensorNode,
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
#: column is added, removed, or changes dtype — restore rejects foreign
#: versions loudly instead of misinterpreting raw buffers.
BUFFER_FORMAT_VERSION = 1

#: Column layout of a snapshot: name, dtype, and per-row element count, in
#: buffer order.  The layout is fully determined by the row count, so the
#: snapshot needs no per-column framing.
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

#: ``struct`` format of the snapshot header: layout version + row count.
_HEADER_FORMAT = "<II"
_HEADER_SIZE = struct.calcsize(_HEADER_FORMAT)


def snapshot_nbytes(count: int) -> int:
    """Exact byte size of a :meth:`NodeArrays.to_bytes` snapshot of ``count`` rows."""
    row_bytes = sum(dtype.itemsize * width for _, dtype, width in _COLUMN_LAYOUT)
    return _HEADER_SIZE + count * row_bytes


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
        """Fresh (enabled, unassigned) nodes at the given positions."""
        count = len(xs)
        positions = np.empty((count, 2), dtype=np.float64)
        positions[:, 0] = xs
        positions[:, 1] = ys
        return cls(
            node_ids=np.asarray(node_ids, dtype=np.int64),
            positions=positions,
            energy=np.full(count, float(energy), dtype=np.float64),
            initial_energy=np.full(count, float(energy), dtype=np.float64),
            state=np.full(count, ENABLED_CODE, dtype=np.int8),
            role=np.full(count, UNASSIGNED_CODE, dtype=np.int8),
            cell=np.full(count, -1, dtype=np.int32),
            moved_distance=np.zeros(count, dtype=np.float64),
            move_count=np.zeros(count, dtype=np.int64),
        )

    @classmethod
    def from_nodes(cls, nodes: Sequence[SensorNode]) -> "NodeArrays":
        """Snapshot a sequence of (unbound) nodes into a fresh store."""
        count = len(nodes)
        positions = np.empty((count, 2), dtype=np.float64)
        node_ids = np.empty(count, dtype=np.int64)
        energy = np.empty(count, dtype=np.float64)
        initial_energy = np.empty(count, dtype=np.float64)
        state = np.empty(count, dtype=np.int8)
        role = np.empty(count, dtype=np.int8)
        moved_distance = np.empty(count, dtype=np.float64)
        move_count = np.empty(count, dtype=np.int64)
        for row, node in enumerate(nodes):
            node_ids[row] = node.node_id
            position = node.position
            positions[row, 0] = position.x
            positions[row, 1] = position.y
            energy[row] = node.energy
            initial_energy[row] = node.initial_energy
            state[row] = STATE_CODES[node.state]
            role[row] = ROLE_CODES[node.role]
            moved_distance[row] = node.moved_distance
            move_count[row] = node.move_count
        return cls(
            node_ids=node_ids,
            positions=positions,
            energy=energy,
            initial_energy=initial_energy,
            state=state,
            role=role,
            cell=np.full(count, -1, dtype=np.int32),
            moved_distance=moved_distance,
            move_count=move_count,
        )

    # ----------------------------------------------------------------- lookups
    def __len__(self) -> int:
        return len(self.node_ids)

    def row_of(self, node_id: int) -> int:
        """Row index of ``node_id`` (:class:`KeyError` if unknown)."""
        if self._id_base is not None:
            row = node_id - self._id_base
            if 0 <= row < len(self.node_ids):
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

    def enabled_mask(self) -> np.ndarray:
        """Boolean mask over rows: ``state == ENABLED`` (fresh array)."""
        return self.state == ENABLED_CODE

    # -------------------------------------------------------------- snapshots
    def to_bytes(self) -> bytes:
        """Compact binary snapshot: a fixed header plus the raw column buffers.

        The layout (``_COLUMN_LAYOUT``) is versioned and fully determined by
        the row count, so a snapshot is just ``len(self)`` and the
        concatenated little-endian buffers — no pickle, no per-column
        framing.  ``from_bytes(to_bytes())`` round-trips every column
        bit-for-bit; this is the transport format of the initial-state cache
        and the shared-memory worker handoff.
        """
        parts = [struct.pack(_HEADER_FORMAT, BUFFER_FORMAT_VERSION, len(self))]
        for name, dtype, _ in _COLUMN_LAYOUT:
            parts.append(np.ascontiguousarray(getattr(self, name), dtype=dtype).tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, buffer: Union[bytes, memoryview]) -> "NodeArrays":
        """Rebuild a store from a :meth:`to_bytes` snapshot.

        ``buffer`` may be longer than the snapshot (shared-memory segments
        round up to a page size); trailing bytes are ignored.  Columns are
        copied out of the buffer, so the result owns writable arrays and the
        buffer may be released immediately.
        """
        if len(buffer) < _HEADER_SIZE:
            raise ValueError("snapshot buffer is too short for a header")
        version, count = struct.unpack_from(_HEADER_FORMAT, buffer, 0)
        if version != BUFFER_FORMAT_VERSION:
            raise ValueError(
                f"snapshot has buffer format version {version}, "
                f"this build expects {BUFFER_FORMAT_VERSION}"
            )
        if len(buffer) < snapshot_nbytes(count):
            raise ValueError(
                f"snapshot buffer holds {len(buffer)} bytes, a {count}-row "
                f"snapshot needs {snapshot_nbytes(count)}"
            )
        offset = _HEADER_SIZE
        columns: Dict[str, np.ndarray] = {}
        for name, dtype, width in _COLUMN_LAYOUT:
            flat = np.frombuffer(
                buffer, dtype=dtype, count=count * width, offset=offset
            ).copy()
            columns[name] = flat.reshape(count, width) if width > 1 else flat
            offset += count * width * dtype.itemsize
        return cls(**columns)

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
