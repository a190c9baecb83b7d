"""Sensor node model.

A node is a small battery-powered device with a position, a radio, and a
working status.  Following the paper, nodes that have failed or misbehave are
*disabled* and excluded from the collaboration; the remaining *enabled* nodes
constitute the WSN.  Within each virtual-grid cell one enabled node is
elected *grid head* and the others are *spare* nodes.

A population of nodes is one :class:`~repro.network.node_arrays.NodeArrays`
store, one row per node, owned by a :class:`~repro.network.state.WsnState`.
:class:`SensorNode` is a read-only view of one row of that store: every
property reads the arrays, so a handle always reports what the state holds.
Changes go through the state (``disable_nodes``, ``enable_node``,
``move_node``, ``debit_energy``), which keeps its indices in step with the
columns.  The one write a handle offers, :meth:`SensorNode.reset_energy`,
sets the battery columns, which no index reads.  The replacement hot path
and the VF and SMART baselines work on node ids and columns and create no
handles at all.
"""

from __future__ import annotations

import enum

from repro.grid.geometry import Point


class NodeState(enum.Enum):
    """Working status of a sensor node."""

    ENABLED = "enabled"
    FAILED = "failed"
    MISBEHAVING = "misbehaving"
    DEPLETED = "depleted"

    @property
    def is_enabled(self) -> bool:
        """Whether this state means the node is operational."""
        return self is NodeState.ENABLED


class NodeRole(enum.Enum):
    """Role of an enabled node inside its virtual-grid cell."""

    HEAD = "head"
    SPARE = "spare"
    UNASSIGNED = "unassigned"


#: int8 codes used by the struct-of-arrays store (``NodeArrays.state``).
STATE_CODES = {
    NodeState.ENABLED: 0,
    NodeState.FAILED: 1,
    NodeState.MISBEHAVING: 2,
    NodeState.DEPLETED: 3,
}
#: Reverse mapping: ``STATE_BY_CODE[code]`` is the :class:`NodeState`.
STATE_BY_CODE = tuple(sorted(STATE_CODES, key=STATE_CODES.get))

#: int8 codes used by the struct-of-arrays store (``NodeArrays.role``).
ROLE_CODES = {
    NodeRole.UNASSIGNED: 0,
    NodeRole.HEAD: 1,
    NodeRole.SPARE: 2,
}
#: Reverse mapping: ``ROLE_BY_CODE[code]`` is the :class:`NodeRole`.
ROLE_BY_CODE = tuple(sorted(ROLE_CODES, key=ROLE_CODES.get))

#: Default battery capacity in joules.  The exact value is irrelevant to the
#: paper's experiments; it only matters for the battery-depletion failure
#: model and the energy accounting extension.
DEFAULT_BATTERY_CAPACITY = 100.0

#: Energy cost per metre moved (joules/metre).  Movement dominates the energy
#: budget of mobile sensors, so message costs are comparatively tiny.
MOVE_COST_PER_METER = 1.0

#: Energy cost of transmitting one control message (joules).
MESSAGE_COST = 0.01


class _Column:
    """A read-only :class:`SensorNode` field: one ``NodeArrays`` column, decoded.

    ``decode`` turns the stored array value into the field's Python value
    (enum fields store int8 codes).  Assigning the field raises
    :class:`AttributeError`: the state owns every column and keeps its
    indices in step with them.
    """

    def __init__(self, column: str, decode, doc: str) -> None:
        self._column = column
        self._decode = decode
        self.__doc__ = doc

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, node, owner=None):
        if node is None:
            return self
        return self._decode(getattr(node._arrays, self._column)[node._row])

    def __set__(self, node, value) -> None:
        raise AttributeError(
            f"SensorNode.{self._name} is read-only; change nodes through "
            "WsnState (disable_nodes, enable_node, move_node, debit_energy)"
        )


def _point(row) -> Point:
    """The ``positions`` row ``(x, y)`` as a :class:`Point`."""
    return Point(*row.tolist())


class SensorNode:
    """A read-only view of one node: row ``row`` of a state's ``NodeArrays``.

    Only :meth:`WsnState.node` builds one, and it caches one handle per id,
    so handles compare by identity.  Every field reads its column; energy
    accounting sums ``initial_energy - energy`` per node, so heterogeneous
    capacities and disabled nodes are both handled.
    """

    __slots__ = ("_arrays", "_row")

    node_id = _Column("node_ids", int, "Unique integer identifier.")
    position = _Column(
        "positions", _point, "Current location in the surveillance plane (metres)."
    )
    state = _Column(
        "state",
        STATE_BY_CODE.__getitem__,
        "Whether the node is enabled or disabled (failed / misbehaving).",
    )
    role = _Column(
        "role", ROLE_BY_CODE.__getitem__, "Head / spare role within the node's current cell."
    )
    energy = _Column("energy", float, "Remaining battery energy in joules.")
    initial_energy = _Column(
        "initial_energy", float, "Battery capacity the node started with."
    )
    moved_distance = _Column(
        "moved_distance", float, "Total distance moved so far, in metres."
    )
    move_count = _Column("move_count", int, "Number of relocation moves performed so far.")

    def __init__(self, arrays, row: int) -> None:
        self._arrays = arrays
        self._row = row

    @property
    def is_enabled(self) -> bool:
        """Whether the node participates in the collaboration."""
        return self.state.is_enabled

    @property
    def is_head(self) -> bool:
        """Whether the node currently holds the grid-head role."""
        return self.is_enabled and self.role is NodeRole.HEAD

    @property
    def is_spare(self) -> bool:
        """Whether the node currently holds the spare role."""
        return self.is_enabled and self.role is NodeRole.SPARE

    @property
    def is_battery_depleted(self) -> bool:
        """Whether the battery is empty (remaining energy at or below zero)."""
        return self.energy <= 0.0

    @property
    def consumed_energy(self) -> float:
        """Energy spent since deployment (joules); clamping never goes negative."""
        return max(0.0, self.initial_energy - self.energy)

    def reset_energy(self, capacity: float) -> None:
        """Install a fresh battery of ``capacity`` joules (scenario setup hook).

        The one write a handle offers: it sets the ``energy`` and
        ``initial_energy`` columns, which none of the state's indices read.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._arrays.energy[self._row] = capacity
        self._arrays.initial_energy[self._row] = capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        position = self.position
        return (
            f"SensorNode(id={self.node_id}, pos=({position.x:.2f}, "
            f"{position.y:.2f}), state={self.state.value}, role={self.role.value})"
        )
