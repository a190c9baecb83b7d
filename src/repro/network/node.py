"""Sensor node model.

A node is a small battery-powered device with a position, a radio, and a
working status.  Following the paper, nodes that have failed or misbehave are
*disabled* and excluded from the collaboration; the remaining *enabled* nodes
constitute the WSN.  Within each virtual-grid cell one enabled node is
elected *grid head* and the others are *spare* nodes.

Since the struct-of-arrays refactor, :class:`SensorNode` is a thin *handle*:
a node can be **unbound** (a standalone object holding its own fields, as
before) or **bound** to a row of a :class:`~repro.network.node_arrays.NodeArrays`
store, in which case every field read and write goes straight to the backing
numpy arrays — a bound handle caches nothing, so it always reports what the
arrays hold.  The public API is identical in both modes.  The replacement
hot path (``WsnState.move_node``, elections, the SR/AR controllers) works on
node ids and array rows and creates no handles at all.
"""

from __future__ import annotations

import enum
from typing import List, Optional

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

#: Maximum number of past positions :meth:`SensorNode.relocate` retains when
#: history recording is requested.  History is opt-in (``record_history=True``)
#: and bounded, so lifetime runs no longer pay an O(total-moves) memory tax.
POSITION_HISTORY_LIMIT = 64


class _Field:
    """A :class:`SensorNode` field: a ``NodeArrays`` column when bound, a slot otherwise.

    ``decode`` turns a stored array value into the field's Python value and
    ``encode`` does the reverse (enum fields store int8 codes).  Reads and
    writes of a bound node go straight to its row, so a handle is a pure
    view: anything written to the arrays is what it reports next.
    """

    def __init__(self, column: str, decode, encode=None, doc: str = "") -> None:
        self._column = column
        self._decode = decode
        self._encode = encode
        self.__doc__ = doc

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, node, owner=None):
        if node is None:
            return self
        if node._arrays is None:
            return getattr(node, self._slot)
        return self._decode(getattr(node._arrays, self._column)[node._row])

    def __set__(self, node, value) -> None:
        if node._arrays is None:
            setattr(node, self._slot, value)
        else:
            stored = value if self._encode is None else self._encode(value)
            getattr(node._arrays, self._column)[node._row] = stored


class SensorNode:
    """A single sensor device (possibly a view onto a ``NodeArrays`` row).

    Attributes
    ----------
    node_id:
        Unique integer identifier.
    position:
        Current location in the surveillance plane (metres).
    state:
        Whether the node is enabled or disabled (failed / misbehaving).
    role:
        Head / spare role within its current cell.
    energy:
        Remaining battery energy in joules.
    initial_energy:
        Battery capacity the node started with (defaults to ``energy``).
        Energy accounting sums ``initial_energy - energy`` per node, so
        heterogeneous capacities and disabled nodes are both handled.
    moved_distance:
        Total distance moved so far, in metres.
    move_count:
        Number of relocation moves performed so far.
    position_history:
        Up to :data:`POSITION_HISTORY_LIMIT` past positions, recorded only on
        ``relocate(..., record_history=True)`` calls (empty by default).
    """

    __slots__ = (
        "node_id",
        "_arrays",
        "_row",
        "_position",
        "_state",
        "_role",
        "_energy",
        "_initial_energy",
        "_moved_distance",
        "_move_count",
        "_history",
    )

    state = _Field(
        "state",
        STATE_BY_CODE.__getitem__,
        STATE_CODES.__getitem__,
        "Whether the node is enabled or disabled (failed / misbehaving).",
    )
    role = _Field(
        "role",
        ROLE_BY_CODE.__getitem__,
        ROLE_CODES.__getitem__,
        "Head / spare role within the node's current cell.",
    )
    energy = _Field("energy", float, doc="Remaining battery energy in joules.")
    initial_energy = _Field(
        "initial_energy", float, doc="Battery capacity the node started with."
    )
    moved_distance = _Field(
        "moved_distance", float, doc="Total distance moved so far, in metres."
    )
    move_count = _Field(
        "move_count", int, doc="Number of relocation moves performed so far."
    )

    def __init__(
        self,
        node_id: int,
        position: Point,
        state: NodeState = NodeState.ENABLED,
        role: NodeRole = NodeRole.UNASSIGNED,
        energy: float = DEFAULT_BATTERY_CAPACITY,
        initial_energy: Optional[float] = None,
        moved_distance: float = 0.0,
        move_count: int = 0,
        position_history: Optional[List[Point]] = None,
    ) -> None:
        if node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {node_id}")
        if energy < 0:
            raise ValueError(f"energy must be non-negative, got {energy}")
        if initial_energy is None:
            initial_energy = energy
        elif initial_energy < 0:
            raise ValueError(
                f"initial_energy must be non-negative, got {initial_energy}"
            )
        self.node_id = node_id
        self._arrays = None
        self._row = -1
        self._position = position
        self._state = state
        self._role = role
        self._energy = energy
        self._initial_energy = initial_energy
        self._moved_distance = moved_distance
        self._move_count = move_count
        self._history = list(position_history) if position_history else None

    # ------------------------------------------------------------- array view
    @classmethod
    def _bound(cls, arrays, row: int) -> "SensorNode":
        """Create a handle reading/writing row ``row`` of ``arrays``."""
        node = cls.__new__(cls)
        node.node_id = int(arrays.node_ids[row])
        node._history = None
        node._bind(arrays, row)
        return node

    def _bind(self, arrays, row: int) -> None:
        """Attach this (already array-snapshotted) node to its backing row."""
        self._arrays = arrays
        self._row = row

    @property
    def is_bound(self) -> bool:
        """Whether the node is a view onto a ``NodeArrays`` row."""
        return self._arrays is not None

    # --------------------------------------------------------------- accessors
    @property
    def position(self) -> Point:
        """Current location in the surveillance plane (metres)."""
        if self._arrays is None:
            return self._position
        x, y = self._arrays.positions[self._row].tolist()
        return Point(x, y)

    @position.setter
    def position(self, value: Point) -> None:
        """Set the location (array-backed when bound)."""
        if self._arrays is None:
            self._position = value
        else:
            self._arrays.positions[self._row] = (value.x, value.y)

    @property
    def position_history(self) -> List[Point]:
        """Recorded past positions (empty unless history recording was used)."""
        return self._history if self._history is not None else []

    @position_history.setter
    def position_history(self, value: Optional[List[Point]]) -> None:
        """Replace the recorded history (``None``/empty clears it)."""
        self._history = list(value) if value else None

    # ------------------------------------------------------------------ state
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

    def disable(self, reason: NodeState = NodeState.FAILED) -> None:
        """Remove the node from the collaboration (failure or misbehaviour)."""
        if reason is NodeState.ENABLED:
            raise ValueError("disable() requires a non-enabled reason state")
        self.state = reason
        self.role = NodeRole.UNASSIGNED

    def enable(self) -> None:
        """Re-admit the node to the collaboration (e.g. after re-attestation)."""
        self.state = NodeState.ENABLED
        self.role = NodeRole.UNASSIGNED

    # ------------------------------------------------------------------- move
    def relocate(
        self,
        target: Point,
        record_history: bool = False,
        cost_per_meter: float = MOVE_COST_PER_METER,
    ) -> float:
        """Move the node to ``target`` and account for distance and energy.

        Returns the distance travelled.  Raises :class:`RuntimeError` when the
        node is disabled — disabled nodes cannot take part in replacement —
        or when its battery is depleted: a node with an empty battery has no
        motor power left, consistent with the engine-level depletion
        semantics that disable such nodes outright.
        """
        if not self.is_enabled:
            raise RuntimeError(f"node {self.node_id} is disabled and cannot move")
        if self.is_battery_depleted:
            raise RuntimeError(
                f"node {self.node_id} has a depleted battery and cannot move"
            )
        source = self.position
        distance = source.distance_to(target)
        if record_history:
            if self._history is None:
                self._history = []
            self._history.append(source)
            if len(self._history) > POSITION_HISTORY_LIMIT:
                del self._history[: len(self._history) - POSITION_HISTORY_LIMIT]
        self.position = target
        self.moved_distance = self.moved_distance + distance
        self.move_count = self.move_count + 1
        self.consume_energy(distance * cost_per_meter)
        return distance

    # ----------------------------------------------------------------- energy
    def consume_energy(self, amount: float) -> None:
        """Subtract ``amount`` joules, clamping at zero."""
        if amount < 0:
            raise ValueError(f"energy amount must be non-negative, got {amount}")
        self.energy = max(0.0, self.energy - amount)

    @property
    def is_battery_depleted(self) -> bool:
        """Whether the battery is empty (remaining energy at or below zero)."""
        return self.energy <= 0.0

    def charge_message_cost(self, messages: int = 1, cost: float = MESSAGE_COST) -> None:
        """Account for the transmission cost of ``messages`` control messages."""
        self.consume_energy(cost * messages)

    def reset_energy(self, capacity: float) -> None:
        """Install a fresh battery of ``capacity`` joules (scenario setup hook)."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.energy = capacity
        self.initial_energy = capacity

    @property
    def consumed_energy(self) -> float:
        """Energy spent since deployment (joules); clamping never goes negative."""
        return max(0.0, (self.initial_energy or 0.0) - self.energy)

    # ------------------------------------------------------------------ copy
    def copy(self) -> "SensorNode":
        """Independent (unbound) copy of the node's current field values."""
        return SensorNode(
            node_id=self.node_id,
            position=self.position,
            state=self.state,
            role=self.role,
            energy=self.energy,
            initial_energy=self.initial_energy,
            moved_distance=self.moved_distance,
            move_count=self.move_count,
            position_history=list(self._history) if self._history else None,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SensorNode):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and self.position == other.position
            and self.state is other.state
            and self.role is other.role
            and self.energy == other.energy
            and self.initial_energy == other.initial_energy
            and self.moved_distance == other.moved_distance
            and self.move_count == other.move_count
            and self.position_history == other.position_history
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SensorNode(id={self.node_id}, pos=({self.position.x:.2f}, "
            f"{self.position.y:.2f}), state={self.state.value}, role={self.role.value})"
        )


def enabled_only(nodes) -> List[SensorNode]:
    """Filter an iterable of nodes down to the enabled ones."""
    return [node for node in nodes if node.is_enabled]


def find_node(nodes, node_id: int) -> Optional[SensorNode]:
    """Linear search for a node by id (convenience for small collections)."""
    for node in nodes:
        if node.node_id == node_id:
            return node
    return None
