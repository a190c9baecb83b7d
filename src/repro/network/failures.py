"""Failure and attack injection.

Holes appear in the surveillance area when sensors fail, run out of battery,
or are disabled because they misbehave (Section 1 of the paper; jamming
attacks in particular can depopulate whole regions).  Failure models operate
on a :class:`repro.network.state.WsnState` and return the ids of the nodes
they disabled, so the caller can log them or re-run head election.

The module has two layers:

* the **imperative** layer — :class:`FailureModel` subclasses, constructed in
  code and applied to a state; and
* the **declarative** layer — :class:`FailureEvent`, a frozen
  ``(round, kind, params)`` triple naming a model from :data:`FAILURE_KINDS`.
  Scenario files and :class:`~repro.experiments.orchestration.RunSpec` carry
  events (hashable, picklable, JSON/TOML-serializable);
  :func:`compile_failure_schedule` turns them into the per-round model
  mapping the engine consumes.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.grid.geometry import BoundingBox, Point
from repro.grid.virtual_grid import GridCoord
from repro.network.node import NodeState
from repro.sim.rng import draw_uniforms
from repro.validation import checked_int, finite_float


class FailureModel(abc.ABC):
    """A way of disabling nodes in a network state."""

    @abc.abstractmethod
    def apply(self, state, rng: random.Random) -> List[int]:
        """Disable nodes in ``state`` and return the ids of the disabled nodes."""

    def __call__(self, state, rng: random.Random) -> List[int]:
        return self.apply(state, rng)


@dataclass
class RandomFailure(FailureModel):
    """Disable each enabled node independently with probability ``probability``.

    Alternatively an absolute ``count`` of nodes to disable can be given.
    """

    probability: Optional[float] = None
    count: Optional[int] = None
    reason: NodeState = NodeState.FAILED

    def __post_init__(self) -> None:
        if (self.probability is None) == (self.count is None):
            raise ValueError("specify exactly one of probability or count")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.count is not None and self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")

    def apply(self, state, rng: random.Random) -> List[int]:
        """Disable the sampled victims and return their ids."""
        enabled_ids = state.enabled_node_ids()
        if self.probability is not None:
            # One draw per enabled node in deployment order, as a per-node
            # ``rng.random() < probability`` loop makes them.
            hit = draw_uniforms(rng, len(enabled_ids)) < self.probability
            victims = np.asarray(enabled_ids, dtype=np.int64)[hit].tolist()
        else:
            count = min(self.count or 0, len(enabled_ids))
            victims = rng.sample(enabled_ids, count)
        state.disable_nodes(victims, reason=self.reason)
        return victims


@dataclass
class ThinningToEnabledCount(FailureModel):
    """Disable random nodes until exactly ``target_enabled`` nodes remain enabled.

    This reproduces the workload of Section 5: deploy 5000 sensors, then
    disable nodes at random so that ``N + m*n`` enabled nodes remain, where
    ``N`` is the paper's x-axis ("number of spare nodes left in networks").
    """

    target_enabled: int
    reason: NodeState = NodeState.FAILED

    def __post_init__(self) -> None:
        if self.target_enabled < 0:
            raise ValueError(f"target_enabled must be non-negative, got {self.target_enabled}")

    def draw_victims(self, enabled_ids: List[int], rng: random.Random) -> List[int]:
        """The nodes to disable among ``enabled_ids`` (deployment order), in draw order.

        One ``rng.sample`` of the excess over ``target_enabled``; no draw
        when there is no excess.  :meth:`apply` disables these on a live
        state, and the scenario build marks them failed before it indexes.
        """
        excess = len(enabled_ids) - self.target_enabled
        if excess <= 0:
            return []
        return rng.sample(enabled_ids, excess)

    def apply(self, state, rng: random.Random) -> List[int]:
        """Disable random nodes until only ``target_enabled`` remain enabled."""
        victims = self.draw_victims(state.enabled_node_ids(), rng)
        state.disable_nodes(victims, reason=self.reason)
        return victims


@dataclass
class RegionJammingFailure(FailureModel):
    """Disable every enabled node inside a jammed region.

    The region is either a bounding box or a disk (centre + radius).  This is
    the "attacker causes the nodes to … deplete their battery power, which
    might reduce node density in certain areas" scenario from Section 1.
    """

    box: Optional[BoundingBox] = None
    center: Optional[Point] = None
    radius: Optional[float] = None
    reason: NodeState = NodeState.FAILED

    def __post_init__(self) -> None:
        # A disk is all-or-nothing: a partial spec (center without radius or
        # vice versa) must never silently collapse to "no disk given".
        if (self.center is None) != (self.radius is None):
            raise ValueError(
                "a disk region requires both center and radius; got "
                f"center={self.center!r}, radius={self.radius!r}"
            )
        disk_given = self.center is not None
        if self.box is None and not disk_given:
            raise ValueError("specify either box or (center and radius)")
        if self.box is not None and disk_given:
            raise ValueError("specify only one of box or (center and radius)")
        if self.radius is not None and self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    def apply(self, state, rng: random.Random) -> List[int]:
        """Disable every enabled node whose position lies inside the region."""
        arrays = state.arrays
        mask = arrays.enabled_mask()
        xs = arrays.positions[mask, 0]
        ys = arrays.positions[mask, 1]
        ids = arrays.node_ids[mask]
        if self.box is not None:
            inside = (
                (self.box.min_x <= xs)
                & (xs <= self.box.max_x)
                & (self.box.min_y <= ys)
                & (ys <= self.box.max_y)
            )
            victims = ids[inside].tolist()
        else:
            assert self.center is not None and self.radius is not None
            dx = xs - self.center.x
            dy = ys - self.center.y
            # Bounding-square prefilter, then the exact math.hypot test
            # Point.distance_to uses, so boundary cases resolve exactly as a
            # per-node distance check would.
            near = (np.abs(dx) <= self.radius) & (np.abs(dy) <= self.radius)
            victims = [
                node_id
                for node_id, ddx, ddy in zip(
                    ids[near].tolist(), dx[near].tolist(), dy[near].tolist()
                )
                if math.hypot(ddx, ddy) <= self.radius
            ]
        state.disable_nodes(victims, reason=self.reason)
        return victims


@dataclass
class TargetedCellFailure(FailureModel):
    """Disable every enabled node in an explicit set of cells.

    Creates deterministic holes, which is the most convenient way to unit-test
    the replacement controllers.
    """

    cells: Sequence[GridCoord]
    reason: NodeState = NodeState.MISBEHAVING

    def apply(self, state, rng: random.Random) -> List[int]:
        """Disable every enabled node located in one of the target cells."""
        target_cells = set(self.cells)
        for coord in target_cells:
            state.grid.validate_coord(coord)
        # The state maintains each node's flat cell index, so the victim scan
        # is a single membership test over the enabled rows.
        arrays = state.arrays
        flats = np.array(
            sorted(state.grid.flat_index(coord) for coord in target_cells),
            dtype=arrays.cell.dtype,
        )
        mask = arrays.enabled_mask() & np.isin(arrays.cell, flats)
        victims = arrays.node_ids[mask].tolist()
        state.disable_nodes(victims, reason=self.reason)
        return victims


@dataclass
class BatteryDepletionFailure(FailureModel):
    """Disable enabled nodes whose remaining energy is at or below ``threshold``.

    This is the one-shot form of the engine-driven depletion performed by
    :class:`repro.network.energy.EnergyModel` every round; use an energy model
    on the engine for continuous in-run depletion.
    """

    threshold: float = 0.0
    reason: NodeState = NodeState.DEPLETED

    def apply(self, state, rng: random.Random) -> List[int]:
        """Disable every enabled node at or below the energy threshold."""
        arrays = state.arrays
        mask = arrays.enabled_mask() & (arrays.energy <= self.threshold)
        victims = arrays.node_ids[mask].tolist()
        state.disable_nodes(victims, reason=self.reason)
        return victims


@dataclass
class CompositeFailure(FailureModel):
    """Apply several failure models in sequence."""

    models: Sequence[FailureModel] = field(default_factory=list)

    def apply(self, state, rng: random.Random) -> List[int]:
        """Apply every constituent model in order; returns all victim ids."""
        victims: List[int] = []
        for model in self.models:
            victims.extend(model.apply(state, rng))
        return victims


# ---------------------------------------------------------- declarative layer
#: Frozen parameter form: sorted ``(key, value)`` pairs with tuples for lists.
FrozenParams = Tuple[Tuple[str, object], ...]


def freeze_params(params: Mapping[str, object]) -> FrozenParams:
    """Canonical hashable form of a parameter mapping (sorted, tuples for lists)."""
    return tuple(sorted((key, _freeze_value(value)) for key, value in params.items()))


def _freeze_value(value: object) -> object:
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    return value


def thaw_params(params: FrozenParams) -> Dict[str, object]:
    """Inverse of :func:`freeze_params` (one level: values keep their tuples)."""
    return dict(params)


def _reason_from(params: Dict[str, object], kind: str, default: NodeState) -> NodeState:
    value = params.pop("reason", None)
    if value is None:
        return default
    if isinstance(value, NodeState):
        return value
    choices = sorted(s.value for s in NodeState if s is not NodeState.ENABLED)
    if not isinstance(value, str) or value not in choices:
        raise ValueError(
            f"failure kind {kind!r}: reason must be one of {choices}, got {value!r}"
        )
    return NodeState(value)


def _is_finite_number(value: object) -> bool:
    """Whether ``value`` converts to a finite float (``bool`` is not a number here)."""
    try:
        finite_float(value, "value")
    except ValueError:
        return False
    return True


def _checked_number(value: object, kind: str, key: str) -> float:
    finite_float(value, f"failure kind {kind!r}: parameter {key!r}")
    return value


def _require_number(params: Dict[str, object], kind: str, key: str) -> float:
    return _checked_number(params.pop(key, None), kind, key)


def _reject_unknown(params: Dict[str, object], kind: str, allowed: Sequence[str]) -> None:
    if params:
        raise ValueError(
            f"failure kind {kind!r} got unknown parameter(s) {sorted(params)}; "
            f"allowed: {sorted(allowed)}"
        )


def _point_from(value: object, kind: str, key: str) -> Point:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_finite_number(c) for c in value)
    ):
        raise ValueError(
            f"failure kind {kind!r}: parameter {key!r} must be an [x, y] pair "
            f"of finite numbers, got {value!r}"
        )
    return Point(float(value[0]), float(value[1]))


def _build_random(params: Dict[str, object]) -> FailureModel:
    reason = _reason_from(params, "random", NodeState.FAILED)
    probability = params.pop("probability", None)
    count = params.pop("count", None)
    _reject_unknown(params, "random", ("probability", "count", "reason"))
    if probability is not None:
        probability = _checked_number(probability, "random", "probability")
    if count is not None:
        count = int(_checked_number(count, "random", "count"))
    return RandomFailure(probability=probability, count=count, reason=reason)


def _build_thinning(params: Dict[str, object]) -> FailureModel:
    reason = _reason_from(params, "thinning", NodeState.FAILED)
    target = int(_require_number(params, "thinning", "target_enabled"))
    _reject_unknown(params, "thinning", ("target_enabled", "reason"))
    return ThinningToEnabledCount(target_enabled=target, reason=reason)


def _build_region_jamming(params: Dict[str, object]) -> FailureModel:
    reason = _reason_from(params, "region_jamming", NodeState.FAILED)
    box_value = params.pop("box", None)
    center_value = params.pop("center", None)
    radius_value = params.pop("radius", None)
    _reject_unknown(params, "region_jamming", ("box", "center", "radius", "reason"))
    box = None
    if box_value is not None:
        if (
            not isinstance(box_value, (list, tuple))
            or len(box_value) != 4
            or not all(_is_finite_number(c) for c in box_value)
        ):
            raise ValueError(
                "failure kind 'region_jamming': parameter 'box' must be "
                f"[min_x, min_y, max_x, max_y] of finite numbers, got {box_value!r}"
            )
        box = BoundingBox(
            float(box_value[0]), float(box_value[1]),
            float(box_value[2]), float(box_value[3]),
        )
    center = (
        _point_from(center_value, "region_jamming", "center")
        if center_value is not None
        else None
    )
    radius = (
        float(_checked_number(radius_value, "region_jamming", "radius"))
        if radius_value is not None
        else None
    )
    return RegionJammingFailure(box=box, center=center, radius=radius, reason=reason)


def _build_targeted_cells(params: Dict[str, object]) -> FailureModel:
    reason = _reason_from(params, "targeted_cells", NodeState.MISBEHAVING)
    cells_value = params.pop("cells", None)
    _reject_unknown(params, "targeted_cells", ("cells", "reason"))
    if not isinstance(cells_value, (list, tuple)) or not cells_value:
        raise ValueError(
            "failure kind 'targeted_cells': parameter 'cells' must be a "
            f"non-empty list of [x, y] pairs, got {cells_value!r}"
        )
    cells = []
    for entry in cells_value:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in entry)
        ):
            raise ValueError(
                "failure kind 'targeted_cells': every cell must be an [x, y] "
                f"pair of integers, got {entry!r}"
            )
        cells.append(GridCoord(entry[0], entry[1]))
    return TargetedCellFailure(cells=tuple(cells), reason=reason)


def _build_battery_depletion(params: Dict[str, object]) -> FailureModel:
    reason = _reason_from(params, "battery_depletion", NodeState.DEPLETED)
    threshold = float(
        _checked_number(params.pop("threshold", 0.0), "battery_depletion", "threshold")
    )
    _reject_unknown(params, "battery_depletion", ("threshold", "reason"))
    return BatteryDepletionFailure(threshold=threshold, reason=reason)


#: Declarative failure kinds: name -> builder taking a plain parameter dict.
FAILURE_KINDS: Dict[str, Callable[[Dict[str, object]], FailureModel]] = {
    "random": _build_random,
    "thinning": _build_thinning,
    "region_jamming": _build_region_jamming,
    "targeted_cells": _build_targeted_cells,
    "battery_depletion": _build_battery_depletion,
}


def available_failure_kinds() -> Tuple[str, ...]:
    """All declarable failure kinds, sorted."""
    return tuple(sorted(FAILURE_KINDS))


def build_failure_model(kind: str, params: Mapping[str, object]) -> FailureModel:
    """Instantiate a failure model from its declarative ``(kind, params)`` form.

    Raises :class:`ValueError` with an actionable message on an unknown kind,
    an unknown parameter, or a malformed parameter value.  The parameter
    conventions are TOML/JSON-friendly: points are ``[x, y]`` pairs, boxes are
    ``[min_x, min_y, max_x, max_y]``, cells are ``[[x, y], ...]`` integer
    pairs, and ``reason`` is a lowercase :class:`NodeState` value name.
    """
    try:
        builder = FAILURE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown failure kind {kind!r}; available: {list(available_failure_kinds())}"
        ) from None
    payload = {key: _thaw_value(value) for key, value in dict(params).items()}
    return builder(payload)


def _thaw_value(value: object) -> object:
    if isinstance(value, tuple):
        return [_thaw_value(item) for item in value]
    return value


@dataclass(frozen=True)
class FailureEvent:
    """A scheduled, declaratively-named failure: ``(round, kind, params)``.

    This is the form scenario files and
    :class:`~repro.experiments.orchestration.RunSpec` carry: frozen (hashable
    and picklable, so specs stay cache keys) and built from plain JSON/TOML
    values.  ``params`` is stored in the canonical sorted-tuple form of
    :func:`freeze_params`; use :meth:`with_params` to construct from a dict.
    The named model is validated eagerly, so a bad event fails at
    construction time with the builder's actionable error, not mid-run.
    """

    round: int
    kind: str
    params: FrozenParams = ()

    def __post_init__(self) -> None:
        # A round that is not an int would key a schedule entry no round reaches.
        object.__setattr__(self, "round", checked_int(self.round, "failure round"))
        if self.round < 0:
            raise ValueError(f"failure round must be non-negative, got {self.round}")
        object.__setattr__(self, "params", freeze_params(dict(self.params)))
        self.build()  # eager validation; the model itself is discarded

    @classmethod
    def with_params(cls, round: int, kind: str, **params: object) -> "FailureEvent":
        """Build an event from keyword parameters (``freeze_params`` applied)."""
        return cls(round=round, kind=kind, params=freeze_params(params))

    def build(self) -> FailureModel:
        """Instantiate the failure model this event names."""
        return build_failure_model(self.kind, thaw_params(self.params))


def compile_failure_schedule(
    events: Iterable[FailureEvent],
) -> Dict[int, FailureModel]:
    """Turn declarative events into the engine's ``{round: model}`` schedule.

    Events sharing a round are composed (in event order) into one
    :class:`CompositeFailure`, because the engine applies at most one model
    per round.
    """
    per_round: Dict[int, List[FailureModel]] = {}
    for event in events:
        per_round.setdefault(event.round, []).append(event.build())
    return {
        round_index: models[0] if len(models) == 1 else CompositeFailure(models=models)
        for round_index, models in per_round.items()
    }
