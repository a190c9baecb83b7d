"""Pluggable communication-channel models for control-message traffic.

The paper assumes a perfect one-round-latency control channel: a notification
sent in round ``t`` is always received in round ``t + 1``.  This module makes
that assumption a *pluggable model* so scenarios can stress the schemes under
degraded communication, exactly the way the failure layer stresses them with
degraded sensing:

* the **declarative** layer — :class:`ChannelModel`, a frozen
  ``(kind, params, ack_timeout, max_retries)`` description naming a kind from
  :data:`CHANNEL_KINDS`.  Scenario files (their ``[channel]`` table) and
  :class:`~repro.experiments.orchestration.RunSpec` carry models (hashable,
  picklable, JSON/TOML-serializable, covered by the run-cache key);
* the **runtime** layer — :class:`ChannelState`, built per run by
  :func:`build_channel`.  It owns the run's single
  :class:`~repro.network.messages.Mailbox`, applies the kind's delivery
  semantics (latency, i.i.d. drops, spatial jamming), records the traffic
  statistics the metrics layer reports, and logs every transmission so the
  engine can debit message energy from the actual senders.

Shipped kinds
-------------

``perfect``
    Today's semantics: every message is delivered exactly one round after it
    was sent.  This is the default; runs under it are bit-identical to runs
    of the pre-channel codebase.
``lossy``
    Each message is independently dropped with probability
    ``drop_probability``, decided by the channel's own seeded RNG stream (so
    loss patterns are reproducible and independent of the controller
    stream).  Unreliable: receivers acknowledge requests and senders resend
    unacknowledged ones.
``delayed``
    Reliable, but every message takes ``latency`` rounds instead of one —
    the round-based analogue of a slow relay backbone.
``jammed``
    Perfect outside a spatio-temporal blackout: messages sent while
    ``from_round <= round < until_round`` whose source or destination cell
    lies inside the jammed cell rectangle ``region = [x0, y0, x1, y1]``
    (inclusive) are dropped.  Composes with the failure layer's
    ``region_jamming`` to model an attack that takes out both sensing and
    comms in an area.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.grid.virtual_grid import GridCoord
from repro.network.failures import FrozenParams, freeze_params, thaw_params
from repro.network.messages import Mailbox, Message, MessageKind
from repro.validation import finite_float

__all__ = [
    "CHANNEL_KINDS",
    "ChannelModel",
    "ChannelState",
    "ChannelStats",
    "DEFAULT_CHANNEL",
    "available_channel_kinds",
    "build_channel",
    "channel_from_dict",
    "channel_to_dict",
    "parse_channel_spec",
]


@dataclass(frozen=True)
class ChannelModel:
    """Declarative description of a run's control channel.

    Attributes
    ----------
    kind:
        Name of the channel kind, resolved through :data:`CHANNEL_KINDS`.
    params:
        Kind-specific parameters in the canonical sorted-tuple form of
        :func:`~repro.network.failures.freeze_params` (use
        :meth:`with_params` to construct from keywords).
    ack_timeout:
        Rounds a sender waits for a :attr:`~repro.network.messages.MessageKind.REPLACEMENT_ACK`
        before resending a request (only used by unreliable kinds).
    max_retries:
        Resend budget per request; once exhausted the owning replacement
        process gives up and is marked failed.
    """

    kind: str = "perfect"
    params: FrozenParams = ()
    ack_timeout: int = 3
    max_retries: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(dict(self.params)))
        if self.ack_timeout < 1:
            raise ValueError(f"ack_timeout must be >= 1, got {self.ack_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        # Eager validation: a bad kind or parameter set fails at construction
        # time with the builder's actionable error, not mid-run.
        build_channel(self, random.Random(0))

    @classmethod
    def with_params(cls, kind: str, *, ack_timeout: int = 3, max_retries: int = 8, **params: object) -> "ChannelModel":
        """Build a model from keyword parameters (``freeze_params`` applied)."""
        return cls(
            kind=kind,
            params=freeze_params(params),
            ack_timeout=ack_timeout,
            max_retries=max_retries,
        )

    @property
    def reliable(self) -> bool:
        """Whether the kind never drops messages (no ack/retry layer needed)."""
        return KIND_RELIABILITY[self.kind]


@dataclass(frozen=True)
class ChannelStats:
    """Aggregate traffic statistics of one run's channel."""

    sent: int
    delivered: int
    dropped: int
    in_flight: int
    #: Mean rounds between send and delivery over the delivered messages
    #: (0.0 when nothing was delivered).
    mean_delivery_latency: float


class ChannelState:
    """Runtime channel of one run: owns the mailbox, applies the semantics.

    Parameters
    ----------
    model:
        The declarative model this runtime state implements.
    rng:
        Seeded stream deciding stochastic drops; independent of the
        controller stream so loss patterns do not perturb movement targets.
    latency:
        Rounds between send and delivery of surviving messages.
    drop_probability:
        I.i.d. probability that a message is lost in transit.
    jam_region:
        Optional inclusive cell rectangle ``(x0, y0, x1, y1)``; messages
        touching it during the jam window are dropped.
    jam_window:
        ``(from_round, until_round)`` half-open round interval of the jam.

    Whether the channel can drop messages (engaging the controllers'
    ack/retry layer) is not a constructor knob: it is declared once per kind
    in :data:`KIND_RELIABILITY` and read from there, so the runtime and the
    documentation can never disagree about it.
    """

    def __init__(
        self,
        model: ChannelModel,
        rng: random.Random,
        latency: int = 1,
        drop_probability: float = 0.0,
        jam_region: Optional[Tuple[int, int, int, int]] = None,
        jam_window: Tuple[int, int] = (0, 0),
    ) -> None:
        self.model = model
        self.rng = rng
        self.mailbox = Mailbox(latency=latency)
        self.drop_probability = drop_probability
        self.jam_region = jam_region
        self.jam_window = jam_window
        self.reliable = KIND_RELIABILITY[model.kind]
        self._dropped_count = 0
        self._sent_total = 0
        self._latency_total = 0
        #: Charged with the sender's node id at the moment of each
        #: transmission (delivered or dropped — the radio fired either way).
        #: The engine installs a hook that debits the configured message cost
        #: from the sender's battery, so the energy books reflect the send
        #: within the round it happens, exactly like the movement debit.
        self.debit_hook: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------ stats
    @property
    def sent_count(self) -> int:
        """Messages ever transmitted (delivered, dropped, or still in flight)."""
        return self._sent_total

    @property
    def delivered_count(self) -> int:
        """Messages ever delivered to their destination cell."""
        return self.mailbox.delivered_count

    @property
    def dropped_count(self) -> int:
        """Messages lost in transit (drops and jamming)."""
        return self._dropped_count

    @property
    def pending_count(self) -> int:
        """Messages still in flight."""
        return self.mailbox.pending_count

    @property
    def mean_delivery_latency(self) -> float:
        """Mean rounds between send and delivery (0.0 with no deliveries)."""
        delivered = self.mailbox.delivered_count
        return self._latency_total / delivered if delivered else 0.0

    @property
    def requires_ack(self) -> bool:
        """Whether senders must track acknowledgements and retry."""
        return not self.reliable

    def stats(self) -> ChannelStats:
        """Snapshot of the channel's aggregate traffic statistics."""
        return ChannelStats(
            sent=self.sent_count,
            delivered=self.delivered_count,
            dropped=self.dropped_count,
            in_flight=self.pending_count,
            mean_delivery_latency=self.mean_delivery_latency,
        )

    # ------------------------------------------------------------------ wire
    def _is_jammed(self, message: Message) -> bool:
        if self.jam_region is None:
            return False
        start, end = self.jam_window
        if not start <= message.sent_round < end:
            return False
        x0, y0, x1, y1 = self.jam_region
        for cell in (message.source_cell, message.target_cell):
            if x0 <= cell.x <= x1 and y0 <= cell.y <= y1:
                return True
        return False

    def _is_lost(self, message: Message) -> bool:
        if self.jam_region is not None and self._is_jammed(message):
            return True
        return self.drop_probability > 0 and self.rng.random() < self.drop_probability

    def send(
        self,
        kind: MessageKind,
        source_cell: GridCoord,
        target_cell: GridCoord,
        round_index: int,
        sender_id: int,
        process_id: Optional[int] = None,
        payload: Optional[dict] = None,
    ) -> Message:
        """Transmit one message; it is queued or lost per the channel semantics.

        The transmission always costs energy (the radio fired either way), so
        the sender is logged for the engine's energy debit even when the
        message is dropped.
        """
        # Positional in field order: keyword arguments double the cost of
        # building the tuple, and every replacement hop sends a message.
        message = Message(
            kind,
            source_cell,
            target_cell,
            round_index,
            process_id,
            payload,
            sender_id,
            self.mailbox.stamp_id(),
        )
        self._sent_total += 1
        if self.debit_hook is not None:
            self.debit_hook(sender_id)
        if self._is_lost(message):
            self._dropped_count += 1
        else:
            self.mailbox.send(message)
        return message

    def deliver(self, round_index: int) -> Dict[GridCoord, List[Message]]:
        """Messages arriving this round, grouped by destination cell.

        The engine calls this once at the start of every round, before the
        controller acts — a message sent in round ``t`` is therefore first
        visible in round ``t + latency``, never earlier.
        """
        if not self.mailbox.pending_count:
            return {}
        inbox = self.mailbox.deliver(round_index)
        for messages in inbox.values():
            for message in messages:
                self._latency_total += round_index - message.sent_round
        return inbox


# ------------------------------------------------------------------ builders
def _checked_number(value: object, kind: str, key: str) -> float:
    finite_float(value, f"channel kind {kind!r}: parameter {key!r}")
    return value


def _reject_unknown(params: Dict[str, object], kind: str, allowed: Tuple[str, ...]) -> None:
    if params:
        raise ValueError(
            f"channel kind {kind!r} got unknown parameter(s) {sorted(params)}; "
            f"allowed: {sorted(allowed)}"
        )


def _build_perfect(model: ChannelModel, params: Dict[str, object], rng: random.Random) -> ChannelState:
    _reject_unknown(params, "perfect", ())
    return ChannelState(model, rng)


def _build_lossy(model: ChannelModel, params: Dict[str, object], rng: random.Random) -> ChannelState:
    probability = _checked_number(
        params.pop("drop_probability", None), "lossy", "drop_probability"
    )
    _reject_unknown(params, "lossy", ("drop_probability",))
    if not 0.0 <= probability < 1.0:
        raise ValueError(
            f"channel kind 'lossy': drop_probability must be in [0, 1), got {probability}"
        )
    return ChannelState(model, rng, drop_probability=float(probability))


def _build_delayed(model: ChannelModel, params: Dict[str, object], rng: random.Random) -> ChannelState:
    latency = int(_checked_number(params.pop("latency", None), "delayed", "latency"))
    _reject_unknown(params, "delayed", ("latency",))
    if latency < 1:
        raise ValueError(f"channel kind 'delayed': latency must be >= 1, got {latency}")
    return ChannelState(model, rng, latency=latency)


def _build_jammed(model: ChannelModel, params: Dict[str, object], rng: random.Random) -> ChannelState:
    region = params.pop("region", None)
    from_round = params.pop("from_round", None)
    until_round = params.pop("until_round", None)
    _reject_unknown(params, "jammed", ("region", "from_round", "until_round"))
    if (
        not isinstance(region, (list, tuple))
        or len(region) != 4
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in region)
    ):
        raise ValueError(
            "channel kind 'jammed': parameter 'region' must be an inclusive "
            f"cell rectangle [x0, y0, x1, y1] of integers, got {region!r}"
        )
    x0, y0, x1, y1 = region
    if x0 > x1 or y0 > y1:
        raise ValueError(
            f"channel kind 'jammed': region corners must be ordered, got {list(region)}"
        )
    start = int(_checked_number(from_round, "jammed", "from_round"))
    end = int(_checked_number(until_round, "jammed", "until_round"))
    if start < 0 or end <= start:
        raise ValueError(
            "channel kind 'jammed': need 0 <= from_round < until_round, got "
            f"from_round={start}, until_round={end}"
        )
    return ChannelState(
        model,
        rng,
        jam_region=(x0, y0, x1, y1),
        jam_window=(start, end),
    )


#: Declarative channel kinds: name -> builder taking the thawed parameter dict.
CHANNEL_KINDS: Dict[
    str, Callable[[ChannelModel, Dict[str, object], random.Random], ChannelState]
] = {
    "perfect": _build_perfect,
    "lossy": _build_lossy,
    "delayed": _build_delayed,
    "jammed": _build_jammed,
}


#: Whether each kind can lose messages; unreliable kinds engage the
#: controllers' ack/retry layer.  Kept next to :data:`CHANNEL_KINDS` so a new
#: kind must declare its reliability (the consistency check below enforces it).
KIND_RELIABILITY: Dict[str, bool] = {
    "perfect": True,
    "lossy": False,
    "delayed": True,
    "jammed": False,
}

assert set(KIND_RELIABILITY) == set(CHANNEL_KINDS), (
    "every channel kind must declare its reliability"
)


def available_channel_kinds() -> Tuple[str, ...]:
    """All declarable channel kinds, sorted."""
    return tuple(sorted(CHANNEL_KINDS))


def build_channel(model: ChannelModel, rng: random.Random) -> ChannelState:
    """Instantiate the runtime channel a :class:`ChannelModel` describes.

    Raises :class:`ValueError` with an actionable message on an unknown kind,
    an unknown parameter, or a malformed parameter value.
    """
    try:
        builder = CHANNEL_KINDS[model.kind]
    except KeyError:
        raise ValueError(
            f"unknown channel kind {model.kind!r}; "
            f"available: {list(available_channel_kinds())}"
        ) from None
    params = {key: _thaw_value(value) for key, value in thaw_params(model.params).items()}
    return builder(model, params, rng)


def _thaw_value(value: object) -> object:
    if isinstance(value, tuple):
        return [_thaw_value(item) for item in value]
    return value


#: The paper's communication assumption; the default everywhere.
DEFAULT_CHANNEL = ChannelModel()


def channel_to_dict(model: Optional[ChannelModel]) -> Optional[Dict[str, object]]:
    """Canonical JSON/TOML-compatible form of a channel model (``None`` passes through)."""
    if model is None:
        return None
    payload: Dict[str, object] = {"kind": model.kind}
    payload.update({key: _thaw_value(value) for key, value in model.params})
    payload["ack_timeout"] = model.ack_timeout
    payload["max_retries"] = model.max_retries
    return payload


def channel_from_dict(payload: Optional[Mapping[str, object]]) -> Optional[ChannelModel]:
    """Inverse of :func:`channel_to_dict` (``None`` passes through)."""
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise ValueError(f"channel must be a table, got {type(payload).__name__}")
    table = dict(payload)
    kind = table.pop("kind", None)
    if not isinstance(kind, str) or not kind:
        raise ValueError(
            f"channel kind must be one of {list(available_channel_kinds())}, got {kind!r}"
        )
    ack_timeout = table.pop("ack_timeout", 3)
    max_retries = table.pop("max_retries", 8)
    for name, value in (("ack_timeout", ack_timeout), ("max_retries", max_retries)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"channel {name} must be an integer, got {value!r}")
    return ChannelModel(
        kind=kind,
        params=freeze_params(table),
        ack_timeout=ack_timeout,
        max_retries=max_retries,
    )


def parse_channel_spec(text: str) -> ChannelModel:
    """Parse a compact CLI channel spec into a :class:`ChannelModel`.

    Accepted forms: ``perfect``, ``lossy:<drop_probability>``, and
    ``delayed:<latency>``.  The ``jammed`` kind needs a region and a window
    and is only expressible through a scenario file's ``[channel]`` table.
    """
    kind, _, argument = text.partition(":")
    kind = kind.strip()
    argument = argument.strip()
    if kind == "perfect":
        if argument:
            raise ValueError("channel spec 'perfect' takes no argument")
        return DEFAULT_CHANNEL
    if kind == "lossy":
        try:
            probability = float(argument)
        except ValueError:
            raise ValueError(
                f"channel spec 'lossy:<p>' needs a drop probability, got {text!r}"
            ) from None
        return ChannelModel.with_params("lossy", drop_probability=probability)
    if kind == "delayed":
        try:
            latency = int(argument)
        except ValueError:
            raise ValueError(
                f"channel spec 'delayed:<k>' needs an integer latency, got {text!r}"
            ) from None
        return ChannelModel.with_params("delayed", latency=latency)
    raise ValueError(
        f"unknown channel spec {text!r}; use 'perfect', 'lossy:<p>', 'delayed:<k>', "
        "or a scenario file's [channel] table for the 'jammed' kind"
    )
