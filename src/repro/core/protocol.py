"""Controller interface and replacement-process bookkeeping.

Both the paper's SR scheme and the AR baseline repair holes through
*replacement processes*: a process starts when some head decides to fill a
vacant cell, every cascading move belongs to the process that caused it, and
the process ends either by *converging* (a spare node was found, so the last
move did not create a new vacancy) or by *failing* (the cascade dead-ended or
exceeded its hop budget).  The per-process records defined here are what the
experiments of Section 5 aggregate: number of processes initiated, number of
node movements, total moving distance, and success rate.

Heads talk only through the run's control channel, which the engine binds
to the controller before the first round: a head posts a replacement request,
the engine delivers it in a later round, and on unreliable channels the
controller's retry layer resends it until it is acknowledged or its budget
runs out.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._sums import sequential_sum
from repro.grid.virtual_grid import GridCoord
from repro.network.channel import ChannelState
from repro.network.messages import Message, MessageKind
from repro.network.mobility import MoveRecord
from repro.network.state import WsnState


class ProcessStatus(enum.Enum):
    """Lifecycle of a replacement process."""

    ACTIVE = "active"
    CONVERGED = "converged"
    FAILED = "failed"


@dataclass
class ReplacementProcess:
    """One replacement process serving one detected hole."""

    process_id: int
    origin_cell: GridCoord
    initiator_cell: GridCoord
    started_round: int
    status: ProcessStatus = ProcessStatus.ACTIVE
    finished_round: Optional[int] = None
    moves: List[MoveRecord] = field(default_factory=list)
    notifications_sent: int = 0

    @property
    def move_count(self) -> int:
        """Number of node movements performed by this process so far."""
        return len(self.moves)

    @property
    def total_distance(self) -> float:
        """Total moving distance (metres) of this process so far."""
        return sequential_sum(move.distance for move in self.moves)

    @property
    def is_active(self) -> bool:
        """Whether the process is still running."""
        return self.status is ProcessStatus.ACTIVE

    @property
    def converged(self) -> bool:
        """Whether the process finished successfully (its hole was repaired)."""
        return self.status is ProcessStatus.CONVERGED

    @property
    def failed(self) -> bool:
        """Whether the process failed (its cascade dead-ended)."""
        return self.status is ProcessStatus.FAILED

    def mark_converged(self, round_index: int) -> None:
        """Mark the process successfully finished in ``round_index``."""
        self.status = ProcessStatus.CONVERGED
        self.finished_round = round_index

    def mark_failed(self, round_index: int) -> None:
        """Mark the process failed in ``round_index``."""
        self.status = ProcessStatus.FAILED
        self.finished_round = round_index


@dataclass
class _PendingRequest:
    """Sender-side bookkeeping for one unacknowledged replacement request.

    Unreliable channels engage this reliability layer: the sender keeps the
    request's addressing, and resends it when no
    :attr:`~repro.network.messages.MessageKind.REPLACEMENT_ACK` for its key
    arrives within the channel's ack timeout.  ``key`` is
    ``(process_id, vacancy)`` — the protocol-level identity of the request,
    stable across retransmissions.
    """

    key: Tuple[int, Tuple[int, int]]
    target_cell: GridCoord
    sender_id: int
    last_sent_round: int
    #: Controller-wide serial of the request, echoed in every retransmission
    #: and acknowledgement.  A cascade may revisit the same cell within one
    #: process, reusing the ``(process_id, vacancy)`` key; the nonce stops a
    #: late acknowledgement of the *older* request from settling the newer
    #: request's entry.
    nonce: int = 0
    retries: int = 0


@dataclass
class RoundOutcome:
    """What happened during one synchronous round."""

    round_index: int
    moves: List[MoveRecord] = field(default_factory=list)
    processes_started: List[int] = field(default_factory=list)
    processes_converged: List[int] = field(default_factory=list)
    processes_failed: List[int] = field(default_factory=list)
    messages_sent: int = 0

    @property
    def move_count(self) -> int:
        """Number of movements performed this round."""
        return len(self.moves)

    @property
    def total_distance(self) -> float:
        """Total distance (metres) moved this round."""
        return sequential_sum(move.distance for move in self.moves)

    @property
    def made_progress(self) -> bool:
        """Whether anything at all happened in the round."""
        return bool(
            self.moves
            or self.processes_started
            or self.processes_converged
            or self.processes_failed
            or self.messages_sent
        )


class MobilityController(abc.ABC):
    """A distributed hole-recovery scheme driven by the round-based engine.

    A controller is bound to one :class:`~repro.network.state.WsnState` and
    mutates it (through :meth:`WsnState.move_node`) as its heads act.  The
    engine binds the run's control channel (:meth:`bind_channel`), then in
    every synchronous round hands the channel's deliveries to
    :meth:`handle_messages` and calls :meth:`execute_round`.
    """

    #: Human-readable scheme name used in metric records and plots.
    name: str = "controller"

    #: Processes that converged without moving anything.  Only AR aborts a
    #: process as redundant; it overrides this with a property.
    redundant_processes: int = 0

    def __init__(self) -> None:
        self._processes: Dict[int, ReplacementProcess] = {}
        self._next_process_id = 0
        #: The run's control channel; the engine binds it before the first
        #: round.
        self.channel: Optional[ChannelState] = None
        #: Requests awaiting acknowledgement, keyed by ``(process_id, vacancy)``.
        self._awaiting_ack: Dict[Tuple[int, Tuple[int, int]], _PendingRequest] = {}
        #: Serial stamped into each tracked request (see ``_PendingRequest.nonce``).
        self._request_nonce = 0

    # -------------------------------------------------------------- messaging
    def bind_channel(self, channel: ChannelState) -> None:
        """Attach the run's control channel (called by the engine).

        Binding clears the messaging state (pending acknowledgements and the
        subclass delivery gates): a controller may be reused across engine
        runs, and a gate waiting on a message that only exists in a previous
        run's mailbox would otherwise block its cascade forever.
        """
        self.channel = channel
        self._awaiting_ack.clear()
        self._reset_messaging_state()

    def _reset_messaging_state(self) -> None:
        """Hook: clear subclass delivery-gating state (default: no-op)."""

    def handle_messages(
        self,
        state: WsnState,
        inbox: Dict[GridCoord, List[Message]],
        round_index: int,
    ) -> None:
        """Process this round's channel deliveries (called by the engine).

        Requests are dispatched to :meth:`_on_request_delivered` and — on
        unreliable channels — acknowledged by the destination cell's head;
        acknowledgements settle the sender-side retry entries.  A request
        addressed to a cell that currently has no head is not acknowledged,
        so the sender's retry keeps the cascade alive until a head exists.
        """
        acknowledge = self.channel.requires_ack
        for cell, messages in inbox.items():
            for message in messages:
                if message.kind is MessageKind.REPLACEMENT_ACK:
                    pending = self._awaiting_ack.get(self._message_key(message))
                    if pending is not None and (
                        (message.payload or {}).get("req") == pending.nonce
                    ):
                        del self._awaiting_ack[pending.key]
                    continue
                self._on_request_delivered(state, message, round_index)
                if acknowledge and (message.payload or {}).get("ack", True):
                    head_id = state.head_id_of(cell)
                    if head_id is not None and state.energy_of(head_id) > 0.0:
                        self.channel.send(
                            MessageKind.REPLACEMENT_ACK,
                            source_cell=cell,
                            target_cell=message.source_cell,
                            round_index=round_index,
                            sender_id=head_id,
                            process_id=message.process_id,
                            payload=dict(message.payload or {}),
                        )

    @property
    def pending_acknowledgements(self) -> int:
        """Requests still awaiting an acknowledgement (unreliable channels only)."""
        return len(self._awaiting_ack)

    @staticmethod
    def _message_key(message: Message) -> Tuple[int, Tuple[int, int]]:
        """The ``(process_id, vacancy)`` identity of a request/ack pair."""
        vacancy = tuple((message.payload or {}).get("vacancy", (-1, -1)))
        return (message.process_id if message.process_id is not None else -1, vacancy)

    def _on_request_delivered(
        self, state: WsnState, message: Message, round_index: int
    ) -> None:
        """Hook: a replacement request reached its destination (default: no-op)."""

    def _on_request_abandoned(
        self,
        state: WsnState,
        key: Tuple[int, Tuple[int, int]],
        round_index: int,
        outcome: "RoundOutcome",
    ) -> None:
        """Hook: a request exhausted its retry budget (default: no-op)."""

    def _post_replacement_request(
        self,
        state: WsnState,
        sender_id: int,
        source_cell: GridCoord,
        target_cell: GridCoord,
        vacancy: GridCoord,
        process_id: int,
        round_index: int,
        reliable: bool = True,
    ) -> None:
        """Send one replacement request through the channel.

        A reliable request gates the cascade: the caller waits for its
        delivery, and on unreliable channels it is tracked for
        acknowledgement and retried.  With ``reliable=False`` the message is
        advisory (fire-and-forget): it is neither acknowledged nor retried,
        and delivery gates nothing.  The channel's debit hook charges the
        sender.
        """
        channel = self.channel
        payload = {"vacancy": tuple(vacancy)}
        if not reliable:
            payload["ack"] = False
        track = reliable and not channel.reliable
        if track:
            payload["req"] = self._request_nonce
        channel.send(
            MessageKind.REPLACEMENT_REQUEST,
            source_cell,
            target_cell,
            round_index,
            sender_id,
            process_id,
            payload,
        )
        if track:
            key = (process_id, payload["vacancy"])
            self._awaiting_ack[key] = _PendingRequest(
                key=key,
                target_cell=target_cell,
                sender_id=sender_id,
                last_sent_round=round_index,
                nonce=self._request_nonce,
            )
            self._request_nonce += 1

    def _service_retries(
        self, state: WsnState, round_index: int, outcome: "RoundOutcome"
    ) -> None:
        """Resend timed-out requests; abandon those out of budget.

        Controllers that send gated requests call this at the top of every
        round.  Only unreliable channels ever populate the pending table, so
        this is a no-op on perfect/delayed channels, and on any channel
        while nothing awaits an acknowledgement.
        """
        if not self._awaiting_ack:
            return
        for key in sorted(self._awaiting_ack):
            pending = self._awaiting_ack[key]
            process = self._processes.get(key[0])
            if process is None or not process.is_active:
                del self._awaiting_ack[key]
                continue
            if round_index - pending.last_sent_round < self.channel.model.ack_timeout:
                continue
            sender_id = pending.sender_id
            exhausted = pending.retries >= self.channel.model.max_retries
            if (
                exhausted
                or not state.is_node_enabled(sender_id)
                or state.energy_of(sender_id) <= 0.0
            ):
                del self._awaiting_ack[key]
                self._on_request_abandoned(state, key, round_index, outcome)
                continue
            self.channel.send(
                MessageKind.REPLACEMENT_REQUEST,
                source_cell=state.cell_of_node(sender_id),
                target_cell=pending.target_cell,
                round_index=round_index,
                sender_id=sender_id,
                process_id=key[0],
                payload={"vacancy": key[1], "req": pending.nonce},
            )
            pending.retries += 1
            pending.last_sent_round = round_index
            outcome.messages_sent += 1

    # ----------------------------------------------------------------- rounds
    @abc.abstractmethod
    def execute_round(
        self, state: WsnState, rng: random.Random, round_index: int
    ) -> RoundOutcome:
        """Run one synchronous round of the scheme on ``state``."""

    def is_quiescent(self, state: WsnState) -> bool:
        """Whether the controller has no pending work of its own.

        The engine combines this with the hole count and the per-round
        progress flag to decide when to stop.
        """
        return not any(process.is_active for process in self._processes.values())

    def finalize(self, state: WsnState, round_index: int) -> None:
        """Hook: settle bookkeeping after the engine's last round (default: no-op)."""

    # -------------------------------------------------------------- processes
    def processes(self) -> List[ReplacementProcess]:
        """All replacement processes ever started, in creation order."""
        return [self._processes[pid] for pid in sorted(self._processes)]

    def active_processes(self) -> List[ReplacementProcess]:
        """The processes still running, in creation order."""
        return [p for p in self.processes() if p.is_active]

    def process(self, process_id: int) -> ReplacementProcess:
        """The process with id ``process_id`` (KeyError when unknown)."""
        return self._processes[process_id]

    def _start_process(
        self, origin_cell: GridCoord, initiator_cell: GridCoord, round_index: int
    ) -> ReplacementProcess:
        process = ReplacementProcess(
            process_id=self._next_process_id,
            origin_cell=origin_cell,
            initiator_cell=initiator_cell,
            started_round=round_index,
        )
        self._processes[process.process_id] = process
        self._next_process_id += 1
        return process

    # ------------------------------------------------------------- aggregates
    @property
    def total_processes(self) -> int:
        """Number of replacement processes ever started."""
        return len(self._processes)

    @property
    def total_moves(self) -> int:
        """Total node movements across all processes."""
        return sum(p.move_count for p in self._processes.values())

    @property
    def total_distance(self) -> float:
        """Total moving distance (metres) across all processes."""
        return sequential_sum(p.total_distance for p in self._processes.values())

    @property
    def converged_processes(self) -> int:
        """Number of processes that finished successfully."""
        return sum(1 for p in self._processes.values() if p.converged)

    @property
    def failed_processes(self) -> int:
        """Number of processes that failed."""
        return sum(1 for p in self._processes.values() if p.failed)

    @property
    def success_rate(self) -> float:
        """Fraction of finished-or-active processes that converged (0..1).

        Matches the paper's Figure 6(b): the percentage of initiated
        replacement processes that approach a spare node and converge.
        Processes still active when the simulation stops count as failures,
        because they did not converge within the allotted rounds.
        """
        if not self._processes:
            return 1.0
        return self.converged_processes / len(self._processes)

    def describe(self) -> str:
        """One-line summary used by examples and debug output."""
        return (
            f"{self.name}: processes={self.total_processes} "
            f"(converged={self.converged_processes}, failed={self.failed_processes}), "
            f"moves={self.total_moves}, distance={self.total_distance:.1f} m"
        )
