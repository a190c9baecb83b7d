"""Round-based simulation engine.

The paper describes its schemes in a round-based system (Section 2): in every
round each head observes the cells it monitors, control messages sent in the
previous round arrive, and replacement moves complete "before the next round
starts".  :class:`RoundBasedEngine` drives one
:class:`~repro.core.protocol.MobilityController` through those synchronous
rounds, optionally injecting additional failures while the simulation runs
(dynamic holes), and collects the metrics the paper's evaluation reports.

Every run owns one control channel (:mod:`repro.network.channel`), the
paper's perfect one-round channel by default: the engine binds it to the
controller, delivers its messages at the start of every round, debits each
transmission from its sender, and counts the run's traffic from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.protocol import MobilityController, RoundOutcome
from repro.network.channel import (
    DEFAULT_CHANNEL,
    ChannelModel,
    ChannelStats,
    build_channel,
)
from repro.network.energy import EnergyModel, energy_summary, remaining_energy
from repro.network.failures import FailureModel
from repro.network.node import MESSAGE_COST
from repro.network.state import WsnState
from repro.sim.events import EventKind, EventLog
from repro.sim.rng import derive_rng
from repro.sim.metrics import RoundSeries, RunMetrics, collect_metrics, snapshot_state

#: Consecutive no-progress rounds after which the engine declares the run stalled.
DEFAULT_IDLE_ROUND_LIMIT = 3

#: Rounds per grid cell in the engine's default round bound (used when a run
#: sets no ``max_rounds``).
DEFAULT_ROUNDS_PER_CELL = 4


@dataclass
class SimulationResult:
    """Everything a caller may want to know after a recovery run."""

    metrics: RunMetrics
    rounds_executed: int
    stalled: bool
    #: Traffic statistics of the run's control channel.
    channel_stats: ChannelStats
    #: Whether the run hit ``max_rounds`` before finishing.  A bound-hit run
    #: with holes remaining is also reported as stalled: it did not converge,
    #: and must not be indistinguishable from a clean finish.
    exhausted: bool = False
    series: RoundSeries = field(default_factory=RoundSeries)
    event_log: Optional[EventLog] = None
    #: Ids of nodes the engine disabled as battery-depleted, in depletion order.
    depleted_nodes: List[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Whether the run ended with complete coverage (no holes left)."""
        return self.metrics.coverage_restored


class RoundBasedEngine:
    """Drives a controller through synchronous rounds until the network is repaired.

    Parameters
    ----------
    state:
        The network to repair; it is mutated in place.
    controller:
        The hole-recovery scheme under test (SR, AR, or an extension).
    rng:
        Random stream used for movement targets and controller tie-breaking.
    max_rounds:
        Hard bound on the number of rounds; by default
        :data:`DEFAULT_ROUNDS_PER_CELL` per cell, generous because a single
        cascading replacement needs at most ``m*n`` rounds.
    failure_schedule:
        Optional mapping from round index to a
        :class:`~repro.network.failures.FailureModel` applied at the start of
        that round — this is how dynamic hole creation is simulated.
    event_log:
        Optional :class:`~repro.sim.events.EventLog` receiving a trace of the run.
    idle_round_limit:
        Number of consecutive rounds without progress after which the run is
        declared stalled (holes remain but nobody can act on them).
    energy_model:
        Optional :class:`~repro.network.energy.EnergyModel` the engine applies
        at the start of every round: idle drain for every enabled node, then
        engine-driven depletion — nodes at or below the model's threshold are
        disabled, so new holes emerge from the energy physics mid-run.
    run_to_exhaustion:
        With an energy model whose idle drain is positive, do not stop when
        coverage is complete — keep draining until a hole becomes
        unrepairable (stall), the network dies, or ``max_rounds`` hits.  This
        is the run-until-network-death mode of the lifetime workloads.
    channel:
        The :class:`~repro.network.channel.ChannelModel` of the run's control
        traffic.  The default is the paper's perfect one-round channel: a
        message sent in round ``t`` is delivered at the start of round
        ``t + 1``.
    channel_seed:
        Seed of the channel's own random stream (stochastic drops); kept
        separate from ``rng`` so loss patterns never perturb movement
        targets.
    """

    def __init__(
        self,
        state: WsnState,
        controller: MobilityController,
        rng: random.Random,
        max_rounds: Optional[int] = None,
        failure_schedule: Optional[Dict[int, FailureModel]] = None,
        event_log: Optional[EventLog] = None,
        idle_round_limit: int = DEFAULT_IDLE_ROUND_LIMIT,
        energy_model: Optional[EnergyModel] = None,
        run_to_exhaustion: bool = False,
        channel: ChannelModel = DEFAULT_CHANNEL,
        channel_seed: int = 0,
    ) -> None:
        if idle_round_limit < 1:
            raise ValueError(f"idle_round_limit must be >= 1, got {idle_round_limit}")
        self.state = state
        self.controller = controller
        self.rng = rng
        default_bound = DEFAULT_ROUNDS_PER_CELL * state.grid.cell_count
        self.max_rounds = max_rounds if max_rounds is not None else default_bound
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        self.failure_schedule = dict(failure_schedule or {})
        # The schedule is fixed for the lifetime of the engine, so the last
        # scheduled round can be computed once instead of scanning the whole
        # schedule in every round's pending-failures check.
        self._last_scheduled_round = max(self.failure_schedule, default=-1)
        self.event_log = event_log
        self.idle_round_limit = idle_round_limit
        self.energy_model = energy_model
        self.run_to_exhaustion = run_to_exhaustion
        self.depleted_nodes: List[int] = []
        #: Optional per-round observer ``(round_index, sample_dict) -> None``
        #: called right after each round's series sample is recorded.  The
        #: serve layer uses it to stream live per-round series; it must not
        #: mutate state, and leaving it ``None`` (the default) keeps the hot
        #: loop free of any callback overhead beyond one attribute check.
        self.round_observer: Optional[Callable[[int, Dict[str, float]], None]] = None
        #: Joules debited per control-message transmission — the single
        #: source of truth for message energy, applied by the engine to every
        #: actual channel send.
        self._message_cost = (
            energy_model.message_cost if energy_model is not None else MESSAGE_COST
        )
        self.channel = build_channel(
            channel, derive_rng(channel_seed, f"channel:{channel.kind}")
        )
        # Message energy is debited at the moment of transmission — the same
        # in-round visibility the movement debit has, so a head that empties
        # its battery by transmitting is seen as depleted for the rest of the
        # round.
        self.channel.debit_hook = self._charge_sender
        controller.bind_channel(self.channel)
        if energy_model is not None:
            # Route the model's move rate into the node-level debit path
            # through the state's movement model (a copy with the new rate).
            if energy_model.move_cost_per_meter != state.movement_model.move_cost_per_meter:
                state.movement_model = state.movement_model.with_move_cost(
                    energy_model.move_cost_per_meter
                )

    # -------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        """Execute rounds until coverage is restored, the run stalls, or the bound hits."""
        state = self.state
        controller = self.controller
        channel = self.channel
        initial = snapshot_state(state)
        self._emit(
            EventKind.HOLE_DETECTED,
            round_index=0,
            holes=initial.holes,
            spares=initial.spares,
        )
        series = RoundSeries()
        idle_rounds = 0
        stalled = False
        exhausted = False
        rounds_executed = 0
        track_energy = self.energy_model is not None
        rng = self.rng
        failure_schedule = self.failure_schedule
        log_events = self.event_log is not None
        # Read once, after the engine bound the channel: a wrapper installed
        # on the instance before the run (a tracer's, a benchmark's) fires.
        deliver = channel.deliver
        handle_messages = controller.handle_messages
        execute_round = controller.execute_round

        for round_index in range(self.max_rounds):
            # Start-of-round physics: scheduled failures, then the energy model.
            if round_index in failure_schedule:
                self._inject_failures(round_index)
            round_depletions = self._apply_energy(round_index) if track_energy else 0
            sent_before = channel.sent_count
            dropped_before = channel.dropped_count
            # Control messages sent in earlier rounds arrive now, before any
            # head acts — the paper's one-round-latency assumption,
            # generalised to whatever the channel model dictates.
            inbox = deliver(round_index)
            if inbox:
                handle_messages(state, inbox, round_index)
            outcome = execute_round(state, rng, round_index)
            rounds_executed = round_index + 1
            if log_events:
                self._emit_outcome(outcome)
            move_count = outcome.move_count
            distance = outcome.total_distance if move_count else 0
            # hole_count and spare_count are O(1) reads of the state's
            # incremental indices, so per-round sampling stays cheap on
            # arbitrarily large grids.  The energy total is an O(enabled)
            # sweep, sampled only when an energy model is active.
            series.record(
                state.hole_count,
                move_count,
                distance,
                state.spare_count,
                remaining_energy(state)[0] if track_energy else None,
                round_depletions if track_energy else None,
                channel.sent_count - sent_before,
                channel.dropped_count - dropped_before,
            )
            if self.round_observer is not None:
                sample = {
                    "holes": series.holes[-1],
                    "moves": move_count,
                    "distance": distance,
                    "spares": series.spares[-1],
                }
                if track_energy:
                    sample["energy"] = series.energy[-1]
                    sample["depletions"] = round_depletions
                self.round_observer(round_index, sample)

            if outcome.made_progress or round_depletions:
                idle_rounds = 0
            else:
                idle_rounds += 1

            if self._finished(round_index):
                break
            if (
                idle_rounds >= self.idle_round_limit
                and not self._failures_pending(round_index)
                and not self._messaging_pending()
            ):
                if state.hole_count > 0:
                    # Holes remain and nobody has acted on them for the whole
                    # idle window: the run is stuck, in every mode.
                    stalled = True
                    break
                if not self._drain_active():
                    break
                # Coverage is complete but batteries are still draining in
                # run-to-exhaustion mode: keep going until depletion opens the
                # next hole (or the round bound hits).
        else:
            exhausted = True

        if exhausted and state.hole_count > 0:
            # The round bound hit with holes remaining: the run did not
            # converge and must not look like a clean finish.
            stalled = True

        final_round = rounds_executed
        # Let the controller settle its bookkeeping after the last round.
        controller.finalize(state, final_round)
        # The channel is the authority on traffic: every actual transmission
        # (requests, retries, acknowledgements) counts.
        metrics = collect_metrics(
            controller,
            state,
            initial,
            rounds_executed,
            channel.sent_count,
            # The battery summary is an O(all nodes) sweep — worth it only
            # when the run actually had energy physics to report on.
            energy=energy_summary(state) if track_energy else None,
            messages_dropped=channel.dropped_count,
            mean_delivery_latency=channel.mean_delivery_latency,
            messages_delivered=channel.delivered_count,
            messages_in_flight=channel.pending_count,
        )
        self._emit(
            EventKind.SIMULATION_FINISHED,
            round_index=final_round,
            holes=state.hole_count,
            moves=metrics.total_moves,
            distance=round(metrics.total_distance, 3),
        )
        return SimulationResult(
            metrics=metrics,
            rounds_executed=rounds_executed,
            stalled=stalled,
            exhausted=exhausted,
            series=series,
            event_log=self.event_log,
            depleted_nodes=list(self.depleted_nodes),
            channel_stats=channel.stats(),
        )

    # --------------------------------------------------------------- internal
    def _charge_sender(self, sender_id: int) -> None:
        """Debit one transmission from its sender (the channel's debit hook).

        This is the single message-energy accounting path: requests, retries,
        and acknowledgements all debit :attr:`_message_cost` joules from the
        node that fired the radio, whether or not the channel lost the
        message in transit.
        """
        self.state.debit_energy(sender_id, self._message_cost)

    def _messaging_pending(self) -> bool:
        """Whether control traffic is still in flight or awaiting retries.

        An idle window that merely spans a long delivery latency or ack
        timeout must not be mistaken for a stall: the cascade will resume
        (or give up, unblocking a real stall verdict) once the channel acts.
        """
        return self.channel.pending_count > 0 or self.controller.pending_acknowledgements > 0

    def _apply_energy(self, round_index: int) -> int:
        """Apply the energy model for one round; returns how many nodes depleted.

        The events' payloads are built only when an event log is attached.
        """
        victims = self.energy_model.apply_round(self.state)
        if not victims:
            return 0
        self.depleted_nodes.extend(victims)
        if self.event_log is not None:
            for node_id in victims:
                self._emit(
                    EventKind.NODE_DISABLED,
                    round_index=round_index,
                    node_id=node_id,
                    cause="battery-depleted",
                )
            self._emit(
                EventKind.HOLE_DETECTED,
                round_index=round_index,
                holes=self.state.hole_count,
            )
        return len(victims)

    def _drain_active(self) -> bool:
        """Whether run-to-exhaustion still has energy physics to play out."""
        return (
            self.run_to_exhaustion
            and self.energy_model is not None
            and self.energy_model.idle_cost_per_round > 0
            and self.state.enabled_count > 0
        )

    def _inject_failures(self, round_index: int) -> None:
        model = self.failure_schedule[round_index]
        if model is None:
            return
        victims = model.apply(self.state, self.rng)
        for node_id in victims:
            self._emit(EventKind.NODE_DISABLED, round_index=round_index, node_id=node_id)
        if victims:
            self._emit(
                EventKind.HOLE_DETECTED,
                round_index=round_index,
                holes=self.state.hole_count,
            )

    def _failures_pending(self, round_index: int) -> bool:
        return self._last_scheduled_round > round_index

    def _finished(self, round_index: int) -> bool:
        if self.state.hole_count > 0:
            return False
        if self._failures_pending(round_index):
            return False
        if self._drain_active():
            # Lifetime mode: complete coverage is not the end — batteries keep
            # draining until depletion opens a hole nobody can repair.
            return False
        return self.controller.is_quiescent(self.state)

    def _emit_outcome(self, outcome: RoundOutcome) -> None:
        for process_id in outcome.processes_started:
            self._emit(
                EventKind.PROCESS_STARTED,
                round_index=outcome.round_index,
                process_id=process_id,
            )
        for move in outcome.moves:
            self._emit(
                EventKind.NODE_MOVED,
                round_index=outcome.round_index,
                node_id=move.node_id,
                source=move.source_cell.as_tuple(),
                target=move.target_cell.as_tuple(),
                distance=round(move.distance, 3),
                process_id=move.process_id,
            )
        for process_id in outcome.processes_converged:
            self._emit(
                EventKind.PROCESS_CONVERGED,
                round_index=outcome.round_index,
                process_id=process_id,
            )
        for process_id in outcome.processes_failed:
            self._emit(
                EventKind.PROCESS_FAILED,
                round_index=outcome.round_index,
                process_id=process_id,
            )
        self._emit(
            EventKind.ROUND_COMPLETED,
            round_index=outcome.round_index,
            moves=outcome.move_count,
        )

    def _emit(self, kind: EventKind, round_index: int, **details: object) -> None:
        if self.event_log is not None:
            self.event_log.emit(kind, round_index, **details)


def run_recovery(
    state: WsnState,
    controller: MobilityController,
    rng: random.Random,
    max_rounds: Optional[int] = None,
    failure_schedule: Optional[Dict[int, FailureModel]] = None,
    event_log: Optional[EventLog] = None,
    energy_model: Optional[EnergyModel] = None,
    run_to_exhaustion: bool = False,
    channel: ChannelModel = DEFAULT_CHANNEL,
    channel_seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`RoundBasedEngine` and run it."""
    engine = RoundBasedEngine(
        state,
        controller,
        rng,
        max_rounds=max_rounds,
        failure_schedule=failure_schedule,
        event_log=event_log,
        energy_model=energy_model,
        run_to_exhaustion=run_to_exhaustion,
        channel=channel,
        channel_seed=channel_seed,
    )
    return engine.run()
