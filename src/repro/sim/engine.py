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

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.protocol import MobilityController
from repro.network.channel import DEFAULT_CHANNEL, ChannelModel, build_channel
from repro.network.energy import EnergyModel, energy_summary, remaining_energy
from repro.network.failures import FailureModel
from repro.network.node import MESSAGE_COST
from repro.network.state import WsnState
from repro.sim.rng import derive_rng
from repro.sim.metrics import RunMetrics, collect_metrics, snapshot_state

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
    #: Whether the run hit ``max_rounds`` before finishing.  A bound-hit run
    #: with holes remaining is also reported as stalled: it did not converge,
    #: and must not be indistinguishable from a clean finish.
    exhausted: bool = False
    #: Total remaining energy of the enabled nodes at the end of each round;
    #: empty unless the run had an energy model.
    energy_series: List[float] = field(default_factory=list)

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
        self.idle_round_limit = idle_round_limit
        self.energy_model = energy_model
        self.run_to_exhaustion = run_to_exhaustion
        #: Optional per-round observer ``(round_index, sample_dict) -> None``,
        #: the engine's one per-round hook, called at the end of every round
        #: with the round's ``holes``, ``moves``, ``distance`` and ``spares``
        #: (plus ``energy`` and ``depletions`` under an energy model).  The
        #: serve layer uses it to stream live per-round series; it must not
        #: mutate state, and the sample is built only when one is attached.
        self.round_observer: Optional[Callable[[int, Dict[str, float]], None]] = None
        self.channel = build_channel(
            channel, derive_rng(channel_seed, f"channel:{channel.kind}")
        )
        # Message energy is debited at the moment of transmission — the same
        # in-round visibility the movement debit has, so a head that empties
        # its battery by transmitting is seen as depleted for the rest of the
        # round.  The hook is the state's own debit bound to the message cost
        # (the single source of truth for message energy): it holds no
        # engine, so a finished run is freed by reference counting.
        message_cost = (
            energy_model.message_cost if energy_model is not None else MESSAGE_COST
        )
        self.channel.debit_hook = functools.partial(
            state.debit_energy, joules=message_cost
        )
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
        energy_series: List[float] = []
        idle_rounds = 0
        stalled = False
        exhausted = False
        rounds_executed = 0
        energy_model = self.energy_model
        rng = self.rng
        failure_schedule = self.failure_schedule
        observer = self.round_observer
        # Read once, after the engine bound the channel: a wrapper installed
        # on the instance before the run (a tracer's, a benchmark's) fires.
        deliver = channel.deliver
        handle_messages = controller.handle_messages
        execute_round = controller.execute_round

        for round_index in range(self.max_rounds):
            # Start-of-round physics: scheduled failures, then the energy model.
            if round_index in failure_schedule:
                failure_schedule[round_index].apply(state, rng)
            depletions = (
                energy_model.apply_round(state) if energy_model is not None else 0
            )
            # Control messages sent in earlier rounds arrive now, before any
            # head acts — the paper's one-round-latency assumption,
            # generalised to whatever the channel model dictates.
            inbox = deliver(round_index)
            if inbox:
                handle_messages(state, inbox, round_index)
            outcome = execute_round(state, rng, round_index)
            rounds_executed = round_index + 1
            # The energy total is an O(enabled) sweep, sampled only when an
            # energy model is active.
            if energy_model is not None:
                energy_series.append(remaining_energy(state)[0])
            if observer is not None:
                # hole_count and spare_count are O(1) reads of the state's
                # incremental indices.
                move_count = outcome.move_count
                sample = {
                    "holes": state.hole_count,
                    "moves": move_count,
                    "distance": outcome.total_distance if move_count else 0,
                    "spares": state.spare_count,
                }
                if energy_model is not None:
                    sample["energy"] = energy_series[-1]
                    sample["depletions"] = depletions
                observer(round_index, sample)

            if outcome.made_progress or depletions:
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

        # Let the controller settle its bookkeeping after the last round.
        controller.finalize(state, rounds_executed)
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
            energy=energy_summary(state) if energy_model is not None else None,
            messages_dropped=channel.dropped_count,
            mean_delivery_latency=channel.mean_delivery_latency,
            messages_delivered=channel.delivered_count,
            messages_in_flight=channel.pending_count,
        )
        return SimulationResult(
            metrics=metrics,
            rounds_executed=rounds_executed,
            stalled=stalled,
            exhausted=exhausted,
            energy_series=energy_series,
        )

    # --------------------------------------------------------------- internal
    def _messaging_pending(self) -> bool:
        """Whether control traffic is still in flight or awaiting retries.

        An idle window that merely spans a long delivery latency or ack
        timeout must not be mistaken for a stall: the cascade will resume
        (or give up, unblocking a real stall verdict) once the channel acts.
        """
        return self.channel.pending_count > 0 or self.controller.pending_acknowledgements > 0

    def _drain_active(self) -> bool:
        """Whether run-to-exhaustion still has energy physics to play out."""
        return (
            self.run_to_exhaustion
            and self.energy_model is not None
            and self.energy_model.idle_cost_per_round > 0
            and self.state.enabled_count > 0
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


def run_recovery(
    state: WsnState,
    controller: MobilityController,
    rng: random.Random,
    max_rounds: Optional[int] = None,
    failure_schedule: Optional[Dict[int, FailureModel]] = None,
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
        energy_model=energy_model,
        run_to_exhaustion=run_to_exhaustion,
        channel=channel,
        channel_seed=channel_seed,
    )
    return engine.run()
