"""Aggregated run metrics.

These are exactly the quantities the paper's Section 5 reports for each
scheme: the number of replacement processes initiated, the success rate of
hole recovery, the total number of node movements, and the total moving
distance — plus a few bookkeeping fields (holes before/after, rounds, spare
counts) that make results self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.protocol import MobilityController
from repro.grid.coverage import cell_coverage_fraction
from repro.network.energy import EnergySummary


@dataclass(frozen=True)
class RunMetrics:
    """Summary of one recovery run of one scheme on one scenario."""

    scheme: str
    rounds: int
    processes_initiated: int
    processes_converged: int
    processes_failed: int
    redundant_processes: int
    success_rate: float
    total_moves: int
    total_distance: float
    messages_sent: int
    initial_holes: int
    final_holes: int
    initial_spares: int
    final_spares: int
    initial_enabled: int
    cell_coverage_before: float
    cell_coverage_after: float
    energy: Optional[EnergySummary] = None
    #: Control messages the channel lost in transit (0 on reliable channels).
    messages_dropped: int = 0
    #: Mean rounds between send and delivery over the delivered messages
    #: (0.0 when nothing was delivered; 1.0 on the paper's perfect channel).
    mean_delivery_latency: float = 0.0
    #: Control messages delivered to their destination cell.  Together with
    #: :attr:`messages_dropped` and :attr:`messages_in_flight` this makes the
    #: channel ledger auditable from the record alone: every run satisfies
    #: ``sent == delivered + dropped + in_flight`` (the message-conservation
    #: oracle of :mod:`repro.experiments.differential`).
    messages_delivered: int = 0
    #: Control messages still in flight (queued in the mailbox) when the run
    #: ended.
    messages_in_flight: int = 0

    @property
    def message_delivery_rate(self) -> float:
        """Fraction of sent messages not lost in transit (1.0 with no traffic)."""
        if not self.messages_sent:
            return 1.0
        return 1.0 - self.messages_dropped / self.messages_sent

    @property
    def repaired_holes(self) -> int:
        """Holes repaired during the run: initial minus final hole count."""
        return self.initial_holes - self.final_holes

    @property
    def coverage_restored(self) -> bool:
        """Whether the run ended with complete cell coverage (no holes left)."""
        return self.final_holes == 0

    @property
    def moves_per_repaired_hole(self) -> float:
        """Average movements spent per repaired hole (0 when nothing was repaired)."""
        repaired = self.repaired_holes
        return self.total_moves / repaired if repaired > 0 else 0.0

    @property
    def distance_per_repaired_hole(self) -> float:
        """Average moving distance per repaired hole (0 when nothing was repaired)."""
        repaired = self.repaired_holes
        return self.total_distance / repaired if repaired > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary representation (used by the CSV exporters).

        This is the *stable* export schema: fields added after the seed-
        identity golden fixture was frozen (``messages_delivered``,
        ``messages_in_flight``) are intentionally not part of it — the full
        field set is available through
        :func:`~repro.experiments.persistence.record_to_dict`.
        """
        return {
            "scheme": self.scheme,
            "rounds": self.rounds,
            "processes_initiated": self.processes_initiated,
            "processes_converged": self.processes_converged,
            "processes_failed": self.processes_failed,
            "redundant_processes": self.redundant_processes,
            "success_rate": self.success_rate,
            "total_moves": self.total_moves,
            "total_distance": self.total_distance,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "mean_delivery_latency": self.mean_delivery_latency,
            "initial_holes": self.initial_holes,
            "final_holes": self.final_holes,
            "repaired_holes": self.repaired_holes,
            "initial_spares": self.initial_spares,
            "final_spares": self.final_spares,
            "initial_enabled": self.initial_enabled,
            "cell_coverage_before": self.cell_coverage_before,
            "cell_coverage_after": self.cell_coverage_after,
            "energy_consumed": self.energy.total_consumed if self.energy else None,
            "depleted_nodes": self.energy.depleted_nodes if self.energy else None,
        }


@dataclass
class InitialSnapshot:
    """State statistics captured by the engine before the first round."""

    holes: int
    spares: int
    enabled: int
    cell_coverage: float


def snapshot_state(state) -> InitialSnapshot:
    """Capture the pre-recovery statistics of a network state.

    All four statistics are O(1) reads of the state's incremental indices,
    so snapshots may be taken every round without a grid scan.
    """
    return InitialSnapshot(
        holes=state.hole_count,
        spares=state.spare_count,
        enabled=state.enabled_count,
        cell_coverage=cell_coverage_fraction(state),
    )


def collect_metrics(
    controller: MobilityController,
    state,
    initial: InitialSnapshot,
    rounds: int,
    messages_sent: int,
    energy: Optional[EnergySummary] = None,
    messages_dropped: int = 0,
    mean_delivery_latency: float = 0.0,
    messages_delivered: int = 0,
    messages_in_flight: int = 0,
) -> RunMetrics:
    """Combine controller bookkeeping and final state into a :class:`RunMetrics`.

    ``energy`` is the battery snapshot of the final state; the engine supplies
    one (:func:`~repro.network.energy.energy_summary`) only when the run had
    an energy model — summarising every battery is an O(all nodes) sweep, far
    more expensive than the rounds themselves on large grids, so runs without
    energy physics skip it and report ``energy=None``.
    """
    return RunMetrics(
        scheme=controller.name,
        rounds=rounds,
        processes_initiated=controller.total_processes,
        processes_converged=controller.converged_processes,
        processes_failed=controller.failed_processes,
        redundant_processes=controller.redundant_processes,
        success_rate=controller.success_rate,
        total_moves=controller.total_moves,
        total_distance=controller.total_distance,
        messages_sent=messages_sent,
        initial_holes=initial.holes,
        final_holes=state.hole_count,
        initial_spares=initial.spares,
        final_spares=state.spare_count,
        initial_enabled=initial.enabled,
        cell_coverage_before=initial.cell_coverage,
        cell_coverage_after=cell_coverage_fraction(state),
        energy=energy,
        messages_dropped=messages_dropped,
        mean_delivery_latency=mean_delivery_latency,
        messages_delivered=messages_delivered,
        messages_in_flight=messages_in_flight,
    )
