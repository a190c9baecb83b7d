"""Unit tests for the controller protocol and process bookkeeping."""

import random

import pytest

from repro.core.protocol import (
    MobilityController,
    ProcessStatus,
    ReplacementProcess,
    RoundOutcome,
)
from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord
from repro.network.mobility import MoveRecord


def make_move(distance=1.0, process_id=0):
    return MoveRecord(
        node_id=1,
        source_cell=GridCoord(0, 0),
        target_cell=GridCoord(0, 1),
        source_position=Point(0.5, 0.5),
        target_position=Point(0.5, 1.5),
        distance=distance,
        round_index=0,
        process_id=process_id,
    )


class DummyController(MobilityController):
    """Minimal concrete controller used to exercise the shared bookkeeping."""

    name = "dummy"

    def execute_round(self, state, rng, round_index):
        return RoundOutcome(round_index=round_index)


class TestReplacementProcess:
    def test_initial_state(self):
        process = ReplacementProcess(
            process_id=0,
            origin_cell=GridCoord(1, 1),
            initiator_cell=GridCoord(1, 0),
            started_round=2,
        )
        assert process.is_active
        assert not process.converged and not process.failed
        assert process.move_count == 0
        assert process.total_distance == 0.0

    def test_recording_moves(self):
        process = ReplacementProcess(0, GridCoord(0, 0), GridCoord(0, 1), 0)
        process.moves.append(make_move(2.0))
        process.moves.append(make_move(3.0))
        assert process.move_count == 2
        assert process.total_distance == pytest.approx(5.0)

    def test_terminal_states(self):
        process = ReplacementProcess(0, GridCoord(0, 0), GridCoord(0, 1), 0)
        process.mark_converged(7)
        assert process.converged and not process.is_active
        assert process.finished_round == 7
        other = ReplacementProcess(1, GridCoord(0, 0), GridCoord(0, 1), 0)
        other.mark_failed(3)
        assert other.failed and other.status is ProcessStatus.FAILED


class TestRoundOutcome:
    def test_progress_detection(self):
        idle = RoundOutcome(round_index=0)
        assert not idle.made_progress
        assert RoundOutcome(round_index=0, messages_sent=1).made_progress
        assert RoundOutcome(round_index=0, moves=[make_move()]).made_progress
        assert RoundOutcome(round_index=0, processes_started=[1]).made_progress

    def test_aggregates(self):
        outcome = RoundOutcome(round_index=0, moves=[make_move(1.0), make_move(2.5)])
        assert outcome.move_count == 2
        assert outcome.total_distance == pytest.approx(3.5)


class TestControllerBookkeeping:
    def test_process_creation_and_lookup(self):
        controller = DummyController()
        p0 = controller._start_process(GridCoord(0, 0), GridCoord(0, 1), 0)
        p1 = controller._start_process(GridCoord(1, 1), GridCoord(1, 0), 1)
        assert p0.process_id == 0 and p1.process_id == 1
        assert controller.total_processes == 2
        assert controller.process(1) is p1
        assert [p.process_id for p in controller.processes()] == [0, 1]

    def test_aggregate_properties(self):
        controller = DummyController()
        p0 = controller._start_process(GridCoord(0, 0), GridCoord(0, 1), 0)
        p1 = controller._start_process(GridCoord(1, 1), GridCoord(1, 0), 0)
        p0.moves.append(make_move(4.0))
        p0.mark_converged(1)
        p1.mark_failed(2)
        assert controller.total_moves == 1
        assert controller.total_distance == pytest.approx(4.0)
        assert controller.converged_processes == 1
        assert controller.failed_processes == 1
        assert controller.success_rate == pytest.approx(0.5)
        assert controller.active_processes() == []

    def test_success_rate_with_no_processes(self):
        assert DummyController().success_rate == 1.0

    def test_quiescence(self):
        controller = DummyController()
        assert controller.is_quiescent(state=None)
        process = controller._start_process(GridCoord(0, 0), GridCoord(0, 1), 0)
        assert not controller.is_quiescent(state=None)
        process.mark_converged(0)
        assert controller.is_quiescent(state=None)

    def test_describe_mentions_name_and_counts(self):
        controller = DummyController()
        controller._start_process(GridCoord(0, 0), GridCoord(0, 1), 0)
        text = controller.describe()
        assert "dummy" in text
        assert "processes=1" in text
