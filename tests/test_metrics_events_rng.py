"""Unit tests for run metrics, the event log, and the seeded RNG helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import MobilityController, RoundOutcome
from repro.grid.virtual_grid import GridCoord
from repro.sim.events import Event, EventKind, EventLog
from repro.sim.metrics import RoundSeries, RunMetrics, collect_metrics, snapshot_state
from repro.sim.rng import derive_rng, draw_uniforms, spawn_seeds

from helpers import make_hole


def make_metrics(**overrides):
    values = dict(
        scheme="SR",
        rounds=5,
        processes_initiated=4,
        processes_converged=3,
        processes_failed=1,
        redundant_processes=0,
        success_rate=0.75,
        total_moves=9,
        total_distance=42.0,
        messages_sent=2,
        initial_holes=4,
        final_holes=1,
        initial_spares=10,
        final_spares=6,
        initial_enabled=50,
        cell_coverage_before=0.8,
        cell_coverage_after=0.95,
    )
    values.update(overrides)
    return RunMetrics(**values)


class TestRunMetrics:
    def test_derived_properties(self):
        metrics = make_metrics()
        assert metrics.repaired_holes == 3
        assert not metrics.coverage_restored
        assert metrics.moves_per_repaired_hole == pytest.approx(3.0)
        assert metrics.distance_per_repaired_hole == pytest.approx(14.0)

    def test_no_repairs_edge_case(self):
        metrics = make_metrics(final_holes=4)
        assert metrics.repaired_holes == 0
        assert metrics.moves_per_repaired_hole == 0.0

    def test_as_dict_round_trip(self):
        data = make_metrics().as_dict()
        assert data["scheme"] == "SR"
        assert data["repaired_holes"] == 3
        assert set(data) >= {"total_moves", "total_distance", "success_rate"}


class TestSnapshotAndCollect:
    def test_snapshot(self, dense_state):
        make_hole(dense_state, GridCoord(0, 0))
        snapshot = snapshot_state(dense_state)
        assert snapshot.holes == 1
        assert snapshot.enabled == dense_state.enabled_count
        assert snapshot.cell_coverage == pytest.approx(19 / 20)

    def test_collect_metrics_uses_controller_aggregates(self, dense_state):
        class FakeController(MobilityController):
            name = "fake"

            def execute_round(self, state, rng, round_index):
                return RoundOutcome(round_index=round_index)

        controller = FakeController()
        process = controller._start_process(GridCoord(0, 0), GridCoord(0, 1), 0)
        process.mark_converged(1)
        snapshot = snapshot_state(dense_state)
        metrics = collect_metrics(controller, dense_state, snapshot, rounds=3, messages_sent=5)
        assert metrics.scheme == "fake"
        assert metrics.processes_initiated == 1
        assert metrics.success_rate == 1.0
        assert metrics.messages_sent == 5
        assert metrics.rounds == 3


class TestRoundSeries:
    def test_recording(self):
        series = RoundSeries()
        series.record(holes=3, moves=2, distance=5.0)
        series.record(holes=1, moves=4, distance=7.0)
        assert series.rounds == 2
        assert series.holes == [3, 1]
        assert series.cumulative_moves == [2, 6]


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit(EventKind.HOLE_DETECTED, 0, holes=3)
        log.emit(EventKind.NODE_MOVED, 1, node_id=5)
        log.emit(EventKind.NODE_MOVED, 2, node_id=6)
        assert len(log) == 3
        assert log.count(EventKind.NODE_MOVED) == 2
        assert [e.round_index for e in log.events(EventKind.NODE_MOVED)] == [1, 2]
        assert log.rounds() == [0, 1, 2]

    def test_to_lines_and_str(self):
        log = EventLog()
        log.emit(EventKind.PROCESS_STARTED, 4, process_id=7)
        lines = log.to_lines()
        assert len(lines) == 1
        assert "process_started" in lines[0]
        assert "process_id=7" in lines[0]

    def test_clear(self):
        log = EventLog()
        log.emit(EventKind.ROUND_COMPLETED, 0)
        log.clear()
        assert len(log) == 0

    def test_events_are_immutable_records(self):
        event = Event(kind=EventKind.HOLE_DETECTED, round_index=1, details={"holes": 2})
        with pytest.raises(AttributeError):
            event.round_index = 5


class TestRng:
    def test_derive_rng_is_deterministic(self):
        a = derive_rng(42, "deployment")
        b = derive_rng(42, "deployment")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_by_label(self):
        a = derive_rng(42, "deployment")
        b = derive_rng(42, "controller")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert derive_rng(1, "x").random() != derive_rng(2, "x").random()

    def test_spawn_seeds(self):
        seeds = spawn_seeds(7, 5)
        assert len(seeds) == 5
        assert len(set(seeds)) == 5
        assert spawn_seeds(7, 5) == seeds
        assert spawn_seeds(8, 5) != seeds

    def test_spawn_seeds_invalid_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(7, -1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        count=st.one_of(
            st.sampled_from([0, 1, 623, 624, 625, 1247, 1248, 1249, 10_000]),
            st.integers(min_value=0, max_value=10_000),
        ),
    )
    def test_draw_uniforms_equals_the_per_draw_loop(self, seed, count):
        bulk, looped = random.Random(seed), random.Random(seed)
        draws = draw_uniforms(bulk, count)
        assert draws.dtype.name == "float64" and draws.shape == (count,)
        assert draws.tolist() == [looped.random() for _ in range(count)]
        assert bulk.getstate() == looped.getstate()
