"""Unit tests for the round-based simulation engine."""

import gc
import math
import random
import weakref

import pytest

from repro.core.hamilton import build_hamilton_cycle
from repro.core.protocol import MobilityController, RoundOutcome
from repro.core.replacement import HamiltonReplacementController
from repro.experiments.orchestration import build_initial_state, simulate_from
from repro.grid.virtual_grid import GridCoord
from repro.network.failures import (
    RandomFailure,
    TargetedCellFailure,
    ThinningToEnabledCount,
)
from repro.sim.engine import RoundBasedEngine, run_recovery
from repro.sim.scenario import ScenarioConfig, build_scenario_state

from golden_specs import GOLDEN_SPECS
from helpers import make_hole


class NullController(MobilityController):
    """A controller that never does anything (used to test stall detection)."""

    name = "null"

    def execute_round(self, state, rng, round_index):
        return RoundOutcome(round_index=round_index)


def sr_controller(state):
    return HamiltonReplacementController(build_hamilton_cycle(state.grid))


class TestTermination:
    def test_stops_immediately_when_fully_covered(self, dense_state, rng):
        result = run_recovery(dense_state, sr_controller(dense_state), rng)
        assert result.rounds_executed == 1
        assert result.converged
        assert not result.stalled

    def test_stops_after_repairing_all_holes(self, dense_state, rng):
        make_hole(dense_state, GridCoord(1, 1))
        make_hole(dense_state, GridCoord(3, 2))
        result = run_recovery(dense_state, sr_controller(dense_state), rng)
        assert result.converged
        assert result.metrics.final_holes == 0
        assert result.rounds_executed < 10

    def test_detects_stall_when_nothing_can_act(self, sparse_state, rng):
        # Null controller + a hole: no progress is ever made.
        make_hole(sparse_state, GridCoord(0, 0))
        engine = RoundBasedEngine(sparse_state, NullController(), rng, max_rounds=50)
        result = engine.run()
        assert result.stalled
        assert not result.converged
        assert result.rounds_executed <= engine.idle_round_limit + 1

    def test_max_rounds_bound_is_respected(self, sparse_state, rng):
        make_hole(sparse_state, GridCoord(2, 2))
        engine = RoundBasedEngine(
            sparse_state, sr_controller(sparse_state), rng, max_rounds=3
        )
        result = engine.run()
        assert result.rounds_executed <= 3

    def test_bound_hit_with_holes_left_reports_stalled_and_exhausted(
        self, sparse_state, rng
    ):
        # Regression: a run that exhausts max_rounds with holes remaining used
        # to return stalled=False, indistinguishable from a clean finish.
        make_hole(sparse_state, GridCoord(2, 2))
        engine = RoundBasedEngine(
            sparse_state, sr_controller(sparse_state), rng, max_rounds=2
        )
        result = engine.run()
        assert result.metrics.final_holes > 0
        assert result.exhausted
        assert result.stalled
        assert not result.converged

    def test_converged_run_is_neither_stalled_nor_exhausted(self, dense_state, rng):
        make_hole(dense_state, GridCoord(1, 1))
        result = run_recovery(dense_state, sr_controller(dense_state), rng)
        assert result.converged
        assert not result.stalled
        assert not result.exhausted

    def test_invalid_parameters(self, dense_state, rng):
        with pytest.raises(ValueError):
            RoundBasedEngine(dense_state, NullController(), rng, max_rounds=0)
        with pytest.raises(ValueError):
            RoundBasedEngine(dense_state, NullController(), rng, idle_round_limit=0)


class TestFailureSchedule:
    def test_dynamic_holes_are_repaired(self, dense_state, rng):
        schedule = {
            2: TargetedCellFailure(cells=[GridCoord(2, 2)]),
            4: TargetedCellFailure(cells=[GridCoord(0, 4)]),
        }
        engine = RoundBasedEngine(
            dense_state, sr_controller(dense_state), rng, failure_schedule=schedule
        )
        result = engine.run()
        assert result.converged
        assert result.metrics.final_holes == 0
        # The engine must not stop before the last scheduled failure fires.
        assert result.rounds_executed > 4

    def test_scheduled_failure_disables_its_cell_and_is_repaired(self, dense_state, rng):
        enabled_before = dense_state.enabled_count
        schedule = {1: TargetedCellFailure(cells=[GridCoord(1, 1)])}
        engine = RoundBasedEngine(
            dense_state, sr_controller(dense_state), rng, failure_schedule=schedule
        )
        result = engine.run()
        assert dense_state.enabled_count == enabled_before - 3
        assert result.metrics.total_moves >= 1


class SampledRandomFailure(RandomFailure):
    """``RandomFailure(count=...)`` drawn by ``rng.sample``, the CPython reference."""

    def apply(self, state, rng):
        enabled = state.enabled_node_ids()
        victims = rng.sample(enabled, min(self.count, len(enabled)))
        state.disable_nodes(victims, reason=self.reason)
        return victims


class SampledThinning(ThinningToEnabledCount):
    """``ThinningToEnabledCount`` drawn by ``rng.sample``, the CPython reference."""

    def apply(self, state, rng):
        enabled = state.enabled_node_ids()
        excess = len(enabled) - self.target_enabled
        victims = rng.sample(enabled, excess) if excess > 0 else []
        state.disable_nodes(victims, reason=self.reason)
        return victims


class TestFailureDraws:
    def test_bulk_failure_draws_leave_the_engine_rng_where_rng_sample_does(self):
        def run(random_failure, thinning):
            config = ScenarioConfig(
                columns=8, rows=8, deployed_count=600, spare_surplus=200, seed=5
            )
            state = build_scenario_state(config)
            rng = random.Random(77)
            enabled_before = state.enabled_count
            samples = []
            schedule = {
                1: random_failure(count=30),  # 264 enabled: the pool branch
                3: thinning(target_enabled=100),  # the pool branch
                5: random_failure(count=3),  # the set branch
            }
            engine = RoundBasedEngine(
                state, sr_controller(state), rng, failure_schedule=schedule
            )
            engine.round_observer = lambda round_index, sample: samples.append(sample)
            engine.run()
            disabled = enabled_before - state.enabled_count
            return disabled, samples, state.to_bytes(), [rng.random() for _ in range(5)]

        bulk = run(RandomFailure, ThinningToEnabledCount)
        assert bulk[0] > 100
        assert bulk == run(SampledRandomFailure, SampledThinning)


def observed_run(state, rng):
    """Run SR on ``state`` with an observer; the result and the ``(round, sample)`` pairs."""
    observed = []
    engine = RoundBasedEngine(state, sr_controller(state), rng)
    engine.round_observer = lambda round_index, sample: observed.append((round_index, sample))
    return engine.run(), observed


class TestResultContents:
    def test_observer_sees_every_round(self, dense_state, rng):
        make_hole(dense_state, GridCoord(1, 3))
        result, observed = observed_run(dense_state, rng)
        assert [round_index for round_index, _ in observed] == list(
            range(result.rounds_executed)
        )
        last = observed[-1][1]
        assert (last["holes"], last["spares"]) == (0, result.metrics.final_spares)
        assert set(last) == {"holes", "moves", "distance", "spares"}
        assert result.energy_series == []

    def test_observed_moves_add_up_to_the_metrics(self, dense_state, rng):
        make_hole(dense_state, GridCoord(1, 3))
        result, observed = observed_run(dense_state, rng)
        samples = [sample for _, sample in observed]
        assert sum(sample["moves"] for sample in samples) == result.metrics.total_moves
        assert math.isclose(
            sum(sample["distance"] for sample in samples), result.metrics.total_distance
        )

    def test_observer_leaves_the_result_unchanged(self, dense_state):
        make_hole(dense_state, GridCoord(1, 3))
        twin = dense_state.clone()
        watched, _ = observed_run(dense_state, random.Random(5))
        assert watched == run_recovery(twin, sr_controller(twin), random.Random(5))
        assert dense_state.to_bytes() == twin.to_bytes()

    def test_metrics_snapshot_fields(self, dense_state, rng):
        make_hole(dense_state, GridCoord(2, 0))
        initial_spares = dense_state.spare_count
        result = run_recovery(dense_state, sr_controller(dense_state), rng)
        metrics = result.metrics
        assert metrics.initial_holes == 1
        assert metrics.initial_spares == initial_spares
        assert metrics.final_holes == 0
        assert metrics.repaired_holes == 1
        assert metrics.cell_coverage_before < 1.0
        assert metrics.cell_coverage_after == 1.0
        assert metrics.scheme == "SR"

    def test_one_hole_runs_one_process_to_convergence(self, dense_state, rng):
        make_hole(dense_state, GridCoord(1, 1))
        metrics = run_recovery(dense_state, sr_controller(dense_state), rng).metrics
        assert (metrics.processes_initiated, metrics.processes_converged) == (1, 1)
        assert metrics.rounds >= 1

    def test_finalize_called_on_shutdown(self, sparse_state, rng):
        controller = sr_controller(sparse_state)
        make_hole(sparse_state, GridCoord(0, 0))
        engine = RoundBasedEngine(sparse_state, controller, rng, max_rounds=2)
        engine.run()
        assert not controller.active_processes()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_a_finished_run_is_freed_by_reference_counting(name):
    """No reference cycle keeps a run's engine, controller, channel or state alive.

    With the cyclic collector off, the state must die the moment its last
    reference goes: nothing the run built may still point at it.
    """
    spec = GOLDEN_SPECS[name]
    collecting = gc.isenabled()
    gc.disable()
    try:
        state = build_initial_state(spec, state_cache=None)
        alive = weakref.ref(state)
        simulate_from(state, spec)
        del state
        assert alive() is None, f"the {name} run left its state in a reference cycle"
    finally:
        if collecting:
            gc.enable()
