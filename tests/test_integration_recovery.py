"""Integration tests: full scenarios exercising deployment, failures, recovery,
coverage, and connectivity together — the end-to-end claims of the paper."""

import pytest

from repro.core import analysis
from repro.core.baseline_ar import LocalizedReplacementController
from repro.core.hamilton import build_hamilton_cycle
from repro.core.replacement import HamiltonReplacementController
from repro.grid.connectivity import is_head_network_connected
from repro.grid.coverage import coverage_report
from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord
from repro.network.failures import RegionJammingFailure, TargetedCellFailure
from repro.sim.engine import RoundBasedEngine, run_recovery
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state


def build(columns=12, rows=12, deployed=900, surplus=60, seed=21, **kwargs):
    config = ScenarioConfig(
        columns=columns,
        rows=rows,
        deployed_count=deployed,
        spare_surplus=surplus,
        seed=seed,
        **kwargs,
    )
    return config, build_scenario_state(config)


class TestPaperWorkloadEndToEnd:
    def test_sr_restores_complete_coverage_and_connectivity(self):
        config, state = build()
        assert state.hole_count > 0, "the thinned scenario must contain holes"
        controller = HamiltonReplacementController(build_hamilton_cycle(state.grid))
        result = run_recovery(state, controller, derive_rng(config.seed, "sr"))

        assert result.converged
        report = coverage_report(state)
        assert report.is_complete
        assert is_head_network_connected(state)
        assert result.metrics.success_rate == 1.0
        assert result.metrics.processes_initiated == result.metrics.initial_holes
        state.check_invariants()

    def test_sr_movement_cost_tracks_theorem2(self):
        """Measured movements per hole stay close to the analytical expectation."""
        config, state = build(columns=16, rows=16, deployed=2000, surplus=150, seed=33)
        cycle = build_hamilton_cycle(state.grid)
        controller = HamiltonReplacementController(cycle)
        holes = state.hole_count
        result = run_recovery(state, controller, derive_rng(config.seed, "sr"))
        assert result.metrics.final_holes == 0

        measured = result.metrics.total_moves / holes
        # The experimental spare pool is holes + N, so bracket the prediction
        # between the two corresponding Theorem-2 evaluations.
        optimistic = analysis.expected_movements(
            state.spare_count + holes, cycle.replacement_path_length
        )
        pessimistic = analysis.expected_movements(
            config.spare_surplus, cycle.replacement_path_length
        )
        assert optimistic * 0.5 <= measured <= pessimistic * 2.0

    def test_sr_versus_ar_headline_comparison(self):
        """SR: fewer processes, 100% success; AR: redundant processes, possible failures."""
        # A comfortably dense regime (well past the paper's N ~ 55 crossover),
        # where SR is cheaper than AR on every metric.
        config, base_state = build(surplus=150, seed=44)
        sr_state, ar_state = base_state.clone(), base_state.clone()

        sr = HamiltonReplacementController(build_hamilton_cycle(sr_state.grid))
        ar = LocalizedReplacementController(ar_state.grid)
        sr_result = run_recovery(sr_state, sr, derive_rng(config.seed, "sr"))
        ar_result = run_recovery(ar_state, ar, derive_rng(config.seed, "ar"))

        assert sr_result.metrics.processes_initiated < ar_result.metrics.processes_initiated
        assert sr_result.metrics.success_rate == 1.0
        assert sr_result.metrics.success_rate >= ar_result.metrics.success_rate
        assert sr_result.metrics.final_holes <= ar_result.metrics.final_holes
        # In this well-provisioned regime SR also moves fewer nodes.
        assert sr_result.metrics.total_moves <= ar_result.metrics.total_moves


class TestAttackScenarios:
    def test_jamming_attack_recovery(self):
        config, state = build(columns=10, rows=10, deployed=800, surplus=80, seed=5)
        jammer = RegionJammingFailure(
            center=Point(state.grid.bounds.center.x, state.grid.bounds.center.y),
            radius=2.0 * state.grid.cell_size,
        )
        jammer.apply(state, derive_rng(config.seed, "attack"))
        holes_after_attack = state.hole_count
        assert holes_after_attack >= 4

        controller = HamiltonReplacementController(build_hamilton_cycle(state.grid))
        result = run_recovery(state, controller, derive_rng(config.seed, "sr"))
        assert result.metrics.final_holes == 0
        assert is_head_network_connected(state)

    def test_dynamic_holes_injected_mid_recovery(self):
        config, state = build(columns=8, rows=8, deployed=600, surplus=50, seed=6)
        enabled_before = state.enabled_count
        schedule = {
            3: TargetedCellFailure(cells=[GridCoord(0, 0), GridCoord(7, 7)]),
            6: TargetedCellFailure(cells=[GridCoord(4, 4)]),
        }
        controller = HamiltonReplacementController(build_hamilton_cycle(state.grid))
        engine = RoundBasedEngine(
            state,
            controller,
            derive_rng(config.seed, "sr"),
            failure_schedule=schedule,
        )
        result = engine.run()
        assert result.metrics.final_holes == 0
        assert state.enabled_count < enabled_before
        # Holes created later become fresh processes, all of which converge.
        assert result.metrics.success_rate == 1.0

    def test_repeated_recovery_waves(self):
        """The controller can be reused across waves of failures (dynamic network)."""
        config, state = build(columns=8, rows=8, deployed=700, surplus=60, seed=8)
        controller = HamiltonReplacementController(build_hamilton_cycle(state.grid))
        total_moves_previous = 0
        for wave in range(3):
            TargetedCellFailure(cells=[GridCoord(wave, wave)]).apply(
                state, derive_rng(config.seed, f"wave-{wave}")
            )
            result = run_recovery(state, controller, derive_rng(config.seed, f"sr-{wave}"))
            assert result.metrics.final_holes == 0
            assert controller.total_moves >= total_moves_previous
            total_moves_previous = controller.total_moves
        state.check_invariants()


class TestHeadPolicies:
    @pytest.mark.parametrize("policy", ["lowest_id", "highest_energy", "nearest_to_center"])
    def test_recovery_under_every_policy(self, policy):
        config, state = build(columns=8, rows=8, deployed=500, surplus=40, seed=9, head_policy=policy)
        controller = HamiltonReplacementController(build_hamilton_cycle(state.grid))
        result = run_recovery(state, controller, derive_rng(config.seed, policy))
        assert result.metrics.final_holes == 0
        state.check_invariants()
