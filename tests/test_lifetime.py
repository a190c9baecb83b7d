"""End-to-end tests for the energy-aware round loop and the lifetime driver.

Covers the coupling the lifetime smoke gate protects in CI: engine-driven
depletion opens holes mid-run, the controllers repair them, the energy series
and summaries record the trajectory, and node-level debits reconcile with the
run's cost metrics.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hamilton import build_hamilton_cycle
from repro.core.replacement import HamiltonReplacementController
from repro.experiments.broker import execute_many
from repro.experiments.lifetime import (
    SMOKE_CONFIG,
    SMOKE_ENERGY,
    build_lifetime_specs,
    run_lifetime_experiment,
)
from repro.experiments.orchestration import SerialExecutor
from repro.experiments.persistence import (
    RunCache,
    record_from_dict,
    record_to_dict,
)
from repro.grid.virtual_grid import GridCoord
from repro.network.energy import EnergyModel, energy_summary
from repro.network.node import MESSAGE_COST, MOVE_COST_PER_METER, NodeState
from repro.sim.engine import RoundBasedEngine, run_recovery
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state


def sr_controller(state, **kwargs):
    return HamiltonReplacementController(build_hamilton_cycle(state.grid), **kwargs)


class TestEngineDepletion:
    def test_depletion_creates_hole_that_sr_repairs(self, dense_state, rng):
        """Seeded e2e: a cell's nodes deplete mid-run, SR refills the cell."""
        victims = [node.node_id for node in dense_state.members_of(GridCoord(2, 2))]
        # One idle drain empties these batteries, so the engine depletes the
        # whole cell in the very first round, before the controller acts.
        for node_id in victims:
            dense_state.node(node_id).reset_energy(0.5)
        model = EnergyModel(idle_cost_per_round=1.0)
        engine = RoundBasedEngine(
            dense_state, sr_controller(dense_state), rng, energy_model=model
        )
        samples = []
        engine.round_observer = lambda round_index, sample: samples.append(sample)
        result = engine.run()

        # The engine (not a failure schedule) disabled the drained nodes ...
        depleted = [
            node.node_id
            for node in dense_state.nodes()
            if node.state is NodeState.DEPLETED
        ]
        assert sorted(depleted) == sorted(victims)

        # ... and the resulting hole was repaired by the controller.
        assert result.converged
        assert not dense_state.is_vacant(GridCoord(2, 2))
        assert result.metrics.total_moves >= 1

        # The per-round energy trajectory was recorded and drains monotonically,
        # and the observer saw it and every depletion.
        series = result.energy_series
        assert len(series) == result.rounds_executed > 0
        assert all(b <= a for a, b in zip(series, series[1:]))
        assert [sample["energy"] for sample in samples] == series
        assert sum(sample["depletions"] for sample in samples) == len(victims)

        # The metrics snapshot carries the battery summary.
        summary = result.metrics.energy
        assert summary is not None
        assert summary.depleted_nodes == len(victims)
        assert summary.total_consumed > 0.0

    def test_depleted_spares_are_never_selected(self, dense_state, rng):
        """A drained spare is skipped in favour of a charged one."""
        cell = GridCoord(1, 2)
        spares = dense_state.spares_of(cell)
        assert len(spares) >= 2
        drained = spares[0]
        dense_state.debit_energy(drained.node_id, drained.energy)
        from helpers import make_hole

        make_hole(dense_state, GridCoord(0, 2))
        result = run_recovery(dense_state, sr_controller(dense_state), rng)
        assert result.converged
        assert drained.move_count == 0

    def test_max_energy_selection_prefers_fullest_spare(self, dense_state, rng):
        from helpers import make_hole

        hole = GridCoord(3, 1)
        make_hole(dense_state, hole)
        cycle = build_hamilton_cycle(dense_state.grid)
        initiator = cycle.initiator_for(hole, has_spare=dense_state.has_spare, origin=hole)
        spares = dense_state.spares_of(initiator)
        assert len(spares) >= 2
        full, weak = spares[0], spares[1]
        weak.reset_energy(5.0)
        controller = HamiltonReplacementController(cycle, spare_selection="max_energy")
        result = run_recovery(dense_state, controller, rng)
        assert result.converged
        assert full.move_count == 1
        assert weak.move_count == 0

    def test_run_to_exhaustion_outlives_coverage(self, dense_state, rng):
        """Lifetime mode keeps draining after full coverage until death."""
        for node in dense_state.nodes():
            node.reset_energy(5.0)
        model = EnergyModel(idle_cost_per_round=1.0)
        engine = RoundBasedEngine(
            dense_state,
            sr_controller(dense_state),
            rng,
            energy_model=model,
            run_to_exhaustion=True,
            max_rounds=50,
        )
        result = engine.run()
        # Uniform batteries: everyone dies in the same round, the run stalls
        # with the whole grid vacant, and the rounds reflect the drain time.
        assert result.rounds_executed >= 5
        assert result.stalled
        assert dense_state.enabled_count == 0

    def test_custom_move_and_message_costs_route_to_node_debits(
        self, sparse_state, rng
    ):
        # sparse_state has no spares, so SR must cascade heads — which both
        # moves them and sends notifications, exercising both debit paths.
        from helpers import make_hole

        make_hole(sparse_state, GridCoord(1, 1))
        model = EnergyModel(move_cost_per_meter=3.0, message_cost=0.25)
        engine = RoundBasedEngine(
            sparse_state, sr_controller(sparse_state), rng, energy_model=model
        )
        result = engine.run()
        assert result.metrics.messages_sent > 0
        summary = energy_summary(sparse_state)
        expected = (
            result.metrics.total_distance * model.move_cost_per_meter
            + result.metrics.messages_sent * model.message_cost
        )
        assert summary.total_consumed == pytest.approx(expected, rel=1e-9)

    def test_custom_move_cost_preserves_movement_model_config(self, dense_state, rng):
        from repro.network.mobility import MovementModel

        dense_state.movement_model = MovementModel(dense_state.grid)
        model = EnergyModel(move_cost_per_meter=2.0)
        RoundBasedEngine(dense_state, sr_controller(dense_state), rng, energy_model=model)
        assert dense_state.movement_model.move_cost_per_meter == 2.0

    def test_message_charge_cannot_abort_a_committed_head_move(self, sparse_state, rng):
        # Regression: a head whose battery was emptied by the notification
        # charge used to hit relocate()'s depletion guard mid-cascade and
        # crash the whole run with a RuntimeError.
        from helpers import make_hole

        hole = GridCoord(1, 1)
        make_hole(sparse_state, hole)
        cycle = build_hamilton_cycle(sparse_state.grid)
        initiator = cycle.initiator_for(hole, has_spare=sparse_state.has_spare, origin=hole)
        initiator_head = sparse_state.head_of(initiator)
        assert initiator_head is not None
        # Enough battery to move one hop, but less than the message charge —
        # charging before the move would clamp the battery to zero and make
        # relocate() raise.
        initiator_head.reset_energy(0.9)
        model = EnergyModel(message_cost=1.0)
        engine = RoundBasedEngine(
            sparse_state,
            HamiltonReplacementController(cycle),
            rng,
            energy_model=model,
        )
        result = engine.run()  # must not raise
        assert initiator_head.move_count == 1
        assert result.rounds_executed >= 1


class TestEnergyReconciliation:
    """Node-level debits always reconcile with the run's cost metrics."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scheme=st.sampled_from(["SR", "AR", "SR-shortcut", "SR-energy", "AR-energy"]),
        holes=st.integers(min_value=1, max_value=4),
    )
    def test_consumed_energy_equals_recovery_cost(self, seed, scheme, holes):
        from repro.experiments.registry import make_controller

        config = ScenarioConfig(
            columns=4,
            rows=4,
            communication_range=4.0,
            deployed_count=48,
            deployment="per_cell",
            seed=seed,
        )
        state = build_scenario_state(config)
        rng = derive_rng(seed, "reconciliation")
        cells = list(state.grid.all_coords())
        for index in range(holes):
            coord = cells[rng.randrange(len(cells))]
            for node in list(state.members_of(coord)):
                state.disable_node(node.node_id)
        controller = make_controller(scheme, state)
        result = run_recovery(state, controller, rng)
        summary = energy_summary(state)
        expected = (
            result.metrics.total_distance * MOVE_COST_PER_METER
            + result.metrics.messages_sent * MESSAGE_COST
        )
        assert summary.total_consumed == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestLifetimeDriver:
    def test_smoke_workload_depletes_and_repairs(self):
        specs = build_lifetime_specs(
            SMOKE_CONFIG, schemes=("SR",), energy=SMOKE_ENERGY, trials=1, max_rounds=400
        )
        (record,) = execute_many(specs, executor=SerialExecutor())
        assert record.energy_series, "per-round energy series must be recorded"
        assert record.energy_series[-1] < record.energy_series[0]
        assert record.metrics.energy.depleted_nodes > 0
        assert record.metrics.total_moves > 0
        assert record.stalled or record.exhausted

    def test_serial_reexecution_is_byte_identical(self):
        specs = build_lifetime_specs(
            SMOKE_CONFIG, schemes=("SR", "AR"), energy=SMOKE_ENERGY, trials=1, max_rounds=400
        )
        first = execute_many(specs, executor=SerialExecutor())
        second = execute_many(specs, executor=SerialExecutor())
        as_json = lambda records: json.dumps(
            [record_to_dict(r) for r in records], sort_keys=True
        )
        assert as_json(first) == as_json(second)

    def test_records_round_trip_through_the_cache(self, tmp_path):
        specs = build_lifetime_specs(
            SMOKE_CONFIG, schemes=("SR",), energy=SMOKE_ENERGY, trials=1, max_rounds=400
        )
        cache = RunCache(tmp_path)
        (fresh,) = execute_many(specs, executor=SerialExecutor(), cache=cache)
        restored = record_from_dict(record_to_dict(fresh))
        assert restored == fresh
        executor = SerialExecutor()
        (cached,) = execute_many(specs, executor=executor, cache=cache)
        assert executor.runs_executed == 0
        assert cached.cached
        assert cached.energy_series == fresh.energy_series
        assert cached.metrics == fresh.metrics

    def test_experiment_table_reports_lifetimes(self):
        result = run_lifetime_experiment(
            config=SMOKE_CONFIG,
            schemes=("SR", "AR"),
            energy=SMOKE_ENERGY,
            trials=1,
            max_rounds=400,
        )
        assert [row["scheme"] for row in result.rows] == ["SR", "AR"]
        for row in result.rows:
            assert row["lifetime_rounds"] > 0
            assert row["depleted_nodes"] > 0
            assert row["energy_consumed"] > 0

    def test_rejects_unbounded_batteries(self):
        with pytest.raises(ValueError):
            build_lifetime_specs(ScenarioConfig(columns=4, rows=4, deployed_count=32))

    def test_rejects_drainless_energy_model(self):
        config = ScenarioConfig(
            columns=4, rows=4, deployed_count=32, initial_energy=10.0
        )
        with pytest.raises(ValueError):
            build_lifetime_specs(config, energy=EnergyModel(idle_cost_per_round=0.0))
