"""Unit tests for the energy model and the accounting helpers."""

import pytest

from repro.core.hamilton import build_hamilton_cycle
from repro.core.replacement import HamiltonReplacementController
from repro.grid.virtual_grid import GridCoord
from repro.network.energy import (
    EnergyModel,
    EnergySummary,
    energy_summary,
    remaining_energy,
)
from repro.network.node import (
    DEFAULT_BATTERY_CAPACITY,
    MESSAGE_COST,
    MOVE_COST_PER_METER,
    NodeState,
)
from repro.sim.engine import run_recovery

from helpers import make_hole


class TestEnergySummary:
    def test_fresh_network_is_fully_charged(self, dense_state):
        summary = energy_summary(dense_state)
        assert summary.enabled_nodes == dense_state.enabled_count
        assert summary.mean_energy == pytest.approx(DEFAULT_BATTERY_CAPACITY)
        assert summary.total_consumed == pytest.approx(0.0)
        assert summary.depleted_nodes == 0
        assert summary.head_mean_energy == pytest.approx(DEFAULT_BATTERY_CAPACITY)
        assert summary.spare_mean_energy == pytest.approx(DEFAULT_BATTERY_CAPACITY)

    def test_empty_network(self, dense_state, rng):
        for node in dense_state.enabled_nodes():
            dense_state.disable_node(node.node_id)
        summary = energy_summary(dense_state)
        assert summary.enabled_nodes == 0
        assert summary.total_energy == 0.0

    def test_recovery_drains_energy(self, dense_state, rng):
        make_hole(dense_state, GridCoord(2, 2))
        controller = HamiltonReplacementController(build_hamilton_cycle(dense_state.grid))
        result = run_recovery(dense_state, controller, rng)
        summary = energy_summary(dense_state)
        assert summary.total_consumed > 0.0
        # Consumed energy matches the cost model applied to the run metrics.
        expected = (
            result.metrics.total_distance * MOVE_COST_PER_METER
            + result.metrics.messages_sent * MESSAGE_COST
        )
        assert summary.total_consumed == pytest.approx(expected, rel=1e-6)

    def test_consumption_tracks_custom_initial_capacities(self, dense_state):
        # Regression: total_consumed used to assume every node started at the
        # default capacity, so custom batteries broke the accounting.
        for node in dense_state.nodes():
            node.reset_energy(10.0)
        first = dense_state.enabled_node_ids()[0]
        dense_state.debit_energy(first, 4.0)
        summary = energy_summary(dense_state)
        assert summary.total_consumed == pytest.approx(4.0)
        assert summary.initial_energy_total == pytest.approx(
            10.0 * dense_state.node_count
        )

    def test_disabled_nodes_consumption_is_not_lost(self, dense_state):
        # Regression: consumption by nodes that were later disabled used to
        # silently vanish from total_consumed.
        node_id = dense_state.enabled_node_ids()[0]
        dense_state.debit_energy(node_id, 25.0)
        dense_state.disable_node(node_id)
        summary = energy_summary(dense_state)
        assert summary.total_consumed == pytest.approx(25.0)

    def test_depleted_count_covers_engine_disabled_nodes(self, dense_state):
        drained, disabled = dense_state.enabled_node_ids()[:2]
        dense_state.debit_energy(drained, dense_state.energy_of(drained))  # enabled, at zero
        dense_state.debit_energy(disabled, dense_state.energy_of(disabled))
        dense_state.disable_node(disabled, reason=NodeState.DEPLETED)
        summary = energy_summary(dense_state)
        assert summary.depleted_nodes == 2


class TestEnergyModel:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            EnergyModel(idle_cost_per_round=-0.1)
        with pytest.raises(ValueError):
            EnergyModel(depletion_threshold=-1.0)

    def test_apply_round_drains_and_depletes(self, dense_state):
        model = EnergyModel(idle_cost_per_round=1.0, depletion_threshold=0.0)
        victim = next(iter(dense_state.enabled_nodes()))
        victim.reset_energy(0.5)
        before, count_before = remaining_energy(dense_state)
        enabled_before = set(dense_state.enabled_node_ids())
        depleted = model.apply_round(dense_state)
        assert enabled_before - set(dense_state.enabled_node_ids()) == {victim.node_id}
        assert depleted == 1
        assert dense_state.node(victim.node_id).state is NodeState.DEPLETED
        after, count_after = remaining_energy(dense_state)
        assert count_after == count_before - 1
        # Every surviving node paid exactly one round of idle drain.
        assert after == pytest.approx(before - 0.5 - count_after * 1.0)

    def test_threshold_depletion_keeps_residual_energy(self, dense_state):
        model = EnergyModel(idle_cost_per_round=0.0, depletion_threshold=5.0)
        victim = next(iter(dense_state.enabled_nodes()))
        victim.reset_energy(4.0)
        enabled_before = set(dense_state.enabled_node_ids())
        depleted = model.apply_round(dense_state)
        assert enabled_before - set(dense_state.enabled_node_ids()) == {victim.node_id}
        assert depleted == 1
        assert dense_state.node(victim.node_id).energy == pytest.approx(4.0)

    def test_no_depletion_when_everyone_is_charged(self, dense_state):
        model = EnergyModel(idle_cost_per_round=0.1)
        enabled_before = dense_state.enabled_node_ids()
        assert model.apply_round(dense_state) == 0
        assert dense_state.enabled_node_ids() == enabled_before

