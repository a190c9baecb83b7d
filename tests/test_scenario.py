"""Unit tests for the Section-5 scenario configuration and builder."""

import itertools

import pytest

from repro.network.deployment import deploy_per_cell, deploy_uniform
from repro.network.failures import ThinningToEnabledCount
from repro.network.state import WsnState
from repro.sim.rng import derive_rng
from repro.sim.scenario import HEAD_POLICIES, ScenarioConfig, build_scenario_state


class TestConfigValidation:
    def test_defaults_match_paper(self):
        config = ScenarioConfig()
        assert config.columns == 16 and config.rows == 16
        assert config.communication_range == 10.0
        assert config.deployed_count == 5000
        assert config.cell_size == pytest.approx(4.4721, abs=1e-4)
        assert config.cell_count == 256

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(columns=0)
        with pytest.raises(ValueError):
            ScenarioConfig(communication_range=0)
        with pytest.raises(ValueError):
            ScenarioConfig(deployed_count=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(spare_surplus=-5)
        with pytest.raises(ValueError):
            ScenarioConfig(head_policy="no-such-policy")
        with pytest.raises(ValueError):
            ScenarioConfig(deployment="hexagonal")

    def test_target_enabled(self):
        assert ScenarioConfig(spare_surplus=40).target_enabled == 256 + 40
        assert ScenarioConfig().target_enabled is None

    def test_with_helpers_return_copies(self):
        base = ScenarioConfig(seed=1)
        changed = base.with_spare_surplus(99).with_seed(7)
        assert changed.spare_surplus == 99 and changed.seed == 7
        assert base.spare_surplus is None and base.seed == 1

    def test_head_policy_lookup(self):
        for name in HEAD_POLICIES:
            assert ScenarioConfig(head_policy=name).head_policy_fn is HEAD_POLICIES[name]

    def test_make_grid(self):
        grid = ScenarioConfig(columns=8, rows=6).make_grid()
        assert grid.columns == 8 and grid.rows == 6
        assert grid.cell_size == pytest.approx(4.4721, abs=1e-4)


class TestBuildScenario:
    def test_thinning_gives_requested_enabled_count(self):
        config = ScenarioConfig(
            columns=8, rows=8, deployed_count=500, spare_surplus=30, seed=3
        )
        state = build_scenario_state(config)
        assert state.node_count == 500
        assert state.enabled_count == 64 + 30
        # The defining relation of the workload: spares exceed holes by N.
        assert state.spare_surplus == 30

    def test_no_thinning_without_spare_surplus(self):
        config = ScenarioConfig(columns=8, rows=8, deployed_count=300, seed=3)
        state = build_scenario_state(config)
        assert state.enabled_count == 300

    def test_reproducible_builds(self):
        config = ScenarioConfig(columns=8, rows=8, deployed_count=400, spare_surplus=20, seed=11)
        a = build_scenario_state(config)
        b = build_scenario_state(config)
        assert a.occupancy() == b.occupancy()
        assert a.heads() == b.heads()

    def test_different_seeds_differ(self):
        base = ScenarioConfig(columns=8, rows=8, deployed_count=400, spare_surplus=20)
        a = build_scenario_state(base.with_seed(1))
        b = build_scenario_state(base.with_seed(2))
        assert a.occupancy() != b.occupancy()

    def test_per_cell_deployment(self):
        config = ScenarioConfig(
            columns=6, rows=6, deployed_count=72, deployment="per_cell", seed=5
        )
        state = build_scenario_state(config)
        assert state.hole_count == 0
        assert all(count == 2 for count in state.occupancy().values())

    def test_heads_elected_in_built_state(self):
        config = ScenarioConfig(columns=8, rows=8, deployed_count=600, spare_surplus=64, seed=9)
        state = build_scenario_state(config)
        state.check_invariants()
        for coord in state.occupied_cells():
            assert state.head_of(coord) is not None


class TestPerCellDeploymentValidation:
    """per_cell deployments must honor deployed_count exactly or be rejected."""

    def test_non_multiple_count_is_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of the cell count"):
            ScenarioConfig(columns=6, rows=6, deployed_count=20, deployment="per_cell")

    def test_zero_count_is_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of the cell count"):
            ScenarioConfig(columns=4, rows=4, deployed_count=0, deployment="per_cell")

    def test_exact_multiple_deploys_exactly_that_many(self):
        config = ScenarioConfig(
            columns=4, rows=4, deployed_count=48, deployment="per_cell", seed=2
        )
        state = build_scenario_state(config)
        assert state.node_count == 48
        assert all(count == 3 for count in state.occupancy().values())


def build_by_composition(config: ScenarioConfig) -> WsnState:
    """The build spelled out through public calls: deploy, index, thin, batteries."""
    grid = config.make_grid()
    deploy_rng = derive_rng(config.seed, "deployment")
    if config.deployment == "uniform":
        arrays = deploy_uniform(grid, config.deployed_count, deploy_rng, as_arrays=True)
    else:
        arrays = deploy_per_cell(
            grid, config.deployed_count // config.cell_count, deploy_rng, as_arrays=True
        )
    state = WsnState(grid, arrays, head_policy=config.head_policy_fn)
    if config.target_enabled is not None:
        ThinningToEnabledCount(config.target_enabled).apply(
            state, derive_rng(config.seed, "thinning")
        )
    if config.initial_energy is not None:
        energy_rng = derive_rng(config.seed, "energy")
        for node in state.nodes():
            capacity = config.initial_energy
            if config.initial_energy_jitter:
                capacity *= 1.0 - config.initial_energy_jitter * energy_rng.random()
            node.reset_energy(capacity)
    return state


#: 6x5 grid, 240 nodes: thinning off, thinning to 30 + 12 enabled, and a
#: target above the deployment (no excess, so no victims).
_SPARE_SURPLUSES = (None, 12, 500)
#: Batteries: node default, a flat install, and a jittered install.
_ENERGIES = ((None, 0.0), (3.0, 0.0), (3.0, 0.25))


class TestBuildEqualsComposition:
    """``build_scenario_state`` thins before it indexes; the result must not show it."""

    @pytest.mark.parametrize(
        "head_policy, deployment, spare_surplus, energy",
        list(
            itertools.product(
                sorted(HEAD_POLICIES), ("uniform", "per_cell"), _SPARE_SURPLUSES, _ENERGIES
            )
        ),
    )
    def test_build_equals_deploy_index_thin_install(
        self, head_policy, deployment, spare_surplus, energy
    ):
        initial_energy, jitter = energy
        config = ScenarioConfig(
            columns=6,
            rows=5,
            deployed_count=240,
            spare_surplus=spare_surplus,
            seed=17,
            initial_energy=initial_energy,
            initial_energy_jitter=jitter,
            head_policy=head_policy,
            deployment=deployment,
        )
        built = build_scenario_state(config)
        reference = build_by_composition(config)
        built.check_invariants()
        assert built.to_bytes() == reference.to_bytes()
        assert built.heads() == reference.heads()
        assert built.occupancy() == reference.occupancy()
        assert built.vacant_cells() == reference.vacant_cells()
        assert built.spare_count == reference.spare_count
        for coord in built.grid.all_coords():
            assert [node.node_id for node in built.members_of(coord)] == [
                node.node_id for node in reference.members_of(coord)
            ]

    def test_empty_deployment_equals_composition(self):
        config = ScenarioConfig(columns=4, rows=4, deployed_count=0, spare_surplus=3)
        built = build_scenario_state(config)
        built.check_invariants()
        assert built.to_bytes() == build_by_composition(config).to_bytes()
        assert built.hole_count == 16
        assert set(built.heads().values()) == {None}
