"""Property tests for the seeded scenario fuzzer (:mod:`repro.experiments.fuzz`).

The sampler's contract is *constraint-aware validity*: every sampled document
must pass ``load_scenario`` validation, round-trip byte-stably, and compile
to cache-key-stable ``RunSpec`` cells.  The suite proves that over hundreds
of samples, pins the sampler's determinism (sample ``i`` is a pure function
of ``(seed, i)``), shows the sampled space actually covers the declarative
surface (all channel kinds, all failure kinds, both deployments), and
exercises the shrink/minimize machinery the falsifier archive depends on.
"""

import dataclasses

import pytest

from repro.experiments.fuzz import (
    ScenarioSampler,
    minimize_scenario,
    shrink_candidates,
    validate_roundtrip,
)
from repro.experiments.persistence import run_key
from repro.experiments.scenario_files import dumps_scenario, load_scenario
from repro.network.channel import ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent
from repro.sim.scenario import ScenarioConfig

PROPERTY_SEED = 2026
PROPERTY_SAMPLES = 500


@pytest.fixture(scope="module")
def property_samples():
    return ScenarioSampler(PROPERTY_SEED).samples(PROPERTY_SAMPLES)


class TestSampledValidity:
    def test_every_sample_passes_the_validity_gate(self, property_samples):
        # validate_roundtrip raises FuzzValidationError naming the broken
        # property (loads / dumps / run_key); surviving all samples proves
        # the sampler and the document validator agree on validity.
        for sample in property_samples:
            validate_roundtrip(sample.scenario)

    def test_dumps_are_byte_stable(self, property_samples):
        for sample in property_samples[:50]:
            first = dumps_scenario(sample.scenario, format="toml")
            second = dumps_scenario(sample.scenario, format="toml")
            assert first == second

    def test_compiled_specs_are_cache_key_stable(self, property_samples):
        for sample in property_samples[:50]:
            keys_a = [run_key(spec) for spec in sample.scenario.run_specs()]
            keys_b = [run_key(spec) for spec in sample.scenario.run_specs()]
            assert keys_a == keys_b
            assert len(set(keys_a)) == len(keys_a), "specs must not collide"


class TestSamplerDeterminism:
    def test_sample_is_pure_in_seed_and_index(self):
        a = ScenarioSampler(9).sample(7)
        b = ScenarioSampler(9).sample(7)
        assert a == b
        assert dumps_scenario(a.scenario, format="toml") == dumps_scenario(
            b.scenario, format="toml"
        )

    def test_samples_are_independent_across_indices(self):
        # sample(7) alone equals sample(7) reached through samples(8):
        # no hidden stream state leaks between indices.
        direct = ScenarioSampler(9).sample(7)
        sequential = ScenarioSampler(9).samples(8)[7]
        assert direct == sequential

    def test_different_seeds_give_different_documents(self):
        a = ScenarioSampler(1).sample(0).scenario
        b = ScenarioSampler(2).sample(0).scenario
        assert dumps_scenario(a, format="toml") != dumps_scenario(b, format="toml")


class TestSampledSpaceCoverage:
    def test_channel_kinds_all_appear(self, property_samples):
        kinds = {
            sample.scenario.channel.kind if sample.scenario.channel else "none"
            for sample in property_samples
        }
        assert {"none", "lossy", "delayed", "jammed"} <= kinds

    def test_failure_kinds_all_appear(self, property_samples):
        kinds = {
            event.kind
            for sample in property_samples
            for event in sample.scenario.failures
        }
        assert {
            "random",
            "thinning",
            "region_jamming",
            "targeted_cells",
            "battery_depletion",
        } <= kinds

    def test_deployments_energy_and_trials_vary(self, property_samples):
        scenarios = [sample.scenario for sample in property_samples]
        assert {s.scenario.deployment for s in scenarios} == {"uniform", "per_cell"}
        assert any(s.energy is not None for s in scenarios)
        assert any(s.energy is None for s in scenarios)
        assert any(s.run_to_exhaustion for s in scenarios)
        assert {s.trials for s in scenarios} == {1, 2}
        assert any(len(s.schemes) > 2 for s in scenarios)
        assert all({"SR", "AR"} <= set(s.schemes) for s in scenarios)

    def test_failure_rounds_stay_inside_the_round_bound(self, property_samples):
        for sample in property_samples:
            bound = sample.scenario.max_rounds
            assert all(event.round < bound for event in sample.scenario.failures)


def loaded_scenario():
    """A fully-loaded scenario every shrink axis can act on."""
    return validate_roundtrip(
        dataclasses.replace(
            ScenarioSampler(0).sample(0).scenario,
            scenario=ScenarioConfig(
                columns=8, rows=8, deployed_count=256, spare_surplus=10, seed=3
            ),
            failures=(
                FailureEvent.with_params(round=5, kind="random", count=2),
                FailureEvent.with_params(
                    round=9, kind="targeted_cells", cells=[[0, 0]]
                ),
            ),
            energy=EnergyModel(idle_cost_per_round=0.5),
            channel=ChannelModel.with_params("delayed", latency=2),
            trials=2,
            max_rounds=80,
            run_to_exhaustion=True,
        )
    )


class TestShrinking:
    def test_candidates_are_ordered_cheapest_first(self):
        candidates = list(shrink_candidates(loaded_scenario()))
        assert candidates[0].max_rounds == 40  # halve the round bound first
        assert candidates[1].trials == 1  # then collapse the trials
        grids = {(c.scenario.columns, c.scenario.rows) for c in candidates}
        assert (4, 8) in grids and (8, 4) in grids  # then halve the grid

    def test_every_candidate_is_a_valid_document(self):
        scenario = loaded_scenario()
        candidates = list(shrink_candidates(scenario))
        assert candidates, "a loaded scenario must offer simplifications"
        for candidate in candidates:
            validate_roundtrip(candidate)
            assert candidate != scenario

    def test_structural_deletions_are_offered(self):
        scenario = loaded_scenario()
        candidates = list(shrink_candidates(scenario))
        assert any(len(c.failures) == 1 for c in candidates)
        assert any(c.channel is None for c in candidates)
        assert any(c.energy is None for c in candidates)

    def test_minimize_shrinks_while_the_predicate_holds(self):
        scenario = loaded_scenario()
        minimized = minimize_scenario(
            scenario, lambda candidate: candidate.scenario.cell_count >= 8
        )
        assert minimized.scenario.cell_count >= 8
        assert minimized.scenario.cell_count < scenario.scenario.cell_count
        assert minimized.trials == 1
        assert minimized.max_rounds == 20

    def test_minimize_is_deterministic(self):
        predicate = lambda candidate: candidate.scenario.cell_count >= 8  # noqa: E731
        a = minimize_scenario(loaded_scenario(), predicate)
        b = minimize_scenario(loaded_scenario(), predicate)
        assert dumps_scenario(a, format="toml") == dumps_scenario(b, format="toml")

    def test_minimize_respects_the_evaluation_budget(self):
        calls = []

        def counting(candidate):
            calls.append(candidate)
            return True

        minimize_scenario(loaded_scenario(), counting, max_evaluations=3)
        assert len(calls) == 3

    def test_minimized_falsifier_survives_a_disk_round_trip(self, tmp_path):
        from repro.experiments.scenario_files import dump_scenario

        minimized = minimize_scenario(
            loaded_scenario(), lambda candidate: True
        )
        path = dump_scenario(
            dataclasses.replace(minimized, name="minimized"),
            tmp_path / "minimized.toml",
        )
        assert load_scenario(path).scenario == minimized.scenario
