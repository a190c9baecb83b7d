"""Tests for the differential harness and its oracles.

Two layers:

* **Known-violation fixtures** — every oracle gets a hand-doctored
  :class:`DifferentialContext` (miscounted moves, a non-conserved message
  ledger, a rising energy series, a state-cached record that diverges from
  its from-scratch baseline) it must flag, plus a clean context it must
  pass.  An oracle without a fixture proving it fires is dead weight.
* **Harness integration** — ``run_differential`` over a real scenario is
  clean of bug-severity violations, and ``run_fuzz`` is deterministic: equal
  seeds archive byte-identical falsifier sets.
"""

import dataclasses

import pytest

from repro.experiments.differential import (
    ORACLES,
    DifferentialContext,
    check_energy_reconciliation,
    check_message_conservation,
    check_sr_ar_moves,
    check_state_cache_identity,
    check_theorem2_bound,
    run_differential,
    run_fuzz,
)
from repro.experiments.registry import available_schemes
from repro.experiments.scenario_files import Scenario, load_scenario
from repro.network.channel import ChannelModel
from repro.network.energy import EnergyModel
from repro.sim.scenario import ScenarioConfig


@pytest.fixture(scope="module")
def base_scenario():
    return Scenario(
        name="differential-fixture",
        scenario=ScenarioConfig(
            columns=4,
            rows=4,
            deployed_count=64,
            spare_surplus=6,
            seed=17,
            initial_energy=80.0,
        ),
        schemes=("SR", "AR"),
        energy=EnergyModel(idle_cost_per_round=0.5),
        channel=ChannelModel.with_params("lossy", drop_probability=0.2),
        trials=1,
        max_rounds=60,
    )


@pytest.fixture(scope="module")
def clean_report(base_scenario):
    return run_differential(base_scenario)


def doctor_record(record, **metric_changes):
    """Copy of ``record`` with doctored metrics fields."""
    return dataclasses.replace(
        record, metrics=dataclasses.replace(record.metrics, **metric_changes)
    )


def swap_record(context, scheme, record, trial=0):
    """Copy of ``context`` with trial ``trial``'s ``scheme`` record replaced."""
    position = trial * len(context.schemes) + context.schemes.index(scheme)
    records = list(context.records)
    records[position] = record
    return dataclasses.replace(context, records=tuple(records))


def get_record(context, scheme, trial=0):
    """Trial ``trial``'s record of ``scheme`` from the context."""
    return context.records[trial * len(context.schemes) + context.schemes.index(scheme)]


class TestHarness:
    def test_clean_scenario_has_no_bug_violations(self, clean_report):
        assert not clean_report.bug_violations

    def test_all_registered_oracles_are_evaluated(self, clean_report):
        assert tuple(o.name for o in clean_report.outcomes) == tuple(
            o.name for o in ORACLES
        )

    def test_schemes_are_replaced_by_the_full_registry(self, clean_report):
        # The input scenario named only SR and AR; the harness widens the
        # comparison to every registered scheme on the identical deployment.
        assert clean_report.context.schemes == available_schemes()
        assert len(clean_report.context.records) == len(available_schemes())

    def test_by_trial_regroups_records_per_scheme(self, clean_report):
        per_trial = clean_report.context.by_trial()
        assert len(per_trial) == 1
        assert set(per_trial[0]) == set(available_schemes())
        for scheme, record in per_trial[0].items():
            # metrics.scheme is the controller family ("SR-energy" runs the
            # SR controller); the spec records the registry name exactly.
            assert record.spec.scheme == scheme

    def test_state_cache_reruns_happened(self, clean_report):
        trio = clean_report.context.state_cache_trio
        assert trio is not None
        sr_spec = get_record(clean_report.context, "SR").spec
        assert all(record.spec == sr_spec for record in trio)


class TestSrArMovesOracle:
    def test_clean_context_passes(self, clean_report):
        # Bug-severity cleanliness is guaranteed; for this claim oracle the
        # fixture seed was chosen so the per-seed claim holds too.
        assert check_sr_ar_moves(clean_report.context) == []

    def test_flags_sr_moving_more_than_ar(self, clean_report):
        context = clean_report.context
        ar = get_record(context, "AR")
        doctored = swap_record(
            context,
            "SR",
            doctor_record(
                get_record(context, "SR"),
                total_moves=ar.metrics.total_moves + 5,
                final_holes=0,
            ),
        )
        doctored = swap_record(doctored, "AR", doctor_record(ar, final_holes=0))
        violations = check_sr_ar_moves(doctored)
        assert len(violations) == 1
        assert "SR moved" in violations[0] and "both converged" in violations[0]

    def test_ignores_trials_where_either_scheme_stalled(self, clean_report):
        context = clean_report.context
        ar = get_record(context, "AR")
        doctored = swap_record(
            context,
            "SR",
            doctor_record(
                get_record(context, "SR"),
                total_moves=ar.metrics.total_moves + 5,
                final_holes=2,  # SR did not converge: the claim says nothing
            ),
        )
        assert check_sr_ar_moves(doctored) == []

    def test_is_claim_severity(self):
        oracle = next(o for o in ORACLES if o.name == "sr-ar-moves")
        assert oracle.severity == "claim"


class TestTheorem2Oracle:
    def test_clean_context_passes(self, clean_report):
        assert check_theorem2_bound(clean_report.context) == []

    def test_flags_sr_moves_over_the_hard_bound(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        cells = context.scenario.scenario.cell_count
        bound = sr.metrics.processes_initiated * cells
        doctored = swap_record(
            context, "SR", doctor_record(sr, total_moves=bound + 1)
        )
        violations = check_theorem2_bound(doctored)
        assert len(violations) == 1
        assert f"hard bound" in violations[0] and "SR" in violations[0]

    def test_is_scoped_to_the_sr_family(self, clean_report):
        # AR moves spares directly and SMART/VF relocate without replacement
        # processes — the process-count bound says nothing about them.
        context = clean_report.context
        doctored = swap_record(
            context,
            "AR",
            doctor_record(get_record(context, "AR"), total_moves=10_000),
        )
        assert check_theorem2_bound(doctored) == []


class TestEnergyReconciliationOracle:
    def test_clean_context_passes(self, clean_report):
        assert check_energy_reconciliation(clean_report.context) == []

    def test_flags_a_rising_energy_series(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        series = sr.energy_series
        assert len(series) >= 2, "fixture must carry an energy series"
        rising = series[:-1] + (series[-2] + 5.0,)
        doctored = swap_record(
            context, "SR", dataclasses.replace(sr, energy_series=rising)
        )
        violations = check_energy_reconciliation(doctored)
        assert any("energy created" in v for v in violations)

    def test_flags_consumption_beyond_installed_capacity(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        summary = dataclasses.replace(
            sr.metrics.energy,
            total_consumed=sr.metrics.energy.initial_energy_total + 1.0,
        )
        doctored = swap_record(context, "SR", doctor_record(sr, energy=summary))
        violations = check_energy_reconciliation(doctored)
        assert any("installed" in v for v in violations)

    def test_flags_negative_consumption(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        summary = dataclasses.replace(sr.metrics.energy, total_consumed=-1.0)
        doctored = swap_record(context, "SR", doctor_record(sr, energy=summary))
        violations = check_energy_reconciliation(doctored)
        assert any("negative total consumption" in v for v in violations)

    def test_flags_series_summary_disagreement(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        summary = dataclasses.replace(
            sr.metrics.energy, total_energy=sr.energy_series[-1] + 3.0
        )
        doctored = swap_record(context, "SR", doctor_record(sr, energy=summary))
        violations = check_energy_reconciliation(doctored)
        assert any("disagrees" in v for v in violations)

    def test_records_without_energy_are_skipped(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        stripped = dataclasses.replace(
            doctor_record(sr, energy=None), energy_series=()
        )
        doctored = swap_record(context, "SR", stripped)
        assert check_energy_reconciliation(doctored) == []


class TestMessageConservationOracle:
    def test_clean_context_passes(self, clean_report):
        # The fixture channel is lossy, so the ledger is non-trivial: some
        # messages dropped, possibly some still in flight at the end.
        context = clean_report.context
        assert any(r.metrics.messages_dropped > 0 for r in context.records)
        assert check_message_conservation(context) == []

    def test_flags_a_non_conserved_ledger(self, clean_report):
        context = clean_report.context
        sr = get_record(context, "SR")
        doctored = swap_record(
            context,
            "SR",
            doctor_record(
                sr, messages_delivered=sr.metrics.messages_delivered + 1
            ),
        )
        violations = check_message_conservation(doctored)
        assert len(violations) == 1
        assert "SR: sent" in violations[0]

    def test_flags_vanished_messages(self, clean_report):
        context = clean_report.context
        ar = get_record(context, "AR")
        doctored = swap_record(
            context,
            "AR",
            doctor_record(ar, messages_sent=ar.metrics.messages_sent + 7),
        )
        violations = check_message_conservation(doctored)
        assert len(violations) == 1 and "AR" in violations[0]


class TestStateCacheIdentityOracle:
    def test_clean_context_passes(self, clean_report):
        assert check_state_cache_identity(clean_report.context) == []

    def test_missing_trio_passes(self, clean_report):
        doctored = dataclasses.replace(clean_report.context, state_cache_trio=None)
        assert check_state_cache_identity(doctored) == []

    @pytest.mark.parametrize("position, label", [(1, "cache-miss"), (2, "cache-hit")])
    def test_flags_a_divergent_cached_record(self, clean_report, position, label):
        trio = list(clean_report.context.state_cache_trio)
        trio[position] = doctor_record(
            trio[position], total_moves=trio[position].metrics.total_moves + 1
        )
        doctored = dataclasses.replace(
            clean_report.context, state_cache_trio=tuple(trio)
        )
        violations = check_state_cache_identity(doctored)
        assert len(violations) == 1
        assert violations[0].startswith(f"{label} run diverged")
        assert "metrics" in violations[0]

    def test_cached_flag_does_not_break_identity(self, clean_report):
        # `cached` is provenance, not physics: a record served from the run
        # cache still matches a fresh execution.
        baseline, miss, hit = clean_report.context.state_cache_trio
        doctored = dataclasses.replace(
            clean_report.context,
            state_cache_trio=(dataclasses.replace(baseline, cached=True), miss, hit),
        )
        assert check_state_cache_identity(doctored) == []


class TestRunFuzz:
    def test_requires_samples_or_minutes(self):
        with pytest.raises(ValueError):
            run_fuzz(seed=1)

    def test_zero_minutes_still_runs_one_sample(self):
        result = run_fuzz(seed=1, minutes=0.0)
        assert result.samples_run == 1

    def test_known_seed_archives_a_claim_falsifier(self, tmp_path):
        # Seed 22 sample 2 is a known discovery: a per-seed counterexample
        # to "SR moves <= AR moves" (claim severity).
        result = run_fuzz(seed=22, samples=5, archive_dir=tmp_path)
        assert result.samples_run == 5
        assert not result.bug_falsifiers
        names = [f.scenario.name for f in result.claim_falsifiers]
        assert names == ["falsified-sr-ar-moves-s22-i2"]
        falsifier = result.claim_falsifiers[0]
        assert falsifier.path is not None and falsifier.path.exists()
        archived = load_scenario(falsifier.path)
        assert archived.name == "falsified-sr-ar-moves-s22-i2"
        assert archived.stresses  # the violation detail rides along
        assert "sr-ar-moves" in archived.description

    def test_equal_seeds_archive_byte_identical_falsifiers(self, tmp_path):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first = run_fuzz(seed=22, samples=5, archive_dir=first_dir)
        second = run_fuzz(seed=22, samples=5, archive_dir=second_dir)
        first_files = sorted(p.name for p in first_dir.iterdir())
        second_files = sorted(p.name for p in second_dir.iterdir())
        assert first_files == second_files and first_files
        for name in first_files:
            assert (first_dir / name).read_bytes() == (
                second_dir / name
            ).read_bytes()
        assert [f.violations for f in first.falsifiers] == [
            f.violations for f in second.falsifiers
        ]

    def test_archived_falsifier_still_fails_its_oracle_on_replay(self, tmp_path):
        result = run_fuzz(seed=22, samples=5, archive_dir=tmp_path)
        falsifier = result.falsifiers[0]
        oracle = next(o for o in ORACLES if o.name == falsifier.oracle)
        replay = run_differential(
            load_scenario(falsifier.path), oracles=(oracle,)
        )
        assert not replay.outcomes[0].passed
