"""Each correctness check passes a genuine record and fires on a hand-doctored one."""

import copy

import pytest

import checks
from repro.experiments.orchestration import RunSpec, execute_run
from repro.experiments.persistence import record_to_dict
from repro.network.energy import EnergyModel
from repro.sim.scenario import ScenarioConfig

SMALL = ScenarioConfig(columns=4, rows=4, deployed_count=120, spare_surplus=6, seed=3)
POWERED = ScenarioConfig(
    columns=4,
    rows=4,
    deployed_count=120,
    spare_surplus=6,
    seed=3,
    initial_energy=20.0,
    initial_energy_jitter=0.5,
)


@pytest.fixture(scope="module")
def sr_record():
    return record_to_dict(execute_run(RunSpec(scenario=SMALL, scheme="SR", seed=3)))


@pytest.fixture(scope="module")
def lifetime_record():
    spec = RunSpec(
        scenario=POWERED,
        scheme="SR-energy",
        seed=3,
        max_rounds=300,
        energy=EnergyModel(idle_cost_per_round=0.5),
        run_to_exhaustion=True,
    )
    return record_to_dict(execute_run(spec))


def test_genuine_records_pass(sr_record, lifetime_record):
    assert sr_record["metrics"]["total_moves"] > 0
    assert len(lifetime_record["energy_series"]) > 1
    assert checks.record_violations(sr_record) == []
    assert checks.record_violations(lifetime_record) == []


def test_ledger_check_fires(sr_record):
    doctored = copy.deepcopy(sr_record)
    doctored["metrics"]["messages_sent"] += 1
    assert any("delivered" in v for v in checks.record_violations(doctored))


def test_theorem2_check_fires_on_sr_only(sr_record):
    doctored = copy.deepcopy(sr_record)
    cells = SMALL.columns * SMALL.rows
    doctored["metrics"]["total_moves"] = doctored["metrics"]["processes_initiated"] * cells + 1
    assert any("Theorem-2" in v for v in checks.record_violations(doctored))
    doctored["spec"]["scheme"] = "AR"
    assert checks.record_violations(doctored) == []


@pytest.mark.parametrize(
    "doctor, expected",
    [
        (lambda r: r["metrics"]["energy"].update(total_consumed=1e9), "outside"),
        (lambda r: r["energy_series"].__setitem__(-1, r["energy_series"][0] + 5.0), "increases"),
        (lambda r: r["metrics"]["energy"].update(total_energy=-1.0), "final series sample"),
        (lambda r: r.__setitem__("energy_series", []), "final series sample"),
        (lambda r: r["metrics"].__setitem__("energy", None), "no energy summary"),
    ],
)
def test_energy_checks_fire(lifetime_record, doctor, expected):
    doctored = copy.deepcopy(lifetime_record)
    doctor(doctored)
    assert any(expected in v for v in checks.record_violations(doctored))


def test_repeat_check_fires(sr_record):
    first = {"cached": False, "record": sr_record}
    assert checks.repeat_violations(first, {"cached": True, "record": sr_record}) == []
    assert checks.repeat_violations(first, {"cached": False, "record": sr_record})
    other = copy.deepcopy(sr_record)
    other["metrics"]["total_distance"] += 1.0
    assert checks.repeat_violations(first, {"cached": True, "record": other})


def test_recompute_check_fires(sr_record):
    assert not checks.recompute_differs(sr_record)
    doctored = copy.deepcopy(sr_record)
    doctored["metrics"]["total_moves"] += 1
    assert checks.recompute_differs(doctored)


def test_records_digest_is_canonical_and_ordered(sr_record, lifetime_record):
    shuffled_keys = dict(reversed(list(sr_record.items())))
    assert checks.records_sha256([sr_record]) == checks.records_sha256([shuffled_keys])
    assert checks.records_sha256([sr_record, lifetime_record]) != checks.records_sha256(
        [lifetime_record, sr_record]
    )
