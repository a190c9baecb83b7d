"""Non-finite numbers never enter a spec.

``1e400`` is valid JSON that parses to ``inf``, and TOML accepts ``nan`` and
``inf``, so every numeric field a request or scenario file can set must
refuse them with :class:`ValueError` (a 400 at the HTTP service, a
:class:`ScenarioValidationError` for a file): the energy model's four rates,
the scenario's communication range and initial energy, and the failure
kinds' numbers, points and boxes.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.catalog import load_catalog_scenario
from repro.experiments.scenario_files import (
    ScenarioValidationError,
    dumps_scenario,
    loads_scenario,
)
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent
from repro.sim.scenario import ScenarioConfig

NON_FINITE = (math.nan, math.inf, -math.inf)
ENERGY_RATES = (
    "idle_cost_per_round",
    "move_cost_per_meter",
    "message_cost",
    "depletion_threshold",
)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("rate", ENERGY_RATES)
def test_energy_model_rejects_a_non_finite_rate(rate, value):
    with pytest.raises(ValueError, match=f"{rate} must be finite"):
        EnergyModel(**{rate: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["communication_range", "initial_energy"])
def test_scenario_config_rejects_a_non_finite_field(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ScenarioConfig(columns=4, rows=4, deployed_count=48, seed=3, **{field: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "kind, params",
    [
        ("random", lambda v: {"count": v}),
        ("random", lambda v: {"probability": v}),
        ("thinning", lambda v: {"target_enabled": v}),
        ("region_jamming", lambda v: {"center": [v, 1.0], "radius": 1.0}),
        ("region_jamming", lambda v: {"center": [1.0, v], "radius": 1.0}),
        ("region_jamming", lambda v: {"center": [1.0, 1.0], "radius": v}),
        ("region_jamming", lambda v: {"box": [0.0, 0.0, v, 2.0]}),
        ("battery_depletion", lambda v: {"threshold": v}),
    ],
    ids=[
        "random-count",
        "random-probability",
        "thinning-target",
        "jamming-center-x",
        "jamming-center-y",
        "jamming-radius",
        "jamming-box",
        "depletion-threshold",
    ],
)
def test_failure_events_reject_non_finite_parameters(kind, params, value):
    with pytest.raises(ValueError, match=f"failure kind '{kind}'"):
        FailureEvent.with_params(0, kind, **params(value))


def test_finite_failure_parameters_still_build():
    FailureEvent.with_params(0, "random", count=3)
    FailureEvent.with_params(0, "region_jamming", center=[1, 1.5], radius=2)
    FailureEvent.with_params(0, "region_jamming", box=[0, 0, 2.5, 2])
    FailureEvent.with_params(0, "battery_depletion", threshold=0.5)


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
def test_a_scenario_file_energy_table_with_a_non_finite_rate_is_invalid(literal):
    text = dumps_scenario(load_catalog_scenario("paper-16x16"))
    assert "[energy]" not in text
    bad = text + f"\n[energy]\nidle_cost_per_round = {literal}\n"
    with pytest.raises(ScenarioValidationError, match="idle_cost_per_round must be finite"):
        loads_scenario(bad)
