"""Non-finite numbers and malformed integers never enter a spec.

``1e400`` is valid JSON that parses to ``inf``, and TOML accepts ``nan`` and
``inf``, so every numeric field a request or scenario file can set must
refuse them with :class:`ValueError` (a 400 at the HTTP service, a
:class:`ScenarioValidationError` for a file): the energy model's four rates,
the scenario's communication range and initial energy, and the failure
kinds' numbers, points and boxes.  So must an integer too large for a float
in any of those, and an integer field (grid size, counts, seeds, round
bounds, the failure kinds' counts and the channel kinds' rounds) holding a
float, a string, a ``bool`` or a value out of range: ``count: 2.5`` is
refused, not run as 2.  ``run_to_exhaustion`` takes only a ``bool``.  The
service also refuses a scheme that is not registered.

A spec also refuses a run that could never do what it asks: a failure or a
jammed channel's blackout that starts at or after the round bound
(``max_rounds``, or the engine's default of 4 rounds per cell), a targeted
cell or a jammed region off the grid, and exhaustion without idle drain.
"""

from __future__ import annotations

import math
import re
import threading

import pytest

from repro.experiments.catalog import load_catalog_scenario
from repro.experiments.orchestration import RunSpec
from repro.experiments.scenario_files import (
    ScenarioValidationError,
    dumps_scenario,
    loads_scenario,
)
from repro.network.channel import channel_from_dict
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent
from repro.serve import ServeClient, ServeConfig, make_server, spec_from_request
from repro.serve.client import ServeError
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


#: An integer no float can hold (JSON and TOML both carry it exactly).
TOO_LARGE = 10**400
SCENARIO = {"columns": 4, "rows": 4, "deployed_count": 48, "spare_surplus": 4, "seed": 3}

#: ``(where, key, value)``: one bad field, set on the record it belongs to.
ADMISSION_ROWS = [
    ("scenario", "communication_range", TOO_LARGE),
    ("scenario", "initial_energy", TOO_LARGE),
    ("energy", "idle_cost_per_round", TOO_LARGE),
    ("energy", "move_cost_per_meter", TOO_LARGE),
    ("energy", "message_cost", TOO_LARGE),
    ("energy", "depletion_threshold", TOO_LARGE),
    ("failure", "region_jamming", {"center": [TOO_LARGE, 1.0], "radius": 1.0}),
    ("failure", "region_jamming", {"center": [1.0, 1.0], "radius": TOO_LARGE}),
    ("failure", "region_jamming", {"box": [0.0, 0.0, TOO_LARGE, 2.0]}),
    ("failure", "battery_depletion", {"threshold": TOO_LARGE}),
    ("channel", "delayed", {"latency": TOO_LARGE}),
    ("channel", "delayed", {"latency": math.inf}),
    ("channel", "jammed", {"region": [0, 0, 1, 1], "from_round": 0, "until_round": math.inf}),
    ("failure-round", "random", 2.5),
    ("failure-round", "random", True),
    ("failure", "random", {"count": 2.5}),
    ("failure", "thinning", {"target_enabled": 20.5}),
    ("channel", "delayed", {"latency": 2.5}),
    ("channel", "jammed", {"region": [0, 0, 1, 1], "from_round": 1.5, "until_round": 4}),
    ("channel", "jammed", {"region": [0, 0, 1, 1], "from_round": 0, "until_round": 4.5}),
    ("run", "run_to_exhaustion", 1),
    ("run", "run_to_exhaustion", "true"),
    ("run", "max_rounds", 0),
    ("run", "max_rounds", -1),
    ("run", "idle_round_limit", 0),
    ("run", "idle_round_limit", -3),
    ("run", "max_rounds", 2.5),
    ("run", "max_rounds", "5"),
    ("run", "max_rounds", True),
    ("run", "seed", 1.5),
    ("scenario", "deployed_count", 2.5),
    ("scenario", "spare_surplus", 1.5),
    ("scenario", "columns", 4.5),
    ("scenario", "rows", True),
    ("scenario", "seed", "3"),
    ("run", "scheme", "no-such-scheme"),
    ("spec", "targeted-cell-off-grid",
     {"failures": [{"round": 0, "kind": "targeted_cells", "params": {"cells": [[9, 9]]}}]}),
    ("spec", "failure-at-max-rounds",
     {"failures": [{"round": 20, "kind": "random", "params": {"count": 2}}]}),
    ("spec", "failure-at-default-bound",
     {"max_rounds": None,
      "failures": [{"round": 64, "kind": "random", "params": {"count": 2}}]}),
    ("spec", "exhaustion-without-energy", {"run_to_exhaustion": True}),
    ("spec", "exhaustion-without-idle-cost",
     {"run_to_exhaustion": True, "energy": {"idle_cost_per_round": 0.0}}),
    ("spec", "jam-from-max-rounds",
     {"channel": {"kind": "jammed", "region": [0, 0, 3, 3],
                  "from_round": 20, "until_round": 30}}),
    ("spec", "jam-off-grid",
     {"channel": {"kind": "jammed", "region": [10, 10, 12, 12],
                  "from_round": 0, "until_round": 5}}),
    ("spec", "region-disc-off-area",
     {"failures": [{"round": 0, "kind": "region_jamming",
                    "params": {"center": [1000, 1000], "radius": 1}}]}),
    ("spec", "region-box-off-area",
     {"failures": [{"round": 0, "kind": "region_jamming",
                    "params": {"box": [-50, -50, -1, -1]}}]}),
]


def _row_id(row) -> str:
    where, key, value = row
    if where == "spec":
        return f"spec.{key}"
    return f"{where}.{key}={value!r}".replace(repr(TOO_LARGE), "10**400")


def request_body(where: str, key: str, value: object) -> dict:
    """A small ``POST /run`` body with the row's field set."""
    body = {"scenario": dict(SCENARIO), "scheme": "SR", "max_rounds": 20}
    if where == "scenario":
        body["scenario"][key] = value
    elif where == "energy":
        body["energy"] = {key: value}
    elif where == "failure":
        body["failures"] = [{"round": 0, "kind": key, "params": value}]
    elif where == "failure-round":
        body["failures"] = [{"round": value, "kind": key, "params": {"count": 2}}]
    elif where == "channel":
        body["channel"] = dict(value, kind=key)
    elif where == "spec":
        body.update(value)
    else:
        body[key] = value
    return body


def build(where: str, key: str, value: object) -> object:
    """Construct the record the field belongs to, as a scenario file does."""
    if where == "scenario":
        return ScenarioConfig(**dict(SCENARIO, **{key: value}))
    if where == "energy":
        return EnergyModel(**{key: value})
    if where == "failure":
        return FailureEvent.with_params(0, key, **value)
    if where == "failure-round":
        return FailureEvent.with_params(value, key, count=2)
    if where == "channel":
        return channel_from_dict(dict(value, kind=key))
    if key == "scheme":
        # Registration is the service's admission check, not the spec's.
        return spec_from_request(request_body(where, key, value))
    if where == "spec":
        body = request_body(where, key, value)
        energy = body.get("energy")
        return RunSpec(
            scenario=ScenarioConfig(**SCENARIO),
            scheme="SR",
            seed=3,
            max_rounds=body["max_rounds"],
            energy=EnergyModel(**energy) if energy is not None else None,
            run_to_exhaustion=body.get("run_to_exhaustion", False),
            failures=tuple(
                FailureEvent.with_params(event["round"], event["kind"], **event["params"])
                for event in body.get("failures", ())
            ),
            channel=channel_from_dict(body.get("channel")),
        )
    fields = {"scenario": ScenarioConfig(**SCENARIO), "scheme": "SR", "seed": 3}
    return RunSpec(**dict(fields, **{key: value}))


@pytest.mark.parametrize("where, key, value", ADMISSION_ROWS, ids=map(_row_id, ADMISSION_ROWS))
def test_the_constructor_refuses_the_field(where, key, value):
    with pytest.raises(ValueError):
        build(where, key, value)


@pytest.fixture(scope="module")
def client():
    server = make_server(ServeConfig(port=0, workers=1))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield ServeClient(server.url, timeout=10)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


@pytest.mark.parametrize("where, key, value", ADMISSION_ROWS, ids=map(_row_id, ADMISSION_ROWS))
def test_post_run_answers_400(client, where, key, value):
    with pytest.raises(ServeError) as excinfo:
        client.run(request_body(where, key, value))
    assert excinfo.value.status == 400


#: What the refusal of each ``spec`` row says: the field and why it cannot act.
SPEC_REFUSALS = {
    "targeted-cell-off-grid": "failures[0]: cell [9, 9] is outside the 4x4 grid",
    "failure-at-max-rounds": "failures[0]: round 20 never fires: max_rounds is 20",
    "failure-at-default-bound": (
        "failures[0]: round 64 never fires: the engine's default bound is 64 rounds"
    ),
    "exhaustion-without-energy": "positive idle_cost_per_round",
    "exhaustion-without-idle-cost": "positive idle_cost_per_round",
    "jam-from-max-rounds": "channel: blackout from round 20 never fires: max_rounds is 20",
    "jam-off-grid": "channel: region [10, 10, 12, 12] is outside the 4x4 grid",
    "region-disc-off-area": (
        "failures[0]: region_jamming disc at [1000.0, 1000.0] with radius 1.0 lies "
        "wholly outside the surveillance area [0, 0, 17.8885, 17.8885]"
    ),
    "region-box-off-area": (
        "failures[0]: region_jamming box [-50.0, -50.0, -1.0, -1.0] lies wholly "
        "outside the surveillance area [0, 0, 17.8885, 17.8885]"
    ),
}
SPEC_ROWS = [row for row in ADMISSION_ROWS if row[0] == "spec"]


@pytest.mark.parametrize("where, key, value", SPEC_ROWS, ids=map(_row_id, SPEC_ROWS))
def test_a_run_that_cannot_act_is_refused_naming_the_field(client, where, key, value):
    with pytest.raises(ValueError, match=re.escape(SPEC_REFUSALS[key])):
        build(where, key, value)
    with pytest.raises(ServeError) as excinfo:
        client.run(request_body(where, key, value))
    assert SPEC_REFUSALS[key] in str(excinfo.value)


def test_a_small_valid_body_still_runs(client):
    assert client.run(request_body("run", "max_rounds", 20))["record"]["spec"]["scheme"] == "SR"
