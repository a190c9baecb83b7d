"""``run_key`` is the record store's address: its value must never drift.

A key is a SHA-256 over the spec's canonical JSON plus the identity of the
factory registered under the spec's scheme.  ``spec_to_dict`` builds the
scenario and energy dicts from their field names and ``factory_identity``
memoizes the code fingerprint per (factory, ``__code__``); both are
shortcuts that must leave every key as it was.  Two checks hold them to it:

* on every Python version, each key of a table of specs (plain, energy,
  failures, a lossy channel, a shadowed scheme) equals the key of a
  reference implementation kept here — the ``dataclasses.asdict`` payload
  and an unmemoized fingerprint;
* on CPython 3.11, where they were computed before the shortcuts existed,
  each key equals its pinned hex digest.  The fingerprint hashes bytecode,
  which differs between Python versions, so the pins are per version.

Shadowing a scheme with ``register_scheme(..., replace=True)``, or swapping
a factory's ``__code__``, must still change the key.
"""

import dataclasses
import hashlib
import json
import sys

import pytest

from repro.experiments.orchestration import RunSpec
from repro.experiments.persistence import CACHE_FORMAT_VERSION, run_key, spec_to_dict
from repro.experiments.registry import (
    _code_fingerprint,
    factory_identity,
    get_scheme,
    register_scheme,
)
from repro.network.channel import channel_to_dict, parse_channel_spec
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent, thaw_params
from repro.sim.scenario import ScenarioConfig

CONFIG = ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7, spare_surplus=10)


def _shadow_sr(state):
    """A stand-in for SR, registered over it to shadow the built-in factory."""
    return get_scheme("AR")(state)


# Fixed names, so the identity does not depend on how the test is imported.
_shadow_sr.__module__ = "shadow"
_shadow_sr.__qualname__ = "shadow_sr"

SPECS = {
    "plain": RunSpec(scenario=CONFIG, scheme="SR", seed=7, max_rounds=40),
    "energy": RunSpec(
        scenario=dataclasses.replace(CONFIG, initial_energy=40.0, initial_energy_jitter=0.5),
        scheme="AR-energy",
        seed=3,
        energy=EnergyModel(idle_cost_per_round=0.25),
        run_to_exhaustion=True,
        max_rounds=1500,
    ),
    "failures": RunSpec(
        scenario=CONFIG,
        scheme="AR",
        seed=2,
        failures=(
            FailureEvent.with_params(round=3, kind="random", count=4),
            FailureEvent.with_params(round=5, kind="targeted_cells", cells=[[1, 1], [2, 3]]),
        ),
    ),
    "lossy": RunSpec(
        scenario=CONFIG, scheme="SR", seed=5, channel=parse_channel_spec("lossy:0.2")
    ),
    "shadowed": RunSpec(scenario=CONFIG, scheme="SR", seed=7, max_rounds=40),
}

#: The keys each spec of :data:`SPECS` had before ``spec_to_dict`` read
#: fields directly and ``factory_identity`` memoized its fingerprint
#: (CPython 3.11; "shadowed" with :func:`_shadow_sr` registered as "SR").
PINNED_KEYS = {
    (3, 11): {
        "plain": "c1a7a2a7ff66ebdf8f6e7f44e4056fb8614bc76f53932223d821100016f9d5fc",
        "energy": "a1bb8d37ad1ac9a69d0fea14abd5f07f2167fba9765ebae71b51195f63ad3889",
        "failures": "4b46f9b3a7eecd731ffd9fc3ebe4d12ae9ce0c287dde3e8171cbc19953e83344",
        "lossy": "2fa41aec2d891807026596ce3dceef1b4d870572250507b34be1da2d4e8c20b4",
        "shadowed": "ae6a4e5525c6e67c2cfe490b228f3cde00f2243a074912c51fd77bd323d77a2f",
    },
}


def reference_identity(name: str) -> str:
    """``factory_identity`` computed from scratch, with no memo."""
    factory = get_scheme(name)
    identity = f"{factory.__module__}.{factory.__qualname__}"
    code = getattr(factory, "__code__", None)
    if code is not None:
        fingerprint = repr(_code_fingerprint(code))
        identity += ":" + hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]
    return identity


def reference_key(spec: RunSpec) -> str:
    """``run_key`` as computed before its shortcuts: ``asdict`` and no memo."""
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "scenario": dataclasses.asdict(spec.scenario),
        "scheme": spec.scheme,
        "seed": spec.seed,
        "max_rounds": spec.max_rounds,
        "idle_round_limit": spec.idle_round_limit,
        "energy": dataclasses.asdict(spec.energy) if spec.energy is not None else None,
        "run_to_exhaustion": spec.run_to_exhaustion,
        "failures": [
            {"round": event.round, "kind": event.kind, "params": dict(thaw_params(event.params))}
            for event in spec.failures
        ],
        "channel": channel_to_dict(spec.channel),
        "scheme_impl": reference_identity(spec.scheme),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.fixture
def shadowed_sr():
    """Register :func:`_shadow_sr` as "SR" for the test, then restore the built-in."""
    original = get_scheme("SR")
    register_scheme("SR", _shadow_sr, replace=True)
    try:
        yield
    finally:
        register_scheme("SR", original, replace=True)


def key_table() -> dict:
    """``name -> run_key`` over :data:`SPECS`, "shadowed" under the shadow."""
    keys = {name: run_key(spec) for name, spec in SPECS.items() if name != "shadowed"}
    original = get_scheme("SR")
    register_scheme("SR", _shadow_sr, replace=True)
    try:
        keys["shadowed"] = run_key(SPECS["shadowed"])
    finally:
        register_scheme("SR", original, replace=True)
    return keys


def test_format_version_is_unchanged():
    assert CACHE_FORMAT_VERSION == 5


@pytest.mark.parametrize("name", [name for name in SPECS if name != "shadowed"])
def test_key_equals_the_reference_key(name):
    spec = SPECS[name]
    assert run_key(spec) == reference_key(spec)
    assert run_key(spec) == run_key(spec), "a memoized identity must not drift"


def test_shadowed_key_equals_the_reference_key(shadowed_sr):
    spec = SPECS["shadowed"]
    assert run_key(spec) == reference_key(spec)
    assert factory_identity("SR") == reference_identity("SR")
    assert factory_identity("SR").startswith("shadow.shadow_sr:")


def test_shadowing_changes_the_key():
    spec = SPECS["plain"]
    builtin = run_key(spec)
    original = get_scheme("SR")
    register_scheme("SR", _shadow_sr, replace=True)
    try:
        shadowed = run_key(spec)
    finally:
        register_scheme("SR", original, replace=True)
    assert shadowed != builtin
    assert run_key(spec) == builtin, "restoring the built-in restores its key"


def test_swapping_a_factory_code_changes_the_key(shadowed_sr):
    spec = SPECS["shadowed"]
    before = run_key(spec)
    code = _shadow_sr.__code__
    try:
        _shadow_sr.__code__ = (lambda state: get_scheme("SR-energy")(state)).__code__
        swapped = run_key(spec)
        assert swapped == reference_key(spec)
    finally:
        _shadow_sr.__code__ = code
    assert swapped != before
    assert run_key(spec) == before


def test_spec_dict_holds_plain_field_values():
    payload = spec_to_dict(SPECS["energy"])
    assert payload["scenario"] == dataclasses.asdict(SPECS["energy"].scenario)
    assert payload["energy"] == dataclasses.asdict(SPECS["energy"].energy)
    assert list(payload["scenario"]) == [f.name for f in dataclasses.fields(ScenarioConfig)]


@pytest.mark.skipif(
    sys.version_info[:2] not in PINNED_KEYS,
    reason="the factory fingerprint hashes bytecode; keys are pinned per Python version",
)
def test_keys_equal_the_pinned_keys():
    assert key_table() == PINNED_KEYS[sys.version_info[:2]]
