"""One layout of trials x schemes, and the spec lists it must not move.

The Section-5 sweep (once per ``N``), the lifetime runs, scenario files and
the CLI's ``compare`` all lay out their specs with :func:`expand_specs`.  The
layout puts trials outermost and schemes innermost, reseeds each trial's
config with the trial seed and uses that seed for the controller too, and
refuses an unregistered scheme with ``KeyError``.

The digests pin the canonical JSON of three whole spec lists, so a change to
the layout, an experiment's trial seeds or any spec default shows here.
``spec_to_dict`` holds no bytecode fingerprint (``run_key`` does), so the
digests are the same on every supported Python.
"""

import hashlib
import json

import pytest

from repro.experiments.catalog import catalog_names, load_catalog_scenario
from repro.experiments.figures import PAPER_SPARE_VALUES, SECTION5_CONFIG
from repro.experiments.lifetime import LIFETIME_CONFIG, build_lifetime_specs
from repro.experiments.orchestration import RunSpec, expand_specs
from repro.experiments.persistence import spec_to_dict
from repro.experiments.sweep import build_comparison_specs
from repro.sim.scenario import ScenarioConfig

CONFIG = ScenarioConfig(columns=4, rows=4, deployed_count=48, spare_surplus=4, seed=3)


def digest(specs) -> str:
    """SHA-256 of the specs' canonical JSON."""
    text = json.dumps([spec_to_dict(spec) for spec in specs], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_trials_are_outermost_and_schemes_innermost():
    specs = expand_specs(CONFIG, ("SR", "AR", "VF"), [11, 12], max_rounds=30)
    assert [(spec.seed, spec.scheme) for spec in specs] == [
        (11, "SR"), (11, "AR"), (11, "VF"),
        (12, "SR"), (12, "AR"), (12, "VF"),
    ]


def test_each_trial_reseeds_the_config_and_the_controller():
    specs = expand_specs(CONFIG, ("SR",), [11, 12], max_rounds=30, idle_round_limit=5)
    assert specs == [
        RunSpec(
            scenario=CONFIG.with_seed(seed),
            scheme="SR",
            seed=seed,
            max_rounds=30,
            idle_round_limit=5,
        )
        for seed in (11, 12)
    ]


def test_an_unregistered_scheme_is_refused_before_any_spec():
    with pytest.raises(KeyError, match=r"unknown schemes \['NOPE'\]; available: \["):
        expand_specs(CONFIG, ("SR", "NOPE"), [11])


def test_the_section5_sweep_specs_are_unchanged():
    specs = build_comparison_specs(SECTION5_CONFIG, PAPER_SPARE_VALUES, trials=2)
    assert len(specs) == 40
    assert digest(specs) == (
        "74c0ee81b18fa5de501e05c971b9fad27b2c5974e7396e455554f3f4ed8296c6"
    )


def test_the_lifetime_specs_are_unchanged():
    specs = build_lifetime_specs(LIFETIME_CONFIG, trials=4)
    assert len(specs) == 16
    assert digest(specs) == (
        "e4c28001bfdcdc25a5b05092a60034b447b3d674f334f1447fc3a7978d3afac2"
    )


def test_the_catalog_specs_are_unchanged():
    specs = [
        spec for name in catalog_names() for spec in load_catalog_scenario(name).run_specs()
    ]
    assert len(specs) == 26
    assert digest(specs) == (
        "d190fd154864f5e6a80863a2b3746577a6ba98d1b2d45b1587c8595f01a9675f"
    )
