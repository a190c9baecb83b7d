"""Tests for the initial-state cache.

The contracts exercised here:

* entries are keyed by the frozen scenario config — equal configs share an
  entry, configs that differ in any field never do;
* :class:`StateCache` lookups are LRU-bounded, counted, and always hand out
  private copies — mutating a result never contaminates later lookups;
* a miss and a hit both return states byte-identical to a from-scratch
  ``build_scenario_state`` of the same config;
* a thundering herd of threads over one missing scenario performs exactly
  one build;
* ``execute_run`` through a state cache produces records byte-identical to
  cache-off execution, and the process-wide default can be swapped/disabled.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.experiments.orchestration import RunSpec, execute_run
from repro.experiments.persistence import record_to_dict
from repro.experiments import state_cache as state_cache_module
from repro.experiments.state_cache import (
    DEFAULT_CAPACITY,
    StateCache,
    default_state_cache,
    set_default_state_cache,
)
from repro.sim.scenario import ScenarioConfig, build_scenario_state

QUICK_CONFIG = ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7)


def assert_states_identical(left, right) -> None:
    """Byte-level equality of two states: grid, every column, head table."""
    assert left.grid.columns == right.grid.columns
    assert left.grid.rows == right.grid.rows
    assert left.grid.cell_size == right.grid.cell_size
    for column in (
        "node_ids",
        "positions",
        "energy",
        "initial_energy",
        "state",
        "role",
        "cell",
        "moved_distance",
        "move_count",
    ):
        a = getattr(left.arrays, column)
        b = getattr(right.arrays, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    assert left.heads() == right.heads()


# ------------------------------------------------------------------- keying
def test_equal_configs_share_an_entry():
    cache = StateCache()
    cache.state_for(QUICK_CONFIG)
    twin = ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7)
    assert twin is not QUICK_CONFIG
    assert cache.contains(twin)
    cache.state_for(twin)
    assert (cache.stats().hits, len(cache)) == (1, 1)


#: One changed value per ScenarioConfig field; the tests below check that the
#: table covers every field.
FIELD_VARIANTS = {
    "columns": 6,
    "rows": 6,
    "communication_range": 12.0,
    "deployed_count": 151,
    "spare_surplus": 11,
    "seed": 8,
    "initial_energy": 2.0,
    "initial_energy_jitter": 0.25,
    "head_policy": "highest_energy",
    "deployment": "per_cell",
}


def test_field_variants_cover_every_config_field():
    fields = [field.name for field in dataclasses.fields(ScenarioConfig)]
    assert sorted(FIELD_VARIANTS) == sorted(fields)


@pytest.mark.parametrize("name", sorted(FIELD_VARIANTS))
def test_configs_that_differ_in_any_field_never_share_an_entry(name):
    cache = StateCache(capacity=2)
    cache.state_for(QUICK_CONFIG)
    variant = dataclasses.replace(QUICK_CONFIG, **{name: FIELD_VARIANTS[name]})
    assert variant != QUICK_CONFIG
    assert not cache.contains(variant)
    cache.state_for(variant)
    stats = cache.stats()
    assert (stats.misses, stats.hits, len(cache)) == (2, 0, 2)
    assert_states_identical(cache.state_for(variant), build_scenario_state(variant))


# -------------------------------------------------------------------- lookup
def test_state_for_matches_from_scratch_build():
    cache = StateCache()
    for _ in range(2):  # miss, then hit — both must equal a fresh build
        state = cache.state_for(QUICK_CONFIG)
        assert_states_identical(state, build_scenario_state(QUICK_CONFIG))
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.builds_saved == 1


def test_lookups_hand_out_private_copies():
    cache = StateCache()
    first = cache.state_for(QUICK_CONFIG)
    victim = first.enabled_nodes()[0].node_id
    first.disable_node(victim)
    second = cache.state_for(QUICK_CONFIG)
    assert second.node(victim).is_enabled
    assert_states_identical(second, build_scenario_state(QUICK_CONFIG))
    third = cache.state_for(QUICK_CONFIG)
    assert third is not second
    assert_states_identical(third, build_scenario_state(QUICK_CONFIG))


def test_lru_eviction_drops_the_least_recent_scenario():
    cache = StateCache(capacity=2)
    first = QUICK_CONFIG
    second = QUICK_CONFIG.with_seed(8)
    third = QUICK_CONFIG.with_seed(9)
    cache.state_for(first)
    cache.state_for(second)
    cache.state_for(first)  # refresh first; second is now LRU
    cache.state_for(third)
    assert cache.contains(first)
    assert not cache.contains(second)
    assert cache.contains(third)
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.entries == 2
    assert len(cache) == 2


def test_clear_empties_the_cache():
    cache = StateCache()
    cache.state_for(QUICK_CONFIG)
    assert cache.clear() == 1
    assert len(cache) == 0
    assert not cache.contains(QUICK_CONFIG)


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        StateCache(capacity=0)


def test_concurrent_lookups_build_once(monkeypatch):
    """A thundering herd over one missing scenario performs exactly one build."""
    builds = []
    real_build = state_cache_module.build_scenario_state

    def counting_build(config):
        builds.append(config)
        return real_build(config)

    monkeypatch.setattr(state_cache_module, "build_scenario_state", counting_build)
    cache = StateCache()
    barrier = threading.Barrier(8)
    results = []
    errors = []

    def lookup():
        try:
            barrier.wait(timeout=10)
            results.append(cache.state_for(QUICK_CONFIG))
        except Exception as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    threads = [threading.Thread(target=lookup) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(builds) == 1
    assert len(results) == 8
    for state in results:
        assert_states_identical(state, build_scenario_state(QUICK_CONFIG))


# ----------------------------------------------------------- process default
def test_default_cache_swap_and_disable():
    original = default_state_cache()
    try:
        replacement = StateCache(capacity=3)
        previous = set_default_state_cache(replacement)
        assert previous is original
        assert default_state_cache() is replacement
        assert set_default_state_cache(None) is replacement
        assert default_state_cache() is None
    finally:
        set_default_state_cache(original)
    assert default_state_cache() is original


def test_default_cache_exists_with_default_capacity():
    cache = default_state_cache()
    assert cache is not None
    assert cache.capacity == DEFAULT_CAPACITY


# ------------------------------------------------------- execute_run identity
def test_execute_run_records_identical_with_and_without_cache():
    """Cache-off, cache-miss, and cache-hit runs serialize identically."""
    spec = RunSpec(scenario=QUICK_CONFIG, scheme="SR", seed=3, max_rounds=40)
    cache = StateCache()
    baseline = execute_run(spec, state_cache=None)
    miss = execute_run(spec, state_cache=cache)
    hit = execute_run(spec, state_cache=cache)
    dumps = [
        json.dumps(record_to_dict(record), sort_keys=True)
        for record in (baseline, miss, hit)
    ]
    assert dumps[0] == dumps[1] == dumps[2]
    stats = cache.stats()
    assert stats.misses == 1
    assert stats.hits == 1
