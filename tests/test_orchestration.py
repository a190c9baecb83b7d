"""Tests for the run-orchestration layer: registry, executors, persistence.

The contracts exercised here are the ones the sweep stack depends on:

* the scheme registry resolves names, rejects duplicates and unknowns;
* ``execute_run`` is a pure function of its (picklable) ``RunSpec``;
* serial and parallel executors produce identical records in spec order;
* a parallel worker builds each scenario group once, and a dead worker
  fails only its own batch;
* the run cache round-trips records, treats damage as a miss, and lets a
  repeated sweep finish with zero re-executions.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.experiments.broker import execute_many
from repro.experiments.orchestration import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    execute_run,
    make_executor,
)
from repro.experiments.persistence import (
    CACHE_FORMAT_VERSION,
    RunCache,
    record_from_dict,
    record_to_dict,
    run_key,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.registry import (
    available_schemes,
    get_scheme,
    make_controller,
    register_scheme,
    unregister_scheme,
)
from repro.experiments.sweep import build_comparison_specs, run_comparison
from repro.sim.scenario import ScenarioConfig, build_scenario_state

QUICK_CONFIG = ScenarioConfig(columns=6, rows=6, deployed_count=200, seed=7)


def _module_level_sr_factory(state):
    """Picklable factory for the worker-propagation test (must be top-level)."""
    from repro.core.hamilton import build_hamilton_cycle
    from repro.core.replacement import HamiltonReplacementController

    return HamiltonReplacementController(build_hamilton_cycle(state.grid))


def quick_spec(scheme: str = "SR", seed: int = 7, spare_surplus: int = 15, **kwargs) -> RunSpec:
    return RunSpec(
        scenario=QUICK_CONFIG.with_spare_surplus(spare_surplus),
        scheme=scheme,
        seed=seed,
        **kwargs,
    )


class TestRegistry:
    def test_builtin_schemes_are_registered(self):
        assert set(available_schemes()) >= {"SR", "SR-shortcut", "AR", "VF", "SMART"}
        assert available_schemes() == tuple(sorted(available_schemes()))

    def test_get_scheme_unknown_lists_available(self):
        with pytest.raises(KeyError, match="SR"):
            get_scheme("NOPE")

    def test_make_controller_unknown_scheme(self):
        state = build_scenario_state(QUICK_CONFIG.with_spare_surplus(10))
        with pytest.raises(KeyError):
            make_controller("NOPE", state)

    def test_register_and_unregister_round_trip(self):
        from repro.core.baseline_ar import LocalizedReplacementController

        factory = lambda state: LocalizedReplacementController(state.grid)  # noqa: E731
        register_scheme("AR-test-alias", factory)
        try:
            assert "AR-test-alias" in available_schemes()
            assert get_scheme("AR-test-alias") is factory
            state = build_scenario_state(QUICK_CONFIG.with_spare_surplus(10))
            assert make_controller("AR-test-alias", state).name == "AR"
        finally:
            unregister_scheme("AR-test-alias")
        assert "AR-test-alias" not in available_schemes()

    def test_duplicate_registration_requires_replace(self):
        register_scheme("dup-test", lambda state: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme("dup-test", lambda state: None)
            register_scheme("dup-test", lambda state: None, replace=True)
        finally:
            unregister_scheme("dup-test")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_scheme("never-registered")

    def test_shadowed_scheme_changes_cache_key(self):
        from repro.experiments.registry import BUILTIN_FACTORIES

        spec = quick_spec()
        key_before = run_key(spec)
        register_scheme("SR", _module_level_sr_factory, replace=True)
        try:
            assert run_key(spec) != key_before
        finally:
            register_scheme("SR", BUILTIN_FACTORIES["SR"], replace=True)
        assert run_key(spec) == key_before

    def test_distinct_lambdas_get_distinct_cache_keys(self):
        from repro.experiments.registry import BUILTIN_FACTORIES

        spec = quick_spec()
        keys = []
        try:
            for factory in (lambda s: ("variant", "A"), lambda s: ("variant", "B")):
                register_scheme("SR", factory, replace=True)
                keys.append(run_key(spec))
        finally:
            register_scheme("SR", BUILTIN_FACTORIES["SR"], replace=True)
        assert len(set(keys)) == 2

    def test_dynamically_registered_scheme_runs_in_parallel(self):
        register_scheme("SR-par-test", _module_level_sr_factory)
        try:
            specs = [
                RunSpec(
                    scenario=QUICK_CONFIG.with_spare_surplus(surplus),
                    scheme="SR-par-test",
                    seed=7,
                )
                for surplus in (5, 15)
            ]
            records = ParallelExecutor(2).run_all(specs)
        finally:
            unregister_scheme("SR-par-test")
        assert [r.spec for r in records] == specs
        assert all(r.metrics.scheme == "SR" for r in records)

    def test_registered_scheme_is_sweepable(self):
        from repro.core.hamilton import build_hamilton_cycle
        from repro.core.replacement import HamiltonReplacementController

        register_scheme(
            "SR-test-alias",
            lambda state: HamiltonReplacementController(build_hamilton_cycle(state.grid)),
        )
        try:
            result = run_comparison(QUICK_CONFIG, [15], schemes=("SR-test-alias",))
        finally:
            unregister_scheme("SR-test-alias")
        assert result.rows[0]["SR-test-alias_success_rate"] == pytest.approx(1.0)


class TestRunSpec:
    def test_spec_is_frozen_and_hashable(self):
        spec = quick_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99
        assert spec == quick_spec()
        assert hash(spec) == hash(quick_spec())
        assert spec != quick_spec(seed=8)

    def test_spec_pickles(self):
        spec = quick_spec(max_rounds=50)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_execute_run_is_deterministic(self):
        first = execute_run(quick_spec())
        second = execute_run(quick_spec())
        assert first == second
        assert first.metrics.scheme == "SR"
        assert first.converged == first.metrics.coverage_restored

    def test_record_pickles(self):
        record = execute_run(quick_spec())
        assert pickle.loads(pickle.dumps(record)) == record


class TestExecutors:
    def test_make_executor_selects_strategy(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_parallel_matches_serial(self):
        specs = build_comparison_specs(
            QUICK_CONFIG, [5, 15], schemes=("SR", "AR"), trials=2
        )
        serial = SerialExecutor()
        parallel = ParallelExecutor(2)
        serial_records = serial.run_all(specs)
        parallel_records = parallel.run_all(specs)
        assert serial.runs_executed == parallel.runs_executed == len(specs)
        assert [r.spec for r in serial_records] == specs
        assert serial_records == parallel_records

    def test_run_comparison_parallel_parity(self):
        serial = run_comparison(QUICK_CONFIG, [5, 15], trials=2)
        parallel = run_comparison(
            QUICK_CONFIG, [5, 15], trials=2, executor=ParallelExecutor(4)
        )
        assert serial.columns == parallel.columns
        assert serial.rows == parallel.rows

    def test_empty_batch(self):
        assert ParallelExecutor(2).run_all([]) == []
        assert execute_many([]) == []


class TestPersistence:
    def test_spec_dict_round_trip(self):
        spec = quick_spec(max_rounds=77)
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_record_dict_round_trip(self):
        record = execute_run(quick_spec())
        assert record_from_dict(json.loads(json.dumps(record_to_dict(record)))) == record

    def test_run_key_covers_every_spec_field(self):
        base = quick_spec()
        variants = [
            quick_spec(seed=8),
            quick_spec(scheme="AR"),
            quick_spec(max_rounds=10),
            quick_spec(idle_round_limit=5),
            quick_spec(spare_surplus=20),
            dataclasses.replace(base, scenario=base.scenario.with_seed(123)),
        ]
        keys = {run_key(base)} | {run_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_cache_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = quick_spec()
        assert cache.get(spec) is None
        record = execute_run(spec)
        path = cache.put(record)
        assert path.exists()
        assert spec in cache
        assert cache.get(spec) == record
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        record = execute_run(quick_spec())
        path = cache.put(record)
        path.write_text("{not json")
        assert cache.get(quick_spec()) is None

    @pytest.mark.parametrize("content", ["[1, 2]", '"text"', "1", "null"])
    def test_non_object_json_entry_is_a_miss(self, tmp_path, content):
        cache = RunCache(tmp_path)
        record = execute_run(quick_spec())
        path = cache.put(record)
        path.write_text(content)
        assert cache.get(quick_spec()) is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(execute_run(quick_spec()))
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        record = execute_run(quick_spec())
        path = cache.put(record)
        payload = json.loads(path.read_text())
        payload["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(quick_spec()) is None


#: A ``POST /run`` body whose real-valued fields all hold floats, and its run
#: key as stores written before whole numbers were stored as floats have it.
FLOAT_TYPED_BODY = {
    "scenario": {
        "columns": 4,
        "rows": 4,
        "deployed_count": 48,
        "spare_surplus": 4,
        "seed": 3,
        "communication_range": 10.0,
        "initial_energy": 40.0,
        "initial_energy_jitter": 0.0,
    },
    "scheme": "SR",
    "max_rounds": 30,
    "energy": {"idle_cost_per_round": 1.0, "move_cost_per_meter": 1.0},
    "run_to_exhaustion": True,
    "failures": [
        {"round": 2, "kind": "random", "params": {"probability": 0.0}},
        {"round": 3, "kind": "region_jamming", "params": {"center": [2.0, 2.0], "radius": 3.0}},
        {"round": 4, "kind": "battery_depletion", "params": {"threshold": 0.0}},
    ],
    "channel": {"kind": "lossy", "drop_probability": 0.0},
}
FLOAT_TYPED_KEY = "6184e863d5a3c076e520299b318e57a8fcafbcb285faf74880dfbda084c0d72b"

#: ``(path into FLOAT_TYPED_BODY, the same value as a whole number)``.
WHOLE_NUMBER_FIELDS = [
    (("scenario", "communication_range"), 10),
    (("scenario", "initial_energy"), 40),
    (("scenario", "initial_energy_jitter"), 0),
    (("energy", "idle_cost_per_round"), 1),
    (("energy", "move_cost_per_meter"), 1),
    (("failures", 0, "params", "probability"), 0),
    (("failures", 1, "params", "center"), [2, 2]),
    (("failures", 1, "params", "radius"), 3),
    (("failures", 2, "params", "threshold"), 0),
    (("channel", "drop_probability"), 0),
]


def _whole_number_body(path, value):
    """FLOAT_TYPED_BODY with the field at ``path`` set to ``value``."""
    body = json.loads(json.dumps(FLOAT_TYPED_BODY))
    target = body
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return body


class TestEqualSpecsShareOneKey:
    """Specs that compare equal get one run key, so one record and one run."""

    def test_a_float_typed_spec_keeps_its_key(self):
        from repro.serve import spec_from_request

        assert run_key(spec_from_request(FLOAT_TYPED_BODY)) == FLOAT_TYPED_KEY

    @pytest.mark.parametrize(
        "path, value", WHOLE_NUMBER_FIELDS, ids=[".".join(map(str, p)) for p, _ in WHOLE_NUMBER_FIELDS]
    )
    def test_a_whole_number_gets_the_float_key(self, path, value):
        from repro.serve import spec_from_request

        spec = spec_from_request(_whole_number_body(path, value))
        assert spec == spec_from_request(FLOAT_TYPED_BODY)
        assert run_key(spec) == FLOAT_TYPED_KEY
        assert spec_to_dict(spec) == spec_to_dict(spec_from_request(FLOAT_TYPED_BODY))

    def test_execute_many_simulates_equal_specs_once(self, tmp_path):
        from repro.serve import spec_from_request

        specs = [spec_from_request(FLOAT_TYPED_BODY)] + [
            spec_from_request(_whole_number_body(path, value))
            for path, value in WHOLE_NUMBER_FIELDS
        ]
        executor = SerialExecutor()
        cache = RunCache(tmp_path)
        records = execute_many(specs, executor=executor, cache=cache)
        assert executor.runs_executed == 1
        assert len(cache) == 1
        assert all(record == records[0] for record in records)

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_run_to_exhaustion_takes_only_a_bool(self, value):
        with pytest.raises(ValueError, match="run_to_exhaustion"):
            quick_spec(run_to_exhaustion=value)


class TestCachedSweeps:
    def test_second_pass_executes_nothing(self, tmp_path):
        cache = RunCache(tmp_path)
        first_executor = SerialExecutor()
        first = run_comparison(
            QUICK_CONFIG, [5, 15], trials=2, executor=first_executor, cache=cache
        )
        assert first_executor.runs_executed == 8  # 2 N-values x 2 trials x 2 schemes

        second_executor = SerialExecutor()
        second = run_comparison(
            QUICK_CONFIG, [5, 15], trials=2, executor=second_executor, cache=cache
        )
        assert second_executor.runs_executed == 0
        assert second.rows == first.rows

    def test_cache_is_shared_across_overlapping_sweeps(self, tmp_path):
        cache = RunCache(tmp_path)
        run_comparison(QUICK_CONFIG, [5], executor=SerialExecutor(), cache=cache)
        # The [5, 15] sweep shares the N=5 cells with the sweep above.
        executor = SerialExecutor()
        run_comparison(QUICK_CONFIG, [5, 15], executor=executor, cache=cache)
        assert executor.runs_executed == 2  # only the N=15 SR and AR cells

    def test_changed_config_invalidates(self, tmp_path):
        cache = RunCache(tmp_path)
        run_comparison(QUICK_CONFIG, [5], executor=SerialExecutor(), cache=cache)
        executor = SerialExecutor()
        run_comparison(
            QUICK_CONFIG.with_seed(99), [5], executor=executor, cache=cache
        )
        assert executor.runs_executed == 2  # nothing reusable under the new seed

    def test_execute_many_marks_cache_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        specs = [quick_spec(scheme="SR"), quick_spec(scheme="AR")]
        cache.put(execute_run(specs[0]))
        executor = SerialExecutor()
        records = execute_many(specs, executor=executor, cache=cache)
        assert [r.spec for r in records] == specs
        assert records[0].cached and not records[1].cached
        assert executor.runs_executed == 1
        assert cache.hits == 1 and cache.misses == 1


@pytest.fixture
def fresh_default_state_cache():
    """An empty process-wide state cache for the test, restored afterwards."""
    from repro.experiments.state_cache import StateCache, set_default_state_cache

    cache = StateCache()
    previous = set_default_state_cache(cache)
    yield cache
    set_default_state_cache(previous)


def _crash_on_marker_factory(state):
    """SR factory that kills its worker process on the 5x5 marker scenario."""
    if state.grid.columns == 5:
        os._exit(3)
    return _module_level_sr_factory(state)


class TestStateCacheOrchestration:
    """One execution loop: the serial loop, per process, over the default cache."""

    def test_group_by_scenario_groups_consecutive_runs(self):
        from repro.experiments.orchestration import _group_by_scenario

        a = QUICK_CONFIG.with_spare_surplus(5)
        b = QUICK_CONFIG.with_spare_surplus(15)
        specs = [
            RunSpec(scenario=a, scheme="SR", seed=1),
            RunSpec(scenario=a, scheme="AR", seed=1),
            RunSpec(scenario=b, scheme="SR", seed=1),
            RunSpec(scenario=a, scheme="SR", seed=2),  # a again: new group
        ]
        groups = _group_by_scenario(specs)
        assert [len(group) for group in groups] == [2, 1, 1]
        assert [spec for group in groups for spec in group] == specs
        assert _group_by_scenario([]) == []

    def test_worker_initializer_installs_a_fresh_default_cache(
        self, fresh_default_state_cache
    ):
        """A worker starts from an empty cache of its own, overrides replayed."""
        from repro.experiments.orchestration import _init_worker
        from repro.experiments.state_cache import default_state_cache

        fresh_default_state_cache.state_for(QUICK_CONFIG)
        try:
            _init_worker({"SR-init-test": _module_level_sr_factory})
            worker_cache = default_state_cache()
            assert worker_cache is not fresh_default_state_cache
            assert len(worker_cache) == 0
            assert get_scheme("SR-init-test") is _module_level_sr_factory
        finally:
            unregister_scheme("SR-init-test")
        assert len(fresh_default_state_cache) == 1

    def test_build_initial_state_consults_the_cache(self):
        from repro.experiments.orchestration import build_initial_state
        from repro.experiments.state_cache import StateCache

        cache = StateCache()
        spec = quick_spec()
        build_initial_state(spec, state_cache=cache)
        build_initial_state(spec, state_cache=cache)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)

    def test_serial_executor_builds_each_scenario_once(
        self, monkeypatch, fresh_default_state_cache
    ):
        from repro.experiments import state_cache as state_cache_module

        builds = []
        real_build = state_cache_module.build_scenario_state

        def counting_build(config):
            builds.append(config.spare_surplus)
            return real_build(config)

        monkeypatch.setattr(
            state_cache_module, "build_scenario_state", counting_build
        )
        specs = [
            quick_spec(scheme=scheme, seed=seed, spare_surplus=surplus)
            for surplus in (5, 15)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        records = SerialExecutor().run_all(specs)
        assert len(records) == len(specs)
        # 8 specs over 2 distinct scenarios: the seed lives in the spec, not
        # the config, so a scenario is one surplus here.
        assert sorted(builds) == [5, 15]
        assert fresh_default_state_cache.stats().hits == len(specs) - 2

    def test_serial_executor_matches_cache_off_records(self, fresh_default_state_cache):
        specs = [
            quick_spec(scheme=scheme, seed=seed)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        plain = [execute_run(spec, state_cache=None) for spec in specs]
        cached = SerialExecutor().run_all(specs)
        assert fresh_default_state_cache.stats().hits == len(specs) - 1
        assert [record_to_dict(a) for a in plain] == [
            record_to_dict(b) for b in cached
        ]

    def test_parallel_pool_persists_across_run_all_calls(self):
        specs = [
            quick_spec(scheme=scheme, seed=seed)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        with ParallelExecutor(2) as executor:
            first = executor.run_all(specs)
            pool = executor._pool
            assert pool is not None
            second = executor.run_all(specs)
            assert executor._pool is pool  # same workers, not a fresh pool
        assert executor._pool is None  # context exit reaped it
        assert [record_to_dict(a) for a in first] == [
            record_to_dict(b) for b in second
        ]

    def test_parallel_pool_rebuilds_when_registry_changes(self):
        from repro.experiments.registry import register_scheme, unregister_scheme

        specs = [quick_spec(scheme=scheme, seed=1) for scheme in ("SR", "AR")]
        with ParallelExecutor(2) as executor:
            executor.run_all(specs)
            pool = executor._pool
            register_scheme("SR-pool-test", _module_level_sr_factory)
            try:
                executor.run_all(specs + [quick_spec(scheme="SR-pool-test", seed=1)])
                assert executor._pool is not pool  # overrides changed -> new pool
            finally:
                unregister_scheme("SR-pool-test")

    def test_parallel_batch_after_parent_built_matches_cache_off_serial(
        self, fresh_default_state_cache
    ):
        """A parent that already built the scenarios changes no parallel record."""
        specs = [
            quick_spec(scheme=scheme, seed=seed, spare_surplus=surplus)
            for surplus in (5, 15)
            for seed in (1, 2)
            for scheme in ("SR", "AR")
        ]
        baseline = [execute_run(spec, state_cache=None) for spec in specs]
        SerialExecutor().run_all(specs)  # the parent now holds both scenarios
        assert len(fresh_default_state_cache) == 2
        with ParallelExecutor(2) as executor:
            parallel = executor.run_all(specs)
        assert [record_to_dict(a) for a in baseline] == [
            record_to_dict(b) for b in parallel
        ]

    def test_parallel_sweep_builds_each_scenario_once(self, monkeypatch, tmp_path):
        """A cold paper-tier sweep: one worker build per scenario group."""
        from repro.experiments import orchestration
        from repro.experiments import state_cache as state_cache_module
        from repro.experiments.figures import PAPER_SPARE_VALUES

        specs = build_comparison_specs(
            ScenarioConfig(seed=4), PAPER_SPARE_VALUES, schemes=("SR", "AR"), trials=2
        )
        scenarios = {spec.scenario for spec in specs}
        assert (len(specs), len(scenarios)) == (40, 20)
        baseline = [execute_run(spec, state_cache=None) for spec in specs]

        # Workers fork from this process, so they inherit the wrapper; each
        # build appends one line, whichever process made it.
        log = tmp_path / "builds.log"
        real_build = state_cache_module.build_scenario_state

        def logging_build(config):
            with open(log, "a") as handle:
                handle.write(f"{config.spare_surplus} {config.seed}\n")
            return real_build(config)

        for module in (orchestration, state_cache_module):
            monkeypatch.setattr(module, "build_scenario_state", logging_build)
        with ParallelExecutor(2) as executor:
            parallel = executor.run_all(specs)
        builds = log.read_text().splitlines()
        assert len(builds) == len(scenarios)
        assert len(set(builds)) == len(scenarios)
        assert [record_to_dict(a) for a in baseline] == [
            record_to_dict(b) for b in parallel
        ]

    def test_dead_worker_fails_its_batch_and_the_next_batch_gets_fresh_workers(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments.registry import register_scheme, unregister_scheme

        # Registered once, so the registry overrides never change below: only
        # the dead worker can make the executor replace its pool.
        register_scheme("SR-crash-test", _crash_on_marker_factory)
        try:
            healthy = [
                quick_spec(scheme="SR-crash-test", seed=seed, spare_surplus=surplus)
                for surplus in (5, 15)
                for seed in (1, 2)
            ]
            marker = RunSpec(
                scenario=ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7),
                scheme="SR-crash-test",
                seed=1,
            )
            serial = [record_to_dict(r) for r in SerialExecutor().run_all(healthy)]
            with ParallelExecutor(2) as executor:
                executor.run_all(healthy)
                with pytest.raises(BrokenProcessPool):
                    executor.run_all(healthy + [marker])
                for _ in range(2):
                    records = executor.run_all(healthy)
                    assert [record_to_dict(r) for r in records] == serial
        finally:
            unregister_scheme("SR-crash-test")
