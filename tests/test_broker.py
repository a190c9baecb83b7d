"""Tests for the experiment broker (satellite: broker semantics).

The contracts exercised here:

* two concurrent submissions of an identical spec share **one** simulation
  (in-flight dedup) and both receive the same record;
* interactive submissions overtake queued batch work;
* a bounded queue rejects overload with :class:`BrokerQueueFull` instead of
  buffering unboundedly, and admits a batch whole or not at all: a refused
  batch queues nothing and runs nothing, and only its new specs (not cached,
  not in flight) count against the bound;
* records produced through the broker are byte-identical to a plain
  :class:`SerialExecutor` run of the same specs;
* ``state_cache_stats`` reports the process's default state cache;
* ``execute_many`` collapses duplicate specs within one batch onto a single
  execution while preserving spec order in the returned records, and takes
  the broker as its executor;
* a run is tracked by its spec: equal spec objects share one handle and one
  execution, and neither admission nor ``execute_many`` computes a
  ``run_key`` — only the record store does, to address its documents.
"""

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro.experiments import persistence
from repro.experiments.broker import (
    BrokerQueueFull,
    ExperimentBroker,
    Priority,
    execute_many,
)
from repro.experiments.figures import QUICK_SPARE_VALUES, SECTION5_CONFIG
from repro.experiments.orchestration import RunSpec, SerialExecutor, execute_run
from repro.experiments.persistence import RunCache, make_cache, record_to_dict, run_key
from repro.experiments.state_cache import StateCache, set_default_state_cache
from repro.experiments.sweep import build_comparison_specs
from repro.sim.scenario import ScenarioConfig

QUICK_CONFIG = ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7)


def quick_spec(scheme: str = "SR", seed: int = 7, spare_surplus: int = 10) -> RunSpec:
    return RunSpec(
        scenario=QUICK_CONFIG.with_spare_surplus(spare_surplus),
        scheme=scheme,
        seed=seed,
        max_rounds=40,
    )


def wait_until_draining(broker, timeout: float = 5.0) -> None:
    """Block until the worker has dequeued everything pending (it may be gated)."""
    deadline = time.monotonic() + timeout
    while broker.stats().pending and time.monotonic() < deadline:
        time.sleep(0.005)
    assert broker.stats().pending == 0, "worker never picked up the queued spec"


def wait_until_submitted(broker, count: int, timeout: float = 5.0) -> None:
    """Block until the broker has admitted ``count`` specs in total."""
    deadline = time.monotonic() + timeout
    while broker.stats().submitted < count and time.monotonic() < deadline:
        time.sleep(0.005)
    assert broker.stats().submitted == count, "the batch was never admitted"


class GatedRunner:
    """A run_fn that blocks until released, counting real executions."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec):
        self.gate.wait(timeout=30)
        with self._lock:
            self.calls.append(spec)
        return execute_run(spec)


# ------------------------------------------------------------ in-flight dedup
def test_identical_concurrent_submissions_share_one_simulation():
    """Acceptance: two submissions of the same spec -> exactly one run."""
    runner = GatedRunner()
    with ExperimentBroker(workers=2, run_fn=runner) as broker:
        spec = quick_spec()
        first = broker.submit(spec)
        second = broker.submit(spec)
        assert second is first
        assert second.deduplicated
        runner.gate.set()
        record_a = first.result(timeout=30)
        record_b = second.result(timeout=30)
    assert record_a is record_b
    assert len(runner.calls) == 1
    stats = broker.stats()
    assert stats.submitted == 2
    assert stats.dedup_hits == 1
    assert stats.executed == 1


def test_resolved_specs_are_not_deduplicated_without_a_cache():
    """Dedup only spans in-flight work; a finished spec runs again (no cache)."""
    runner = GatedRunner()
    runner.gate.set()
    with ExperimentBroker(workers=1, run_fn=runner) as broker:
        spec = quick_spec()
        broker.submit(spec).result(timeout=30)
        handle = broker.submit(spec)
        assert not handle.deduplicated
        handle.result(timeout=30)
    assert len(runner.calls) == 2


def test_cache_answers_before_the_queue(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(execute_run(quick_spec()))
    runner = GatedRunner()  # never released: a queued run would hang
    with ExperimentBroker(cache=cache, workers=1, run_fn=runner) as broker:
        handle = broker.submit(quick_spec())
        assert handle.done() and handle.cached
        record = handle.result(timeout=5)
    assert record.cached
    assert not runner.calls
    assert broker.stats().cache_hits == 1


# ------------------------------------------------------------------ priority
def test_interactive_overtakes_queued_batch_work():
    runner = GatedRunner()
    with ExperimentBroker(workers=1, run_fn=runner) as broker:
        blocker = broker.submit(quick_spec(seed=1))
        wait_until_draining(broker)  # the one worker now holds seed 1 at the gate
        batch = [broker.submit(quick_spec(seed=s), Priority.BATCH) for s in (2, 3)]
        urgent = broker.submit(quick_spec(seed=4), Priority.INTERACTIVE)
        runner.gate.set()
        for handle in [blocker, urgent, *batch]:
            handle.result(timeout=30)
    executed_seeds = [spec.seed for spec in runner.calls]
    assert executed_seeds[0] == 1
    assert executed_seeds[1] == 4, "interactive spec should run before batch backfill"


# ---------------------------------------------------------------- queue bound
def test_bounded_queue_rejects_overload():
    runner = GatedRunner()
    broker = ExperimentBroker(workers=1, queue_limit=2, run_fn=runner)
    try:
        broker.submit(quick_spec(seed=1))
        wait_until_draining(broker)  # the worker holds seed 1 at the gate
        for seed in (2, 3):  # fill the queue exactly to its bound
            broker.submit(quick_spec(seed=seed))
        with pytest.raises(BrokerQueueFull):
            broker.submit(quick_spec(seed=4))
        assert broker.stats().rejected == 1
    finally:
        runner.gate.set()
        broker.close()


def test_a_batch_over_the_bound_queues_and_runs_nothing():
    """A refused batch moves no counter but ``rejected`` and leaves nothing to run."""
    runner = GatedRunner()
    broker = ExperimentBroker(workers=1, queue_limit=4, run_fn=runner)
    try:
        before = broker.stats()
        with pytest.raises(BrokerQueueFull):
            broker.run_all([quick_spec(seed=seed) for seed in range(1, 7)])
        assert broker.stats() == dataclasses.replace(before, rejected=before.rejected + 1)
    finally:
        runner.gate.set()
        broker.close()
    assert runner.calls == []
    assert broker.stats().executed == 0


def test_cached_and_in_flight_specs_do_not_count_against_the_bound(tmp_path):
    """New specs that exactly fit are admitted whole beside cached and in-flight ones."""
    cache = RunCache(tmp_path)
    cached = quick_spec(seed=9)
    cache.put(execute_run(cached))
    runner = GatedRunner()
    broker = ExperimentBroker(cache=cache, workers=1, queue_limit=4, run_fn=runner)
    try:
        running = broker.submit(quick_spec(seed=1))
        wait_until_draining(broker)  # the worker holds seed 1 at the gate
        queued = broker.submit(quick_spec(seed=2))
        new = [quick_spec(seed=seed) for seed in (3, 4, 5)]
        batch = [cached, running.spec, queued.spec, *new]
        records = []
        thread = threading.Thread(target=lambda: records.extend(broker.run_all(batch)))
        thread.start()
        wait_until_submitted(broker, 2 + len(batch))
        stats = broker.stats()
        assert (stats.pending, stats.in_flight) == (4, 5)
        assert (stats.cache_hits, stats.dedup_hits, stats.rejected) == (1, 2, 0)
        assert running.deduplicated and queued.deduplicated
        runner.gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        runner.gate.set()
        broker.close()
    assert [record.spec for record in records] == batch
    assert [record.cached for record in records] == [True] + [False] * 5
    assert sorted(spec.seed for spec in runner.calls) == [1, 2, 3, 4, 5]
    assert broker.runs_executed == broker.stats().executed == 5


def test_concurrent_batches_keep_the_counters_consistent():
    """Overlapping batches from many threads: no lost update, no spec over the bound."""
    limit, clients, rounds, size = 8, 8, 50, 6
    calls, pending_seen, misrouted = [], [], []
    lock = threading.Lock()
    refusals = [0] * clients

    def run_fn(spec):
        with lock:
            calls.append(spec)
            pending_seen.append(broker.stats().pending)
        return spec.seed

    def client(index):
        for round_index in range(rounds):
            specs = [quick_spec(seed=(index + round_index + k) % 12) for k in range(size)]
            try:
                if broker.run_all(specs) != [spec.seed for spec in specs]:
                    misrouted.append(specs)
            except BrokerQueueFull:
                refusals[index] += 1

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ExperimentBroker(workers=4, queue_limit=limit, run_fn=run_fn) as broker:
            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert misrouted == []
    stats = broker.stats()
    assert (stats.pending, stats.in_flight, stats.failed) == (0, 0, 0)
    assert stats.rejected == sum(refusals)
    assert stats.submitted == (clients * rounds - sum(refusals)) * size
    assert stats.submitted == stats.dedup_hits + stats.executed
    assert stats.executed == len(calls) == broker.runs_executed
    assert max(pending_seen) <= limit


def test_shutdown_refuses_new_work_but_drains_the_queue():
    runner = GatedRunner()
    broker = ExperimentBroker(workers=1, run_fn=runner)
    handle = broker.submit(quick_spec())
    runner.gate.set()
    broker.close()
    assert handle.result(timeout=5) is not None
    with pytest.raises(RuntimeError, match="shut down"):
        broker.submit(quick_spec(seed=99))


def test_failed_run_propagates_to_every_waiter():
    def explode(spec):
        raise ValueError("boom")

    with ExperimentBroker(workers=1, run_fn=explode) as broker:
        handle = broker.submit(quick_spec())
        with pytest.raises(ValueError, match="boom"):
            handle.result(timeout=10)
    assert broker.stats().failed == 1


# -------------------------------------------------------------- byte identity
def canonical(records):
    return json.dumps([record_to_dict(r) for r in records], sort_keys=True)


def test_broker_records_match_serial_executor(tmp_path):
    """Acceptance: broker output is byte-identical to SerialExecutor output."""
    specs = [quick_spec(scheme=s, seed=seed) for s in ("SR", "AR") for seed in (1, 2)]
    serial = execute_many(specs, executor=SerialExecutor())
    with ExperimentBroker(cache=RunCache(tmp_path), workers=3) as broker:
        brokered = broker.run_all(specs)
    assert canonical(serial) == canonical(brokered)


# ---------------------------------------------------------- state-cache stats
def test_state_cache_stats_read_the_process_default_cache():
    """Worker threads build through the default cache; its counters show here."""
    cache = StateCache()
    previous = set_default_state_cache(cache)
    try:
        with ExperimentBroker(workers=1) as broker:
            broker.run_all([quick_spec("SR"), quick_spec("AR")])
            stats = broker.state_cache_stats()
            assert (stats.misses, stats.hits, stats.entries) == (1, 1, 1)
            assert "mode" not in stats.as_dict()
            set_default_state_cache(None)
            assert broker.state_cache_stats() is None
    finally:
        set_default_state_cache(previous)


# -------------------------------------------------------------- in-batch dedup
def test_execute_many_collapses_duplicate_specs(tmp_path):
    """Satellite: duplicates within one batch are simulated exactly once."""
    base = quick_spec()
    other = quick_spec(scheme="AR")
    specs = [base, other, base, base]
    executor = SerialExecutor()
    records = execute_many(specs, executor=executor, cache=RunCache(tmp_path))
    assert executor.runs_executed == 2
    assert len(records) == 4
    assert canonical([records[0]]) == canonical([records[2]]) == canonical([records[3]])
    assert records[1].spec.scheme == "AR"
    # The records must still line up with their specs, in order.
    for spec, record in zip(specs, records):
        assert run_key(record.spec) == run_key(spec)


def test_execute_many_dedup_works_without_a_cache():
    base = quick_spec()
    executor = SerialExecutor()
    records = execute_many([base, base], executor=executor)
    assert executor.runs_executed == 1
    assert canonical([records[0]]) == canonical([records[1]])


def test_execute_many_mixes_cache_hits_and_misses(tmp_path):
    cache = RunCache(tmp_path)
    cached_spec = quick_spec()
    cache.put(execute_run(cached_spec))
    executor = SerialExecutor()
    records = execute_many(
        [cached_spec, quick_spec(scheme="AR")], executor=executor, cache=cache
    )
    assert records[0].cached and not records[1].cached
    assert executor.runs_executed == 1


def test_execute_many_runs_through_a_broker(tmp_path):
    specs = [quick_spec(seed=s) for s in (1, 2)]
    with ExperimentBroker(cache=RunCache(tmp_path), workers=2) as broker:
        records = execute_many(specs, executor=broker)
        again = execute_many(specs, executor=broker)
    assert canonical(records) == canonical(execute_many(specs, executor=SerialExecutor()))
    assert all(record.cached for record in again)


def test_execute_many_collapses_equal_spec_objects():
    first, second = quick_spec(), quick_spec()
    assert first is not second and first == second
    executor = SerialExecutor()
    records = execute_many([first, second], executor=executor)
    assert executor.runs_executed == 1
    assert records[0] is records[1]


# -------------------------------------------------------------- run identity
def test_equal_specs_submitted_concurrently_share_one_handle_and_one_run():
    """In-flight dedup is by spec equality, not by object identity."""
    runner = GatedRunner()
    specs = [quick_spec(), quick_spec()]
    assert specs[0] is not specs[1] and specs[0] == specs[1]
    handles = [None, None]
    barrier = threading.Barrier(len(specs))

    def submit(index):
        barrier.wait(timeout=5)
        handles[index] = broker.submit(specs[index])

    with ExperimentBroker(workers=2, run_fn=runner) as broker:
        threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert handles[0] is handles[1]
        runner.gate.set()
        handles[0].result(timeout=30)
    assert len(runner.calls) == 1
    stats = broker.stats()
    assert (stats.submitted, stats.dedup_hits, stats.executed) == (2, 1, 1)


def count_run_keys(monkeypatch):
    """Patch ``run_key`` in every module that imported it; returns the call log."""
    real = persistence.run_key
    calls = []

    def counting(spec):
        calls.append(spec)
        return real(spec)

    for module in list(sys.modules.values()):
        if vars(module).get("run_key") is real:
            monkeypatch.setattr(module, "run_key", counting)
    return calls


def test_a_brokered_batch_computes_run_keys_only_in_the_store(tmp_path, monkeypatch):
    """Cold, a spec costs two keys (the store's lookup and write); warm, one.

    Admission and in-batch dedup hash the frozen spec instead: computing a
    key there too cost 40 calls cold and 32 warm on this batch.
    """
    specs = build_comparison_specs(SECTION5_CONFIG, QUICK_SPARE_VALUES)
    assert len(set(specs)) == len(specs) == 8
    calls = count_run_keys(monkeypatch)
    cache = make_cache(tmp_path, backend="sqlite")
    with ExperimentBroker(cache=cache, workers=2) as broker:
        cold = execute_many(specs, executor=broker)
        cold_calls = len(calls)
        warm = execute_many(specs, executor=broker)
    cache.backend.close()
    assert (cold_calls, len(calls) - cold_calls) == (16, 8)
    assert not any(record.cached for record in cold)
    assert all(record.cached for record in warm)
    assert warm == cold
