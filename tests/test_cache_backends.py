"""Tests for the pluggable cache backends (satellite: concurrent stress).

The contracts exercised here:

* both backends satisfy the :class:`CacheBackend` protocol (store/load/
  contains/count/clear/iter_keys);
* the two backends hold **byte-identical** documents for the same record,
  so switching backends never changes results;
* the :class:`RunCache` facade behaves identically over either backend
  (round-trip, hit/miss accounting, damage-as-miss), and flags every record
  it returns ``cached`` — a flag that is neither stored nor compared, so a
  cached record equals the fresh one;
* concurrent readers and writers — threads and forked worker processes —
  never observe a torn document: every read is a miss or a complete,
  valid record;
* the sqlite backend pools its connections: sequential operations share
  one, no two threads use one at once, a forked child opens its own, a
  failed operation's connection is closed, and a record stored by a
  writer killed without closing is still read;
* processes racing to create one database all store their record.
"""

import json
import multiprocessing
import os
import signal
import sqlite3
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

from repro.experiments.orchestration import RunSpec, execute_run
from repro.experiments.persistence import (
    CACHE_BACKENDS,
    SQLITE_DEFAULT_FILENAME,
    SQLITE_SCHEMA_VERSION,
    CacheStats,
    JsonDirBackend,
    RunCache,
    SqliteBackend,
    make_cache,
    record_to_dict,
    run_key,
)
from repro.sim.scenario import ScenarioConfig

QUICK_CONFIG = ScenarioConfig(columns=5, rows=5, deployed_count=150, seed=7)


def quick_spec(scheme: str = "SR", seed: int = 7, spare_surplus: int = 10) -> RunSpec:
    return RunSpec(
        scenario=QUICK_CONFIG.with_spare_surplus(spare_surplus),
        scheme=scheme,
        seed=seed,
        max_rounds=40,
    )


def make_backend(kind: str, tmp_path):
    if kind == "json":
        return JsonDirBackend(tmp_path / "json-store")
    return SqliteBackend(tmp_path / "sqlite-store")


# ------------------------------------------------------------------ protocol
@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_backend_protocol_round_trip(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    assert backend.kind == kind
    assert backend.count() == 0
    assert backend.load("missing") is None
    assert not backend.contains("missing")

    backend.store("k1", '{"v": 1}')
    backend.store("k2", '{"v": 2}')
    assert backend.count() == 2
    assert backend.contains("k1")
    assert backend.load("k1") == '{"v": 1}'
    assert sorted(backend.iter_keys()) == ["k1", "k2"]

    backend.store("k1", '{"v": 10}')  # overwrite, not duplicate
    assert backend.count() == 2
    assert backend.load("k1") == '{"v": 10}'

    backend.clear()
    assert backend.count() == 0
    assert backend.load("k1") is None


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_make_cache_selects_backend(kind, tmp_path):
    cache = make_cache(tmp_path, backend=kind)
    assert cache.backend.kind == kind


def test_make_cache_rejects_unknown_backend(tmp_path):
    with pytest.raises(ValueError, match="unknown cache backend"):
        make_cache(tmp_path, backend="parquet")


def test_backends_hold_byte_identical_documents(tmp_path):
    """Acceptance: the same record serializes byte-identically in both stores."""
    record = execute_run(quick_spec())
    key = run_key(record.spec)
    caches = {
        kind: make_cache(tmp_path / kind, backend=kind) for kind in CACHE_BACKENDS
    }
    for cache in caches.values():
        cache.put(record)
    documents = {kind: cache.backend.load(key) for kind, cache in caches.items()}
    assert documents["json"] == documents["sqlite"]
    assert json.loads(documents["json"])["format_version"] >= 4


# ------------------------------------------------------------------- facade
@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_facade_round_trip_and_stats(kind, tmp_path):
    cache = make_cache(tmp_path, backend=kind)
    spec = quick_spec()
    assert cache.get(spec) is None  # miss
    record = execute_run(spec)
    cache.put(record)
    hit = cache.get(spec)
    assert hit is not None
    assert record_to_dict(hit) == record_to_dict(record)
    assert cache.hits == 1 and cache.misses == 1
    snapshot = cache.stats.snapshot()
    assert snapshot.hit_rate == 0.5
    assert run_key(spec) in list(cache.iter_keys())
    assert spec in cache and len(cache) == 1


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_the_cache_flags_what_it_returns_cached(kind, tmp_path):
    cache = make_cache(tmp_path, backend=kind)
    spec = quick_spec(seed=4)
    fresh = execute_run(spec)
    assert not fresh.cached
    cache.put(fresh)
    hit = cache.get(spec)
    [bulk] = cache.get_many([spec])
    assert hit.cached and bulk.cached
    assert hit == fresh and bulk == fresh
    assert record_to_dict(hit) == record_to_dict(fresh)


def test_sqlite_corrupt_document_is_a_miss(tmp_path):
    cache = make_cache(tmp_path, backend="sqlite")
    spec = quick_spec()
    cache.put(execute_run(spec))
    cache.backend.store(run_key(spec), "{ not json")
    assert cache.get(spec) is None


def test_sqlite_rejects_foreign_schema_version(tmp_path):
    backend = SqliteBackend(tmp_path)
    backend.store("k", "{}")
    db_path = tmp_path / SQLITE_DEFAULT_FILENAME
    with sqlite3.connect(db_path) as conn:
        conn.execute(f"PRAGMA user_version = {SQLITE_SCHEMA_VERSION + 1}")
    with pytest.raises(ValueError, match="schema version"):
        SqliteBackend(tmp_path).store("k2", "{}")


def test_sqlite_default_filename_under_directory(tmp_path):
    backend = SqliteBackend(tmp_path)
    backend.store("k", "{}")
    assert (tmp_path / SQLITE_DEFAULT_FILENAME).exists()


def test_sqlite_store_is_created_in_wal_mode(tmp_path):
    backend = SqliteBackend(tmp_path)
    backend.store("k", "{}")
    with sqlite3.connect(backend.path) as conn:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"


def _lookups_from_threads(backend, count: int = 8) -> list:
    """``backend.load("k")`` from ``count`` threads at once; results or errors."""
    results = []
    barrier = threading.Barrier(count)

    def lookup():
        barrier.wait()
        try:
            results.append(backend.load("k"))
        except sqlite3.Error as error:
            results.append(error)

    threads = [threading.Thread(target=lookup) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_sqlite_lookup_while_the_first_store_creates_the_file_is_a_miss(tmp_path):
    """Lookups racing the store's creation must miss, not fail with 'database is locked'.

    The creator holds the write lock of the brand-new file, as the first
    ``store()`` does while it creates the schema.
    """
    backend = SqliteBackend(tmp_path / "store")
    backend.path.parent.mkdir(parents=True)
    creator = sqlite3.connect(backend.path, isolation_level=None)
    creator.execute("BEGIN IMMEDIATE")
    try:
        assert _lookups_from_threads(backend) == [None] * 8
    finally:
        creator.rollback()
        creator.close()
    backend.store("k", '{"v": 1}')
    assert backend.load("k") == '{"v": 1}'


def test_sqlite_concurrent_lookups_race_the_first_store(tmp_path):
    """Fresh stores, eight lookup threads against one first store(): no errors."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for trial in range(25):
            backend = SqliteBackend(tmp_path / f"store-{trial}")
            writer_errors = []

            def first_store():
                try:
                    backend.store("k", "{}")
                except sqlite3.Error as error:
                    writer_errors.append(error)

            writer = threading.Thread(target=first_store)
            writer.start()
            results = _lookups_from_threads(backend)
            writer.join(timeout=30)
            assert not writer.is_alive()
            assert not writer_errors
            assert all(result in (None, "{}") for result in results), results
            assert backend.load("k") == "{}"
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------- connection pool
@pytest.fixture
def counted_connects(monkeypatch):
    """The paths every ``sqlite3.connect`` call opens, in call order."""
    opened = []
    connect = sqlite3.connect

    def counting_connect(database, *args, **kwargs):
        opened.append(database)
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    return opened


def test_sqlite_sequential_operations_share_one_connection(tmp_path, counted_connects):
    backend = SqliteBackend(tmp_path)
    for index in range(100):
        backend.store(f"k{index}", f'{{"v": {index}}}')
        assert backend.load(f"k{index}") == f'{{"v": {index}}}'
    assert backend.count() == 100
    assert len(counted_connects) == 1
    backend.close()


def test_sqlite_close_keeps_the_backend_usable(tmp_path, counted_connects):
    backend = SqliteBackend(tmp_path)
    backend.store("k", "{}")
    backend.close()
    assert not Path(f"{backend.path}-wal").exists()  # the last close checkpoints
    assert backend.load("k") == "{}"
    assert len(counted_connects) == 2
    backend.close()


def test_sqlite_a_failed_operation_closes_its_connection(tmp_path, counted_connects):
    backend = SqliteBackend(tmp_path)
    backend.store("k", "{}")
    with pytest.raises(sqlite3.Error):
        with backend._session() as connection:
            connection.execute("SELECT * FROM no_such_table")
    assert backend.load("k") == "{}"
    assert len(counted_connects) == 2  # the failed connection was not reused
    backend.close()


def test_sqlite_an_open_transaction_is_rolled_back_on_checkin(tmp_path):
    backend = SqliteBackend(tmp_path)
    backend.store("k", '{"v": 1}')
    with backend._session(write=True) as connection:
        connection.execute(
            "UPDATE run_records SET document = '{\"v\": 2}' WHERE run_key = 'k'"
        )  # no commit
    assert backend.load("k") == '{"v": 1}'
    backend.store("other", "{}")  # the writer lock was released
    backend.close()


def test_sqlite_threads_never_share_a_connection(tmp_path, monkeypatch):
    """Every execute runs on a connection no other thread is executing on."""
    guard = threading.Lock()
    busy = {}
    overlaps = []

    class TrackedConnection(sqlite3.Connection):
        def execute(self, *args, **kwargs):
            with guard:
                if busy.get(id(self)) not in (None, threading.get_ident()):
                    overlaps.append(id(self))
                busy[id(self)] = threading.get_ident()
            try:
                time.sleep(0)  # widen the window for another thread to enter
                return super().execute(*args, **kwargs)
            finally:
                with guard:
                    busy.pop(id(self), None)

    connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3,
        "connect",
        lambda database, **kwargs: connect(database, factory=TrackedConnection, **kwargs),
    )
    backend = SqliteBackend(tmp_path)
    backend.store("seed", "{}")
    errors = []

    def hammer(worker: int) -> None:
        try:
            for index in range(40):
                key = f"w{worker}-{index}"
                backend.store(key, f'"{key}"')
                if backend.load(key) != f'"{key}"':
                    errors.append(f"{key} read back wrong")
        except sqlite3.Error as error:
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not overlaps
    assert backend.count() == 1 + 12 * 40
    backend.close()


def _store_load_and_close(backend: SqliteBackend, opened: list, results) -> None:
    """Child side: write and read through the inherited backend, then close it."""
    connects_before = len(opened)
    backend.store("child", '{"by": "child"}')
    results.put(backend.load("child"))
    results.put(backend.load("parent"))
    results.put(len(opened) - connects_before)
    backend.close()


def _integrity(path) -> str:
    with closing(sqlite3.connect(path)) as connection:
        return connection.execute("PRAGMA integrity_check").fetchone()[0]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_sqlite_forked_child_opens_its_own_connections(tmp_path, counted_connects):
    backend = SqliteBackend(tmp_path)
    backend.store("parent", '{"by": "parent"}')
    assert backend.load("parent") == '{"by": "parent"}'  # an idle connection now
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(
        target=_store_load_and_close, args=(backend, counted_connects, results)
    )
    pool_lock, _ = backend._pool()
    with pool_lock:  # held across the fork: the child must not wait on it
        child.start()
    try:
        assert results.get(timeout=30) == '{"by": "child"}'
        assert results.get(timeout=30) == '{"by": "parent"}'
        assert results.get(timeout=30) == 1  # a connection of its own
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0

    # The parent goes on with the connection it had before the fork.
    assert backend.load("child") == '{"by": "child"}'
    backend.store("after", '{"by": "parent"}')
    assert backend.count() == 3
    assert len(counted_connects) == 1
    assert _integrity(backend.path) == "ok"
    backend.close()
    fresh = SqliteBackend(tmp_path)
    assert sorted(fresh.iter_keys()) == ["after", "child", "parent"]
    assert _integrity(fresh.path) == "ok"
    fresh.close()


def _store_then_hang(path, stored) -> None:
    """Child side: store one record, say so, and wait to be killed."""
    backend = SqliteBackend(path)
    backend.store("k", '{"v": "durable"}')
    stored.set()
    time.sleep(120)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_sqlite_record_survives_a_killed_writer(tmp_path):
    context = multiprocessing.get_context("fork")
    stored = context.Event()
    child = context.Process(target=_store_then_hang, args=(tmp_path, stored))
    child.start()
    try:
        assert stored.wait(timeout=60)
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=60)
    assert child.exitcode == -signal.SIGKILL
    backend = SqliteBackend(tmp_path)
    assert backend.load("k") == '{"v": "durable"}'
    backend.close()


def _first_store(path, barrier, results, index: int) -> None:
    """Child side: wait for the others, then make one of the first stores."""
    backend = SqliteBackend(path)
    barrier.wait()
    try:
        backend.store(f"k{index}", "{}")
        results.put(None)
    except sqlite3.Error as error:
        results.put(repr(error))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_sqlite_processes_racing_the_first_store_all_succeed(tmp_path):
    """sqlite refuses all but one concurrent WAL switch at once; the others retry."""
    context = multiprocessing.get_context("fork")
    for trial in range(20):
        path = tmp_path / f"store-{trial}"
        barrier = context.Barrier(4)
        results = context.Queue()
        writers = [
            context.Process(target=_first_store, args=(path, barrier, results, index))
            for index in range(4)
        ]
        for writer in writers:
            writer.start()
        outcomes = [results.get(timeout=60) for _ in writers]
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.exitcode for writer in writers] == [0] * 4
        assert outcomes == [None] * 4, outcomes
        backend = SqliteBackend(path)
        assert backend.count() == 4
        backend.close()


# --------------------------------------------------------------- concurrency
def test_cache_stats_is_thread_safe():
    stats = CacheStats()

    def spin():
        for _ in range(2000):
            stats.record_hit()
            stats.record_miss()

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snapshot = stats.snapshot()
    assert snapshot.hits == snapshot.misses == 16000
    assert snapshot.lookups == 32000


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_concurrent_threads_never_see_torn_documents(kind, tmp_path):
    """Readers racing writers observe either a miss or a complete record."""
    cache = make_cache(tmp_path, backend=kind)
    specs = [quick_spec(scheme=s, seed=seed) for s in ("SR", "AR") for seed in (1, 2)]
    records = [execute_run(spec) for spec in specs]
    expected = {run_key(r.spec): record_to_dict(r) for r in records}
    errors = []
    stop = threading.Event()

    def writer():
        for _ in range(15):
            for record in records:
                cache.put(record)

    def reader():
        own = RunCache(cache.cache_dir, backend=cache.backend)
        while not stop.is_set():
            for spec in specs:
                hit = own.get(spec)
                if hit is not None and record_to_dict(hit) != expected[run_key(spec)]:
                    errors.append("torn or wrong record observed")
                    return

    readers = [threading.Thread(target=reader) for _ in range(4)]
    writers = [threading.Thread(target=writer) for _ in range(3)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert not errors
    for spec in specs:
        hit = cache.get(spec)
        assert hit is not None
        assert record_to_dict(hit) == expected[run_key(spec)]


def _process_worker(args):
    """Top-level (picklable) worker: hammer one shared store from a process."""
    cache_dir, kind, scheme, seed = args
    cache = make_cache(cache_dir, backend=kind)
    spec = quick_spec(scheme=scheme, seed=seed)
    record = execute_run(spec)
    for _ in range(5):
        cache.put(record)
        hit = cache.get(spec)
        if hit is None:
            continue  # a racing writer is fine; torn data is not
        if record_to_dict(hit) != record_to_dict(record):
            return f"{scheme}/{seed}: torn record"
    return None


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_concurrent_processes_share_one_store(kind, tmp_path):
    jobs = [
        (tmp_path, kind, scheme, seed)
        for scheme in ("SR", "AR")
        for seed in (1, 2)
    ]
    with ProcessPoolExecutor(max_workers=4) as pool:
        failures = [f for f in pool.map(_process_worker, jobs) if f]
    assert not failures
    cache = make_cache(tmp_path, backend=kind)
    assert len(cache) == len(jobs)


# ------------------------------------------------------------ batch get/put
@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_backend_get_many_put_many_round_trip(kind, tmp_path):
    """put_many stores every document; get_many returns exactly the present ones."""
    backend = make_backend(kind, tmp_path)
    documents = {f"key-{i}": json.dumps({"v": i}) for i in range(20)}
    backend.put_many(documents)
    assert backend.count() == len(documents)

    wanted = list(documents) + ["absent-a", "absent-b"]
    found = backend.get_many(wanted)
    assert found == documents  # absent keys omitted, not None-valued

    assert backend.get_many([]) == {}
    assert backend.get_many(["absent-a"]) == {}


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_backend_put_many_overwrites(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    backend.put_many({"k": '{"v": 1}', "other": '{"v": 2}'})
    backend.put_many({"k": '{"v": 10}'})
    assert backend.count() == 2
    assert backend.load("k") == '{"v": 10}'


def test_sqlite_get_many_crosses_select_chunks(tmp_path):
    """Key sets larger than the SELECT chunk are still answered completely."""
    backend = SqliteBackend(tmp_path / "store")
    documents = {f"key-{i:04d}": json.dumps({"v": i}) for i in range(1203)}
    backend.put_many(documents)
    assert backend.get_many(list(documents)) == documents


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_run_cache_get_many_matches_get(kind, tmp_path):
    """get_many agrees with per-spec get, including hit/miss accounting."""
    cache = RunCache(tmp_path, backend=make_backend(kind, tmp_path))
    stored_specs = [quick_spec(scheme="SR", seed=s) for s in (1, 2)]
    records = [execute_run(spec) for spec in stored_specs]
    cache.put_many(records)
    missing = quick_spec(scheme="AR", seed=3)

    hits = cache.get_many(stored_specs + [missing])
    assert hits[-1] is None
    for spec, hit, record in zip(stored_specs, hits[:-1], records):
        assert hit is not None
        assert record_to_dict(hit) == record_to_dict(cache.get(spec))
    snapshot = cache.stats.snapshot()
    # get_many: 2 hits + 1 miss; the per-spec get() calls above add 2 hits.
    assert snapshot.hits == 4
    assert snapshot.misses == 1


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_run_cache_get_many_treats_damage_as_miss(kind, tmp_path):
    cache = RunCache(tmp_path, backend=make_backend(kind, tmp_path))
    spec = quick_spec(seed=5)
    cache.put(execute_run(spec))
    cache.backend.store(run_key(spec), '{"not": "a record"}')
    assert cache.get_many([spec]) == [None]


@pytest.mark.parametrize("kind", CACHE_BACKENDS)
def test_run_cache_put_many_then_backend_documents_canonical(kind, tmp_path):
    """put_many writes the same canonical document as per-record put."""
    cache_a = RunCache(tmp_path / "a", backend=make_backend(kind, tmp_path / "a"))
    cache_b = RunCache(tmp_path / "b", backend=make_backend(kind, tmp_path / "b"))
    records = [execute_run(quick_spec(scheme=s, seed=9)) for s in ("SR", "AR")]
    cache_a.put_many(records)
    for record in records:
        cache_b.put(record)
    keys = [run_key(quick_spec(scheme=s, seed=9)) for s in ("SR", "AR")]
    for key in keys:
        assert cache_a.backend.load(key) == cache_b.backend.load(key)
