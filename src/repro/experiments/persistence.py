"""Result persistence: content-addressed run caching over pluggable backends.

The figure scripts (6, 7, 8) and the extension benchmarks all consume the same
sweep; before this module existed each of them re-simulated every cell.  A
:class:`RunCache` stores one JSON document per executed
:class:`~repro.experiments.orchestration.RunSpec`, addressed by a SHA-256 over
the spec's canonical JSON form, so any script that asks for an already
executed spec gets the stored :class:`~repro.experiments.orchestration.RunRecord`
back instead of a re-simulation.

Cache-soundness rests on two properties:

* ``execute_run`` is a pure function of its spec (see the determinism
  contract in :mod:`repro.experiments.orchestration`), so a stored record is
  exactly what a re-run would produce;
* the key covers *every* field of the spec (scenario knobs included), so any
  change to the scenario, scheme, seed, or engine bounds produces a new key.

``CACHE_FORMAT_VERSION`` is folded into the key; bump it whenever the record
schema or the simulation semantics change, and every old entry silently
becomes a miss instead of serving stale physics.

Storage is a :class:`CacheBackend` behind the :class:`RunCache` facade:

* :class:`JsonDirBackend` — the original one-``<run_key>.json``-file-per-record
  directory.  Documents are byte-identical to what earlier revisions wrote,
  so caches populated before the backend split still hit.
* :class:`SqliteBackend` — a single WAL-mode sqlite database holding the same
  documents in one table keyed by ``run_key``; the right choice when many
  broker workers (or the ``repro serve`` service) hammer one shared store.

Both backends store the *same* canonical document text, so a record read
back from either is byte-identical; serialization, validation, and hit/miss
accounting (:class:`CacheStats`) live in the facade, never in a backend.

The store is the one place a run's identity becomes a key: the facade
computes :func:`run_key` to address the backend and is the only code that
flags a record ``cached``.  Everything in between (the broker's in-flight
table, ``execute_many``'s in-batch dedup) tracks a run by its frozen,
hashable spec, because specs that compare equal share one key.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sqlite3
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.experiments.orchestration import RunRecord, RunSpec
from repro.experiments.registry import factory_identity
from repro.network.channel import channel_from_dict, channel_to_dict
from repro.network.energy import EnergyModel, EnergySummary
from repro.network.failures import FailureEvent, freeze_params, thaw_params
from repro.sim.metrics import RunMetrics
from repro.sim.scenario import ScenarioConfig

#: Bump on any change to the stored schema or to simulation semantics.
#: v2: energy-aware engine — specs carry an optional EnergyModel and the
#: run-to-exhaustion flag, records carry exhausted/energy_series, metrics
#: carry an EnergySummary, and bound-hit runs with holes now report stalled.
#: v3: declarative failure schedules — specs carry a tuple of FailureEvents
#: applied by the engine at the start of their round.
#: v4: pluggable control channels — specs carry an optional ChannelModel,
#: control messages are real channel traffic debited by the engine, and
#: metrics carry messages_dropped / mean_delivery_latency.
#: v5: auditable message ledger — metrics carry messages_delivered and
#: messages_in_flight so stored records satisfy the conservation invariant
#: sent == delivered + dropped + in_flight checked by the differential
#: harness's oracles.
CACHE_FORMAT_VERSION = 5


#: Field names of the two frozen configs a spec carries, in declaration
#: order.  Every field is a plain value, so a dict of them equals
#: ``dataclasses.asdict``, which costs ten times as much.
_SCENARIO_FIELDS = tuple(field.name for field in dataclasses.fields(ScenarioConfig))
_ENERGY_FIELDS = tuple(field.name for field in dataclasses.fields(EnergyModel))


# ------------------------------------------------------------- serialization
def spec_to_dict(spec: RunSpec) -> Dict[str, object]:
    """Canonical JSON-compatible form of a spec (stable across processes)."""
    scenario = spec.scenario
    energy = spec.energy
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "scenario": {name: getattr(scenario, name) for name in _SCENARIO_FIELDS},
        "scheme": spec.scheme,
        "seed": spec.seed,
        "max_rounds": spec.max_rounds,
        "idle_round_limit": spec.idle_round_limit,
        "energy": (
            {name: getattr(energy, name) for name in _ENERGY_FIELDS}
            if energy is not None
            else None
        ),
        "run_to_exhaustion": spec.run_to_exhaustion,
        "failures": [
            {
                "round": event.round,
                "kind": event.kind,
                "params": dict(thaw_params(event.params)),
            }
            for event in spec.failures
        ],
        "channel": channel_to_dict(spec.channel),
    }


#: The plain-valued optional :class:`RunSpec` fields; :func:`spec_from_dict`
#: leaves an absent one to the spec's own default.
_OPTIONAL_SPEC_FIELDS = ("max_rounds", "idle_round_limit", "run_to_exhaustion")


def spec_from_dict(payload: Dict[str, object]) -> RunSpec:
    """Inverse of :func:`spec_to_dict`.

    An absent optional field takes :class:`RunSpec`'s own default; a stored
    document carries every field.
    """
    energy = payload.get("energy")
    return RunSpec(
        scenario=ScenarioConfig(**payload["scenario"]),
        scheme=payload["scheme"],
        seed=payload["seed"],
        energy=EnergyModel(**energy) if energy is not None else None,
        failures=tuple(
            FailureEvent(
                round=entry["round"],
                kind=entry["kind"],
                params=freeze_params(entry["params"]),
            )
            for entry in payload.get("failures", ())
        ),
        channel=channel_from_dict(payload.get("channel")),
        **{name: payload[name] for name in _OPTIONAL_SPEC_FIELDS if name in payload},
    )


def record_to_dict(record: RunRecord) -> Dict[str, object]:
    """JSON-compatible form of a record (``cached`` is execution metadata, not stored)."""
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "spec": spec_to_dict(record.spec),
        "metrics": dataclasses.asdict(record.metrics),
        "rounds_executed": record.rounds_executed,
        "stalled": record.stalled,
        "exhausted": record.exhausted,
        "energy_series": list(record.energy_series),
    }


def record_from_dict(payload: Dict[str, object]) -> RunRecord:
    """Inverse of :func:`record_to_dict`."""
    metrics_payload = dict(payload["metrics"])
    energy = metrics_payload.get("energy")
    if energy is not None:
        metrics_payload["energy"] = EnergySummary(**energy)
    return RunRecord(
        spec=spec_from_dict(payload["spec"]),
        metrics=RunMetrics(**metrics_payload),
        rounds_executed=payload["rounds_executed"],
        stalled=payload["stalled"],
        exhausted=payload["exhausted"],
        energy_series=tuple(payload["energy_series"]),
    )


def run_key(spec: RunSpec) -> str:
    """Content hash of a spec — the cache address of its record.

    Besides the spec fields, the key covers the *identity* of the factory
    currently registered under the spec's scheme name: shadowing a scheme
    with ``register_scheme(..., replace=True)`` must not serve records that
    were simulated by the previous implementation.
    """
    payload = spec_to_dict(spec)
    try:
        payload["scheme_impl"] = factory_identity(spec.scheme)
    except KeyError:
        # Unregistered scheme: the key is still well-defined; execution will
        # fail later with the registry's own error.
        pass
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- stats
@dataclasses.dataclass(frozen=True)
class CacheStatsSnapshot:
    """Point-in-time view of a cache's hit/miss counters.

    Attributes
    ----------
    hits, misses:
        Lookups answered from the store / lookups that fell through to a
        (re-)simulation since the counters were created or reset.
    """

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        """Total lookups the snapshot covers."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-compatible form (used by ``repro serve`` ``/stats``)."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}


class CacheStats:
    """Thread-safe hit/miss accounting shared by every consumer of one cache.

    The broker's worker threads, ``execute_many`` batches, and the serve
    handlers all record into the same instance; a lock (not bare mutable
    ints) keeps the totals exact under that concurrency, and
    :meth:`snapshot` hands out a consistent frozen view.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def record_hit(self) -> None:
        """Count one lookup answered from the store."""
        with self._lock:
            self._hits += 1

    def record_miss(self) -> None:
        """Count one lookup that fell through to simulation."""
        with self._lock:
            self._misses += 1

    def snapshot(self) -> CacheStatsSnapshot:
        """A consistent frozen view of the counters (hits and misses paired)."""
        with self._lock:
            return CacheStatsSnapshot(hits=self._hits, misses=self._misses)


# ------------------------------------------------------------------ backends
class CacheBackend(ABC):
    """Storage strategy of a :class:`RunCache`: raw documents keyed by ``run_key``.

    A backend stores and retrieves opaque document *text*; serialization,
    schema validation, and hit/miss accounting belong to the facade.  All
    methods must be safe to call from multiple threads and processes at
    once: a concurrent reader sees either a complete document or nothing,
    never a torn write.
    """

    #: Short name used by ``--cache-backend`` and reporting.
    kind: str = "abstract"

    @abstractmethod
    def load(self, key: str) -> Optional[str]:
        """The stored document for ``key``, or ``None`` when absent."""

    @abstractmethod
    def store(self, key: str, document: str) -> Path:
        """Persist ``document`` under ``key`` (atomically); returns the storage path."""

    @abstractmethod
    def contains(self, key: str) -> bool:
        """Whether a document is stored under ``key``."""

    @abstractmethod
    def count(self) -> int:
        """Number of stored documents."""

    @abstractmethod
    def clear(self) -> int:
        """Delete every stored document; returns how many were removed."""

    @abstractmethod
    def iter_keys(self) -> Iterator[str]:
        """Iterate over the keys of every stored document."""

    # ------------------------------------------------------------ batch ops
    def get_many(self, keys: Sequence[str]) -> Dict[str, str]:
        """Documents for every stored key in ``keys`` (absent keys omitted).

        The base implementation loops over :meth:`load`; backends with a
        cheaper bulk path (one sqlite ``SELECT ... IN``) override it.
        """
        documents: Dict[str, str] = {}
        for key in keys:
            document = self.load(key)
            if document is not None:
                documents[key] = document
        return documents

    def put_many(self, items: Dict[str, str]) -> None:
        """Persist every ``key -> document`` pair.

        The base implementation loops over :meth:`store` (each write is
        individually atomic); backends with real transactions override it to
        commit the whole batch as one — a sweep's records then land in a
        single sqlite transaction instead of per-record commits.
        """
        for key, document in items.items():
            self.store(key, document)

    def close(self) -> None:
        """Release whatever the backend holds open between operations.

        The backend stays usable: a later operation reopens what it needs.
        The base implementation holds nothing and does nothing.
        """


class JsonDirBackend(CacheBackend):
    """One ``<run_key>.json`` file per record in a flat directory.

    This is the original :class:`RunCache` layout, extracted unchanged: the
    documents it writes are byte-identical to what earlier revisions of this
    module produced, so caches populated before the backend split still hit.
    """

    kind = "json"

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)

    def path_for(self, key: str) -> Path:
        """The file a document for ``key`` is (or would be) stored at."""
        return self.cache_dir / f"{key}.json"

    def load(self, key: str) -> Optional[str]:
        """Read the document text, or ``None`` when the file is absent."""
        try:
            return self.path_for(key).read_text()
        except OSError:
            return None

    def store(self, key: str, document: str) -> Path:
        """Write the document atomically (tempfile + rename) and return its path.

        The temp file gets a writer-unique name so concurrent processes
        racing to store the same spec each publish a complete document (last
        full write wins — both wrote the same deterministic record anyway).
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(document)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        return path

    def contains(self, key: str) -> bool:
        """Whether the record file exists."""
        return self.path_for(key).exists()

    def count(self) -> int:
        """Number of ``.json`` record files in the directory."""
        if not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete every record file; returns how many were removed."""
        removed = 0
        if self.cache_dir.exists():
            for path in self.cache_dir.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def iter_keys(self) -> Iterator[str]:
        """Yield the run key of every stored record file."""
        if not self.cache_dir.exists():
            return
        for path in self.cache_dir.glob("*.json"):
            yield path.stem


#: Bump on any change to the sqlite table layout (independent of the record
#: schema, which CACHE_FORMAT_VERSION covers inside each document).
SQLITE_SCHEMA_VERSION = 1

#: Default database filename when ``--cache-dir`` points at a directory.
SQLITE_DEFAULT_FILENAME = "runs.sqlite3"

#: Idle connections a :class:`SqliteBackend` keeps open in one process.  An
#: operation that finds none idle opens another; one returned to a full pool
#: is closed.
SQLITE_IDLE_CONNECTIONS = 8

#: Seconds a connection waits on another's lock before failing (sqlite's
#: busy timeout), and how long creating the schema retries a refused lock.
SQLITE_BUSY_TIMEOUT_S = 30.0


class SqliteBackend(CacheBackend):
    """All records in one WAL-mode sqlite database, keyed by ``run_key``.

    Designed for many concurrent readers and writers sharing one store (the
    broker's worker threads, several ``repro`` processes, or the serve
    service): WAL mode lets readers proceed during a write and a busy
    timeout absorbs write contention.  The table schema is versioned through
    ``PRAGMA user_version``; a database created by an incompatible revision
    is rejected loudly instead of being misread.

    Operations run on pooled connections, each opened once with
    ``synchronous=NORMAL``.  An operation checks one out, so no two threads
    ever use a connection at once, and checks it back in afterwards: rolled
    back if it still holds a transaction, closed instead if the operation
    raised.  At most :data:`SQLITE_IDLE_CONNECTIONS` stay open per process.
    The pool is keyed by process id, so a forked child opens connections of
    its own and never uses or closes one it inherited (sqlite forbids
    carrying a connection across ``fork``), nor waits on a pool lock another
    thread held when the process forked.  :meth:`close` closes this
    process's idle connections; closing the last connection to the database
    checkpoints the WAL into the database file.  A pooled connection keeps
    the file it opened, so a database deleted or replaced under a running
    process is only seen again after :meth:`close`.
    """

    kind = "sqlite"

    def __init__(self, path: Union[str, Path]) -> None:
        path = Path(path)
        if path.is_dir() or path.suffix == "":
            path = path / SQLITE_DEFAULT_FILENAME
        self.path = path
        self._initialised = False
        self._init_lock = threading.Lock()
        #: ``pid -> (lock, idle connections)``: one pool per process.
        self._pools: Dict[int, Tuple[threading.Lock, List[sqlite3.Connection]]] = {}

    def _pool(self) -> Tuple[threading.Lock, List[sqlite3.Connection]]:
        """This process's lock and idle connections (created on first use)."""
        pid = os.getpid()
        pool = self._pools.get(pid)
        if pool is None:
            pool = self._pools.setdefault(pid, (threading.Lock(), []))
        return pool

    def _checkout(self, write: bool) -> sqlite3.Connection:
        """An idle connection of this process, or a new one.

        Only a write creates the database, so only a write creates its
        directory.  The connect ``timeout`` is the busy timeout that absorbs
        write contention.
        """
        lock, idle = self._pool()
        with lock:
            if idle:
                return idle.pop()
        if write:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(
            str(self.path), timeout=SQLITE_BUSY_TIMEOUT_S, check_same_thread=False
        )
        connection.execute("PRAGMA synchronous=NORMAL")
        return connection

    def _checkin(self, connection: sqlite3.Connection) -> None:
        """Return a connection to the pool, or close it when the pool is full."""
        lock, idle = self._pool()
        with lock:
            if len(idle) < SQLITE_IDLE_CONNECTIONS:
                idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close this process's idle connections; later operations reopen them."""
        lock, idle = self._pool()
        with lock:
            connections = idle[:]
            idle.clear()
        for connection in connections:
            connection.close()

    def _schema_ready(self, connection: sqlite3.Connection) -> bool:
        """Whether the table exists; reject incompatible schema versions."""
        version = connection.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SQLITE_SCHEMA_VERSION):
            raise ValueError(
                f"cache database {self.path} has schema version {version}, "
                f"this build expects {SQLITE_SCHEMA_VERSION}"
            )
        return version != 0

    def _ensure_schema(self, connection: sqlite3.Connection) -> None:
        """Create the table and switch the file to WAL, once per database.

        WAL is a property of the database file, so no later connection sets
        it again; in particular a lookup never asks for the exclusive lock a
        journal-mode change takes, which a concurrent first write holds.

        Two processes creating one database at once race the WAL switch,
        and sqlite refuses the loser "database is locked" at once, without
        its busy timeout (the loser already reads the file, and waiting for
        the winner to take it over could deadlock).  The loser retries until
        the winner's schema is in place.
        """
        deadline = time.monotonic() + SQLITE_BUSY_TIMEOUT_S
        while True:
            try:
                if self._schema_ready(connection):
                    return
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS run_records ("
                    "run_key TEXT PRIMARY KEY, document TEXT NOT NULL)"
                )
                connection.execute(f"PRAGMA user_version = {SQLITE_SCHEMA_VERSION}")
                connection.commit()
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                connection.rollback()
                time.sleep(0.01)

    @contextlib.contextmanager
    def _session(self, write: bool = False) -> Iterator[Optional[sqlite3.Connection]]:
        """A pooled connection for one operation; ``None`` when there is nothing to read.

        Only a write creates the database.  A read of a database that does
        not exist yet, or whose first write is still creating it, gets
        ``None`` (a miss) instead of contending for the creator's locks.
        """
        if not write and not self.path.exists():
            yield None
            return
        connection = self._checkout(write)
        try:
            yield connection if self._ready(connection, write) else None
            if connection.in_transaction:
                connection.rollback()
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)

    def _ready(self, connection: sqlite3.Connection, write: bool) -> bool:
        """Whether the schema exists, creating it first for a write."""
        if self._initialised:
            return True
        if write:
            with self._init_lock:
                self._ensure_schema(connection)
        elif not self._schema_ready(connection):
            return False
        self._initialised = True
        return True

    def load(self, key: str) -> Optional[str]:
        """Read the stored document text, or ``None`` when absent."""
        with self._session() as connection:
            if connection is None:
                return None
            row = connection.execute(
                "SELECT document FROM run_records WHERE run_key = ?", (key,)
            ).fetchone()
        return row[0] if row is not None else None

    def store(self, key: str, document: str) -> Path:
        """Upsert the document in one transaction and return the database path."""
        with self._session(write=True) as connection:
            connection.execute(
                "INSERT INTO run_records (run_key, document) VALUES (?, ?) "
                "ON CONFLICT(run_key) DO UPDATE SET document = excluded.document",
                (key, document),
            )
            connection.commit()
        return self.path

    def contains(self, key: str) -> bool:
        """Whether a row is stored under ``key``."""
        with self._session() as connection:
            if connection is None:
                return False
            row = connection.execute(
                "SELECT 1 FROM run_records WHERE run_key = ?", (key,)
            ).fetchone()
        return row is not None

    def count(self) -> int:
        """Number of stored rows."""
        with self._session() as connection:
            if connection is None:
                return 0
            return connection.execute("SELECT COUNT(*) FROM run_records").fetchone()[0]

    def clear(self) -> int:
        """Delete every row; returns how many were removed."""
        with self._session() as connection:
            if connection is None:
                return 0
            removed = connection.execute(
                "SELECT COUNT(*) FROM run_records"
            ).fetchone()[0]
            connection.execute("DELETE FROM run_records")
            connection.commit()
        return removed

    def iter_keys(self) -> Iterator[str]:
        """Yield the run key of every stored row."""
        with self._session() as connection:
            if connection is None:
                return
            rows = connection.execute(
                "SELECT run_key FROM run_records ORDER BY run_key"
            ).fetchall()
        for (key,) in rows:
            yield key

    # ------------------------------------------------------------ batch ops
    #: Keys per ``IN (...)`` clause; comfortably below sqlite's historical
    #: 999-host-parameter limit.
    _SELECT_CHUNK = 500

    def get_many(self, keys: Sequence[str]) -> Dict[str, str]:
        """Bulk load on one connection: chunked ``SELECT ... WHERE key IN``."""
        keys = list(keys)
        documents: Dict[str, str] = {}
        if not keys:
            return documents
        with self._session() as connection:
            if connection is None:
                return documents
            for start in range(0, len(keys), self._SELECT_CHUNK):
                chunk = keys[start : start + self._SELECT_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                rows = connection.execute(
                    "SELECT run_key, document FROM run_records "
                    f"WHERE run_key IN ({placeholders})",
                    chunk,
                ).fetchall()
                documents.update(rows)
        return documents

    def put_many(self, items: Dict[str, str]) -> None:
        """Upsert every pair in ONE transaction (all-or-nothing commit)."""
        if not items:
            return
        with self._session(write=True) as connection:
            connection.executemany(
                "INSERT INTO run_records (run_key, document) VALUES (?, ?) "
                "ON CONFLICT(run_key) DO UPDATE SET document = excluded.document",
                list(items.items()),
            )
            connection.commit()


#: Backend kinds accepted by ``--cache-backend`` / :func:`make_cache`.
CACHE_BACKENDS = ("json", "sqlite")


def make_cache(
    cache_dir: Union[str, Path], backend: str = "json"
) -> "RunCache":
    """A :class:`RunCache` rooted at ``cache_dir`` using the named backend.

    ``"json"`` stores one file per record directly in ``cache_dir`` (the
    historical layout); ``"sqlite"`` stores every record in
    ``cache_dir/runs.sqlite3``.  Both layouts can coexist in one directory —
    they never collide — but they do not share entries.
    """
    if backend == "json":
        return RunCache(cache_dir)
    if backend == "sqlite":
        return RunCache(cache_dir, backend=SqliteBackend(Path(cache_dir)))
    raise ValueError(
        f"unknown cache backend {backend!r}; choose from {list(CACHE_BACKENDS)}"
    )


# --------------------------------------------------------------------- cache
class RunCache:
    """Facade over a :class:`CacheBackend`: typed records in, typed records out.

    Lookups that fail for any reason (missing document, corrupt JSON, schema
    drift, or a stored spec that does not round-trip to the requested one)
    are treated as misses, so a damaged cache degrades to re-simulation
    rather than wrong results.

    ``RunCache(directory)`` keeps the historical behaviour (a
    :class:`JsonDirBackend` on that directory); pass ``backend=`` to use a
    different store under that directory.  ``hits``/``misses`` remain
    readable attributes but are backed by a thread-safe :class:`CacheStats`
    shared with the broker.  Every record a lookup returns is flagged
    ``cached``; nothing else sets the flag.
    """

    def __init__(
        self, cache_dir: Union[str, Path], backend: Optional[CacheBackend] = None
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.backend = backend if backend is not None else JsonDirBackend(cache_dir)
        self.stats = CacheStats()

    @property
    def hits(self) -> int:
        """Lookups answered from the store (see :attr:`stats` for a snapshot)."""
        return self.stats.snapshot().hits

    @property
    def misses(self) -> int:
        """Lookups that fell through to simulation."""
        return self.stats.snapshot().misses

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        """The stored record for ``spec`` flagged ``cached``, or ``None`` on any miss."""
        return self._decode(spec, self.backend.load(run_key(spec)))

    def put(self, record: RunRecord) -> Path:
        """Persist ``record`` (atomically) and return its storage path."""
        document = json.dumps(record_to_dict(record), sort_keys=True, indent=1)
        return self.backend.store(run_key(record.spec), document)

    def _decode(self, spec: RunSpec, document: Optional[str]) -> Optional[RunRecord]:
        """Validate one stored document against ``spec`` (``None`` on any miss)."""
        try:
            if document is None:
                raise ValueError("no stored document")
            payload = json.loads(document)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
            if payload.get("format_version") != CACHE_FORMAT_VERSION:
                raise ValueError("cache format version mismatch")
            record = record_from_dict(payload)
            if record.spec != spec:
                raise ValueError("stored spec does not match requested spec")
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return dataclasses.replace(record, cached=True)

    def get_many(self, specs: Sequence[RunSpec]) -> List[Optional[RunRecord]]:
        """Stored records for ``specs`` in order, flagged ``cached`` (``None`` per miss).

        One bulk backend read instead of a lookup per spec; validation and
        hit/miss accounting are identical to :meth:`get`, so a damaged
        document still degrades to a per-spec miss.
        """
        specs = list(specs)
        keys = [run_key(spec) for spec in specs]
        documents = self.backend.get_many(list(dict.fromkeys(keys)))
        return [
            self._decode(spec, documents.get(key)) for spec, key in zip(specs, keys)
        ]

    def put_many(self, records: Sequence[RunRecord]) -> None:
        """Persist a batch of records in one backend transaction.

        Later duplicates of one spec overwrite earlier ones within the batch
        (they are byte-identical anyway — ``execute_run`` is deterministic).
        """
        items = {
            run_key(record.spec): json.dumps(
                record_to_dict(record), sort_keys=True, indent=1
            )
            for record in records
        }
        self.backend.put_many(items)

    def iter_keys(self) -> Iterator[str]:
        """Iterate over the run keys of every stored record."""
        return self.backend.iter_keys()

    def __contains__(self, spec: RunSpec) -> bool:
        return self.backend.contains(run_key(spec))

    def __len__(self) -> int:
        return self.backend.count()

    def clear(self) -> int:
        """Delete every stored record; returns how many were removed."""
        return self.backend.clear()
