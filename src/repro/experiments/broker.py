"""The experiment broker: cache-first admission, in-flight dedup, priorities.

The RunSpec/``execute_run``/:class:`~repro.experiments.persistence.RunCache`
pipeline is content-addressed and deterministic, but until this module every
consumer drove it as a one-shot batch.  :class:`ExperimentBroker` turns it
into a long-running service core:

* **Cache-first admission** — ``submit`` answers from the cache before
  touching the queue, so repeated traffic costs one backend lookup.
* **In-flight deduplication** — two submissions of an identical spec (same
  ``run_key``) share one simulation; the second submitter gets the same
  :class:`RunHandle` and therefore the same record.  This is what converts
  the heavy-overlap workload shape of the paper's sweeps (every figure and
  scenario re-asks for the same cells) into near-free lookups.
* **Priority admission** — interactive submissions (a human waiting on an
  HTTP response) overtake batch backfill in the queue.
* **Bounded queue depth** — past the bound, ``submit`` raises
  :class:`BrokerQueueFull` instead of buffering unboundedly; the serve layer
  maps that to HTTP 503.

Determinism makes all of this sound: ``execute_run`` is a pure function of
its spec, so a deduplicated or cached record is byte-identical to what a
private re-simulation would have produced.

The one-shot batch entry point
:func:`~repro.experiments.orchestration.execute_many` is a thin wrapper over
:func:`execute_batch` below, which applies the same cache-first + dedup
policy to a static spec list while still driving misses through a pluggable
:class:`~repro.experiments.orchestration.RunExecutor` (so ``--jobs`` process
parallelism keeps working).
"""

from __future__ import annotations

import dataclasses
import enum
import queue
import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.orchestration import (
    RunExecutor,
    RunRecord,
    RunSpec,
    SerialExecutor,
    execute_run,
)
from repro.experiments.persistence import RunCache, run_key
from repro.experiments.state_cache import StateCacheStats, default_state_cache

__all__ = [
    "Priority",
    "BrokerQueueFull",
    "BrokerStats",
    "RunHandle",
    "ExperimentBroker",
    "execute_batch",
]


class Priority(enum.IntEnum):
    """Admission classes: lower values are dequeued first."""

    #: A caller is blocked waiting on the answer (HTTP request, CLI query).
    INTERACTIVE = 0
    #: Backfill work (sweep cells, prefetching); yields to interactive.
    BATCH = 1


class BrokerQueueFull(RuntimeError):
    """Raised by ``submit`` when the pending queue is at its depth bound."""


@dataclasses.dataclass(frozen=True)
class BrokerStats:
    """Point-in-time view of a broker's admission and execution counters.

    Attributes
    ----------
    submitted:
        Total ``submit`` calls accepted (including cache hits and dedups).
    cache_hits:
        Submissions answered directly from the cache.
    dedup_hits:
        Submissions that attached to an already in-flight identical spec.
    executed:
        Simulations actually performed by the workers.
    failed:
        Simulations that raised (their handles carry the exception).
    rejected:
        Submissions refused with :class:`BrokerQueueFull`.
    pending:
        Specs queued but not yet picked up by a worker.
    in_flight:
        Distinct specs admitted but not yet resolved (queued or running).
    """

    submitted: int
    cache_hits: int
    dedup_hits: int
    executed: int
    failed: int
    rejected: int
    pending: int
    in_flight: int

    def as_dict(self) -> Dict[str, int]:
        """JSON-compatible form (used by ``repro serve`` ``/stats``)."""
        return dataclasses.asdict(self)


class RunHandle:
    """Future-style handle on one admitted spec.

    Multiple submissions of the same spec share one handle (in-flight
    dedup), so ``result()`` may be awaited by several callers at once.
    """

    def __init__(self, spec: RunSpec, key: str, *, cached: bool = False) -> None:
        self.spec = spec
        self.key = key
        #: Whether the handle was resolved straight from the cache.
        self.cached = cached
        #: Whether this submit attached to an already in-flight identical spec.
        self.deduplicated = False
        self._event = threading.Event()
        self._record: Optional[RunRecord] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether a record (or an error) is available without blocking."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> RunRecord:
        """Block until the record is available and return it (re-raising errors)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"run {self.key[:12]} not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._record is not None
        return self._record

    def _resolve(self, record: RunRecord) -> None:
        """Publish the record and wake every waiter."""
        self._record = record
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        """Publish a failure and wake every waiter."""
        self._error = error
        self._event.set()


class ExperimentBroker:
    """Long-running execution service over an executor pool and a cache.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.experiments.persistence.RunCache` consulted
        on admission and written through on completion.  Any backend works;
        the sqlite backend is the natural choice when several broker
        processes share one store.
    workers:
        Worker threads draining the queue.  Each runs ``run_fn`` (default:
        the pure :func:`~repro.experiments.orchestration.execute_run`)
        in-process, so the default run function shares the process's
        default state cache: specs over one scenario build its initial state
        once.  Simulation determinism makes thread scheduling irrelevant to
        results.
    queue_limit:
        Maximum pending (queued, not yet running) specs before ``submit``
        raises :class:`BrokerQueueFull`; ``None`` means unbounded.
    run_fn:
        Execution function ``RunSpec -> RunRecord``; injectable for tests
        (e.g. a gated stub proving dedup performs exactly one simulation).
    """

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        workers: int = 1,
        queue_limit: Optional[int] = None,
        run_fn: Callable[[RunSpec], RunRecord] = execute_run,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1 or None, got {queue_limit}")
        self.cache = cache
        self.queue_limit = queue_limit
        self._run_fn = run_fn
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._lock = threading.Lock()
        self._inflight: Dict[str, RunHandle] = {}
        self._sequence = 0
        self._pending = 0
        self._submitted = 0
        self._cache_hits = 0
        self._dedup_hits = 0
        self._executed = 0
        self._failed = 0
        self._rejected = 0
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True, name=f"broker-{i}")
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------- admission
    def submit(
        self, spec: RunSpec, priority: Priority = Priority.BATCH
    ) -> RunHandle:
        """Admit one spec cache-first and return a handle on its record.

        Resolution order: cache hit (immediately-done handle, record flagged
        ``cached``) > in-flight dedup (the existing handle, flagged
        ``deduplicated``) > fresh enqueue.  Raises :class:`BrokerQueueFull`
        when the pending queue is at its bound.
        """
        key = run_key(spec)
        if self.cache is not None:
            hit = self.cache.get(spec)
            if hit is not None:
                with self._lock:
                    self._submitted += 1
                    self._cache_hits += 1
                handle = RunHandle(spec, key, cached=True)
                handle._resolve(dataclasses.replace(hit, cached=True))
                return handle
        with self._lock:
            if self._closed:
                raise RuntimeError("broker is shut down")
            existing = self._inflight.get(key)
            if existing is not None:
                self._submitted += 1
                self._dedup_hits += 1
                existing.deduplicated = True
                return existing
            if self.queue_limit is not None and self._pending >= self.queue_limit:
                self._rejected += 1
                raise BrokerQueueFull(
                    f"broker queue is full ({self._pending} pending, "
                    f"limit {self.queue_limit})"
                )
            self._submitted += 1
            self._sequence += 1
            self._pending += 1
            handle = RunHandle(spec, key)
            self._inflight[key] = handle
            self._queue.put((int(priority), self._sequence, handle))
        return handle

    def submit_many(
        self, specs: Sequence[RunSpec], priority: Priority = Priority.BATCH
    ) -> List[RunHandle]:
        """Admit a batch of specs in order and return their handles."""
        return [self.submit(spec, priority=priority) for spec in specs]

    def run(
        self, specs: Sequence[RunSpec], priority: Priority = Priority.BATCH
    ) -> List[RunRecord]:
        """Admit a batch and block for the records, in spec order."""
        return [handle.result() for handle in self.submit_many(specs, priority)]

    # ------------------------------------------------------------- lifecycle
    def state_cache_stats(self) -> Optional[StateCacheStats]:
        """Counters of the process's default state cache (``None`` if disabled)."""
        cache = default_state_cache()
        return cache.stats() if cache is not None else None

    def stats(self) -> BrokerStats:
        """A consistent snapshot of the broker's counters."""
        with self._lock:
            return BrokerStats(
                submitted=self._submitted,
                cache_hits=self._cache_hits,
                dedup_hits=self._dedup_hits,
                executed=self._executed,
                failed=self._failed,
                rejected=self._rejected,
                pending=self._pending,
                in_flight=len(self._inflight),
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the worker threads.

        Queued specs are still drained — their submitters hold handles and
        deserve answers — but new ``submit`` calls are refused.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put((max(Priority) + 1, float("inf"), None))
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "ExperimentBroker":
        """Context-manager entry: the broker itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut down and join the workers."""
        self.shutdown(wait=True)

    # --------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        """Drain the priority queue until the shutdown sentinel arrives."""
        while True:
            _, _, handle = self._queue.get()
            if handle is None:
                return
            with self._lock:
                self._pending -= 1
            try:
                record = self._run_fn(handle.spec)
            except BaseException as error:  # noqa: BLE001 - forwarded to waiters
                with self._lock:
                    self._failed += 1
                    self._inflight.pop(handle.key, None)
                handle._fail(error)
                continue
            # Publish to the cache BEFORE leaving the in-flight table: a
            # concurrent submit always sees the spec either in flight or in
            # the cache, never in the gap between the two.
            if self.cache is not None:
                self.cache.put(record)
            with self._lock:
                self._executed += 1
                self._inflight.pop(handle.key, None)
            handle._resolve(record)


# ------------------------------------------------------------------- batches
def execute_batch(
    specs: Sequence[RunSpec],
    executor: Optional[RunExecutor] = None,
    cache: Optional[RunCache] = None,
) -> List[RunRecord]:
    """One-shot broker admission for a static spec list.

    Applies the broker's cache-first + dedup policy without standing up
    worker threads: identical specs within the batch collapse onto one
    simulation (``execute_run`` is deterministic, so the shared record is
    exactly what each duplicate would have produced), cached specs are
    answered from the store, and only the remaining unique misses are driven
    through ``executor`` — preserving process-level ``--jobs`` parallelism
    and the executor's ``runs_executed`` accounting.

    Records come back in spec order; cache hits are flagged ``cached``.
    """
    specs = list(specs)
    executor = executor if executor is not None else SerialExecutor()

    # In-batch dedup: first occurrence of each run_key owns the execution.
    keys = [run_key(spec) for spec in specs]
    owner_index: Dict[str, int] = {}
    for index, key in enumerate(keys):
        owner_index.setdefault(key, index)

    resolved: Dict[str, RunRecord] = {}
    missing: List[RunSpec] = []
    owner_specs = [specs[index] for index in owner_index.values()]
    hits = (
        cache.get_many(owner_specs)
        if cache is not None
        else [None] * len(owner_specs)
    )
    for key, spec, hit in zip(owner_index.keys(), owner_specs, hits):
        if hit is not None:
            resolved[key] = dataclasses.replace(hit, cached=True)
        else:
            missing.append(spec)

    if missing:
        fresh = executor.run_all(missing)
        if cache is not None:
            # One transactional commit for the whole sweep's fresh records
            # instead of a write per record.
            cache.put_many(fresh)
        for record in fresh:
            resolved[run_key(record.spec)] = record
    return [resolved[key] for key in keys]
