"""The experiment broker: cache-first admission, in-flight dedup, priorities.

The RunSpec/``execute_run``/:class:`~repro.experiments.persistence.RunCache`
pipeline is content-addressed and deterministic.  :class:`ExperimentBroker`
runs it as a long-running service core, and is itself a
:class:`~repro.experiments.orchestration.RunExecutor`:

* **Cache-first admission** — a stored record answers before the queue is
  touched, so repeated traffic costs one backend lookup.
* **In-flight deduplication** — two admissions of equal specs share one
  simulation; the second submitter gets the same :class:`RunHandle` and
  therefore the same record.  The in-flight table is keyed by the frozen
  spec itself: only the record store computes a ``run_key``.  This is what
  converts the heavy-overlap workload shape of the paper's sweeps (every
  figure and scenario re-asks for the same cells) into near-free lookups.
* **Priority admission** — interactive submissions (a human waiting on an
  HTTP response) overtake batch backfill in the queue.
* **Bounded queue depth, whole batches** — a batch is admitted whole or not
  at all: when its new specs (not cached, not already in flight) do not fit
  under the bound beside the pending ones, :class:`BrokerQueueFull` is raised
  before any of them is queued; the serve layer maps that to HTTP 503.

``submit`` (one spec, returns a handle) and ``run_all`` (a batch, blocks for
the records) are two calls of one admission routine.

Determinism makes all of this sound: ``execute_run`` is a pure function of
its spec, so a deduplicated or cached record is byte-identical to what a
private re-simulation would have produced.  Only the record store flags a
record ``cached``: :meth:`~repro.experiments.persistence.RunCache.get` and
``get_many`` return their hits that way.

:func:`execute_many` below is the one way to run a batch of specs: it
applies the same cache-first + dedup policy to a static spec list and drives
the misses through any executor — serial, process-parallel (``--jobs``), or
a broker, whose admission then spans concurrent callers.
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
    "execute_many",
]


class Priority(enum.IntEnum):
    """Admission classes: lower values are dequeued first."""

    #: A caller is blocked waiting on the answer (HTTP request, CLI query).
    INTERACTIVE = 0
    #: Backfill work (sweep cells, prefetching); yields to interactive.
    BATCH = 1


class BrokerQueueFull(RuntimeError):
    """Raised, with nothing queued, when new specs do not fit under the queue bound."""


@dataclasses.dataclass(frozen=True)
class BrokerStats:
    """Point-in-time view of a broker's admission and execution counters.

    Attributes
    ----------
    submitted:
        Total specs admitted (including cache hits and dedups).
    cache_hits:
        Submissions answered directly from the cache.
    dedup_hits:
        Submissions that attached to an already in-flight identical spec.
    executed:
        Simulations actually performed by the workers.
    failed:
        Simulations that raised (their handles carry the exception).
    rejected:
        Admissions refused with :class:`BrokerQueueFull` (a refused batch
        counts once).
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

    Multiple submissions of equal specs share one handle (in-flight
    dedup), so ``result()`` may be awaited by several callers at once.
    """

    def __init__(self, spec: RunSpec, *, cached: bool = False) -> None:
        self.spec = spec
        #: Whether the handle was resolved straight from the cache.
        self.cached = cached
        #: Whether this submit attached to an already in-flight identical spec.
        self.deduplicated = False
        self._event = threading.Event()
        self._record: Optional[RunRecord] = None
        self._error: Optional[BaseException] = None

    @property
    def key(self) -> str:
        """The spec's ``run_key``: the record store's address of its record."""
        return run_key(self.spec)

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


class ExperimentBroker(RunExecutor):
    """Long-running execution service over worker threads and a cache.

    As a :class:`~repro.experiments.orchestration.RunExecutor` it can be
    handed to :func:`execute_many` and to every experiment taking ``executor=``;
    :meth:`run_all` admits the batch at :attr:`Priority.BATCH`.

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
        Maximum pending (queued, not yet running) specs; an admission whose
        new specs would exceed it raises :class:`BrokerQueueFull` and queues
        none of them.  ``None`` means unbounded.
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
        self._inflight: Dict[RunSpec, RunHandle] = {}
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
        return self._admit([spec], priority)[0]

    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Admit a batch whole at :attr:`Priority.BATCH` and block for its records.

        Records come back in spec order.  When the batch's new specs do not
        fit under ``queue_limit``, :class:`BrokerQueueFull` is raised and
        none of them is queued.
        """
        return [handle.result() for handle in self._admit(list(specs), Priority.BATCH)]

    def _admit(self, specs: List[RunSpec], priority: Priority) -> List[RunHandle]:
        """The one admission routine: ``specs`` are admitted all or none.

        Each spec resolves cache hit > in-flight dedup (onto a run of an
        equal spec already queued or running, or onto an earlier equal spec
        of this batch) > fresh enqueue.  The fresh specs are queued only if
        all of them fit under ``queue_limit`` beside the pending ones;
        otherwise the refusal counts once in ``rejected``, no other counter
        moves, and :class:`BrokerQueueFull` is raised.  Returns one handle
        per spec, in order.
        """
        hits = [
            self.cache.get(spec) if self.cache is not None else None for spec in specs
        ]
        handles: List[RunHandle] = []
        fresh: Dict[RunSpec, RunHandle] = {}
        attached: List[RunHandle] = []
        with self._lock:
            for spec, hit in zip(specs, hits):
                if hit is not None:
                    handle = RunHandle(spec, cached=True)
                    handle._resolve(hit)
                elif self._closed:
                    raise RuntimeError("broker is shut down")
                else:
                    handle = self._inflight.get(spec) or fresh.get(spec)
                    if handle is None:
                        handle = fresh[spec] = RunHandle(spec)
                    else:
                        attached.append(handle)
                handles.append(handle)
            if (
                self.queue_limit is not None
                and self._pending + len(fresh) > self.queue_limit
            ):
                self._rejected += 1
                raise BrokerQueueFull(
                    f"broker queue is full ({self._pending} pending + "
                    f"{len(fresh)} new > limit {self.queue_limit})"
                )
            for handle in attached:
                handle.deduplicated = True
            for spec, handle in fresh.items():
                self._sequence += 1
                self._inflight[spec] = handle
                self._queue.put((int(priority), self._sequence, handle))
            self._submitted += len(specs)
            self._cache_hits += len(specs) - len(attached) - len(fresh)
            self._dedup_hits += len(attached)
            self._pending += len(fresh)
        return handles

    # ------------------------------------------------------------- lifecycle
    @property
    def runs_executed(self) -> int:
        """Simulations the workers performed: the ``executed`` counter."""
        with self._lock:
            return self._executed

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

    def close(self) -> None:
        """Stop accepting work and join the worker threads (the context-manager exit).

        Queued specs are still drained — their submitters hold handles and
        deserve answers — but new admissions are refused.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put((max(Priority) + 1, float("inf"), None))
        for worker in self._workers:
            worker.join()

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
                    self._inflight.pop(handle.spec, None)
                handle._fail(error)
                continue
            # Publish to the cache BEFORE leaving the in-flight table: a
            # concurrent submit always sees the spec either in flight or in
            # the cache, never in the gap between the two.
            if self.cache is not None:
                self.cache.put(record)
            with self._lock:
                self._executed += 1
                self._inflight.pop(handle.spec, None)
            handle._resolve(record)


# ------------------------------------------------------------------- batches
def execute_many(
    specs: Sequence[RunSpec],
    executor: Optional[RunExecutor] = None,
    cache: Optional[RunCache] = None,
) -> List[RunRecord]:
    """Execute a batch of specs, reusing cached records where available.

    The one way to run a batch: equal specs within the batch collapse onto
    one simulation (``execute_run`` is deterministic, so the shared record
    is exactly what each duplicate would have produced), specs stored in
    ``cache`` are answered from it, and only the remaining distinct misses
    are driven through ``executor`` and persisted.  The executor is a
    :class:`~repro.experiments.orchestration.SerialExecutor` by default, a
    ``ParallelExecutor`` for process-level ``--jobs`` parallelism, or an
    :class:`ExperimentBroker`, whose own cache, in-flight dedup and bounded
    queue then apply across concurrent callers.

    Records come back in spec order; the cache flags its hits ``cached``.
    """
    specs = list(specs)
    executor = executor if executor is not None else SerialExecutor()
    unique = list(dict.fromkeys(specs))
    hits = cache.get_many(unique) if cache is not None else [None] * len(unique)
    resolved = {spec: hit for spec, hit in zip(unique, hits) if hit is not None}
    missing = [spec for spec, hit in zip(unique, hits) if hit is None]
    if missing:
        fresh = executor.run_all(missing)
        if cache is not None:
            # One transactional commit for the whole sweep's fresh records
            # instead of a write per record.
            cache.put_many(fresh)
        resolved.update(zip(missing, fresh))
    return [resolved[spec] for spec in specs]
