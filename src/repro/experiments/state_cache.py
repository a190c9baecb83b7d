"""In-process cache of built initial scenario states.

The sweep layer intentionally gives every scheme and every trial at a sweep
point the *same* :class:`~repro.sim.scenario.ScenarioConfig`, yet cold
execution used to rebuild the identical initial
:class:`~repro.network.state.WsnState` — deployment, thinning, occupancy
indices, head election — once per spec.  This module is the simulation-stack
analog of prefix caching in an inference server: the built initial state is
the shared prefix of every run over one scenario, so it is built exactly
once, stored under its frozen config, and handed out as private
:meth:`WsnState.clone` copies.

Soundness rests on two established contracts:

* ``build_scenario_state`` is a pure function of its config (all randomness
  is derived from ``config.seed`` via :func:`repro.sim.rng.derive_rng`), so
  a cached build is exactly what a rebuild would produce;
* a :meth:`WsnState.clone` is interchangeable with a rebuild — the golden
  seed-identity suite and the ``state-cache-identity`` differential oracle
  hold cached runs to byte-identical records.

Each process has one default instance (capacity :data:`DEFAULT_CAPACITY`),
consulted by ``execute_run`` unless a caller passes an explicit cache or
``None``.  Parallel workers install a fresh default of their own.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.network.state import WsnState
from repro.sim.scenario import ScenarioConfig, build_scenario_state

__all__ = [
    "DEFAULT_CAPACITY",
    "StateCacheStats",
    "StateCache",
    "default_state_cache",
    "set_default_state_cache",
]

#: Default number of distinct scenarios the cache retains (LRU beyond that).
DEFAULT_CAPACITY = 8


@dataclasses.dataclass(frozen=True)
class StateCacheStats:
    """Point-in-time view of a state cache's counters.

    Attributes
    ----------
    hits, misses:
        Lookups served from a stored build / lookups that built the scenario.
    evictions:
        Entries dropped by the LRU bound.
    entries, capacity:
        Current and maximum number of cached scenarios.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int

    @property
    def builds_saved(self) -> int:
        """Scenario builds avoided so far (one per hit)."""
        return self.hits

    def as_dict(self) -> Dict[str, object]:
        """JSON-compatible form (used by ``repro serve`` ``/stats``)."""
        return dataclasses.asdict(self)


class StateCache:
    """In-process LRU of built initial states, keyed by their frozen config.

    Thread-safe: broker worker threads share one instance.  Concurrent
    lookups of the same missing scenario are deduplicated through per-key
    build locks, so a thundering herd over one scenario performs exactly one
    build.  Lookups never hand out the stored entry itself, only a private
    :meth:`WsnState.clone`, so callers may mutate the result freely.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[ScenarioConfig, WsnState]" = OrderedDict()
        self._build_locks: Dict[ScenarioConfig, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ----------------------------------------------------------------- lookup
    def state_for(self, config: ScenarioConfig) -> WsnState:
        """A private, mutable built state for ``config`` (building on miss).

        The hot path: a hit costs one clone; a miss builds the scenario once,
        stores a pristine clone, and returns the build itself.
        """
        state = self._clone_stored(config)
        if state is not None:
            self._count(hit=True)
            return state
        with self._build_lock_for(config):
            # Another thread may have finished the same build while this one
            # waited on the key lock; re-check before building.  Served from
            # the store either way, so it still counts as a single hit.
            state = self._clone_stored(config)
            if state is not None:
                self._count(hit=True)
                return state
            self._count(hit=False)
            built = build_scenario_state(config)
            self._insert(config, built.clone())
            return built

    def contains(self, config: ScenarioConfig) -> bool:
        """Whether a build for ``config`` is currently stored."""
        with self._lock:
            return config in self._entries

    # ------------------------------------------------------------- lifecycle
    def stats(self) -> StateCacheStats:
        """A consistent snapshot of the cache's counters."""
        with self._lock:
            return StateCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                capacity=self.capacity,
            )

    def clear(self) -> int:
        """Drop every cached build; returns how many were removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            return removed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -------------------------------------------------------------- internals
    def _build_lock_for(self, config: ScenarioConfig) -> threading.Lock:
        with self._lock:
            lock = self._build_locks.get(config)
            if lock is None:
                lock = self._build_locks[config] = threading.Lock()
            return lock

    def _count(self, hit: bool) -> None:
        """Tally one lookup (every lookup counts exactly one)."""
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1

    def _clone_stored(self, config: ScenarioConfig) -> Optional[WsnState]:
        """A private copy of the stored build of ``config`` (no counting)."""
        with self._lock:
            stored = self._entries.get(config)
            if stored is None:
                return None
            self._entries.move_to_end(config)
        return stored.clone()

    def _insert(self, config: ScenarioConfig, pristine: WsnState) -> None:
        """Store ``pristine`` as the build of ``config`` (LRU-bounded)."""
        with self._lock:
            self._entries[config] = pristine
            self._entries.move_to_end(config)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._build_locks.pop(evicted, None)
                self._evictions += 1


# ------------------------------------------------------------ process default
_default_lock = threading.Lock()
_default_cache: Optional[StateCache] = StateCache()


def default_state_cache() -> Optional[StateCache]:
    """The process-wide default cache, or ``None`` when caching is disabled."""
    return _default_cache


def set_default_state_cache(cache: Optional[StateCache]) -> Optional[StateCache]:
    """Replace the process-wide default cache; returns the previous one.

    Pass ``None`` to disable implicit state caching for every consumer that
    did not receive an explicit cache.
    """
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
        return previous
