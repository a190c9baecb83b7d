"""Run orchestration: declarative run specs, pure execution, pluggable executors.

The paper's whole evaluation (Figures 6-8) is one embarrassingly parallel
sweep: every scheme runs on identical scenario builds across a range of spare
counts ``N`` and seeds.  This module decouples *describing* such a cell from
*executing* it:

* :class:`RunSpec` — a frozen, picklable description of one simulation run
  (scenario config + scheme name + controller seed + engine knobs).  Equal
  specs describe byte-identical runs, which is what makes result caching and
  cross-process execution sound.
* :func:`build_initial_state` / :func:`simulate_from` — the two pure halves
  of a run: content-addressed construction of the initial state (the shared
  prefix of every spec over one scenario, served through a
  :class:`~repro.experiments.state_cache.StateCache`) and the simulation
  proper.  :func:`execute_run` is their composition and stays the pure entry
  point ``RunSpec -> RunRecord``.
* :class:`SerialExecutor` / :class:`ParallelExecutor` — interchangeable
  strategies for executing a batch of specs.  Both return records in spec
  order, so identical seeds give identical results regardless of worker
  count.  The parallel executor keeps its worker pool alive across
  ``run_all`` calls, groups specs sharing a scenario into one worker task,
  gives each worker a warm per-process state cache, and ships already-built
  initial states to workers as raw :meth:`WsnState.to_bytes` buffers over
  ``multiprocessing.shared_memory`` instead of pickling them.
* :func:`execute_many` — the one entry point the sweep layer uses: consult an
  optional cache, execute only the missing specs, persist fresh records.

Determinism contract: everything stochastic inside a run is derived from
``spec.scenario.seed`` (deployment + thinning) and ``spec.seed`` (controller
stream) via :func:`repro.sim.rng.derive_rng`, so ``execute_run`` is a pure
function of its spec — with or without a state cache, serial or parallel,
the records are byte-identical (the golden seed-identity suite and the
``state_cache`` differential oracle enforce this).
"""

from __future__ import annotations

import contextlib
import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.experiments.registry import (
    BUILTIN_FACTORIES,
    SCHEME_REGISTRY,
    SchemeFactory,
    make_controller,
)
from repro.network.channel import DEFAULT_CHANNEL, ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent, compile_failure_schedule
from repro.network.state import WsnState
from repro.sim.engine import DEFAULT_IDLE_ROUND_LIMIT, RoundBasedEngine
from repro.sim.metrics import RunMetrics
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state
from repro.experiments.state_cache import StateCache, default_state_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.persistence import RunCache

#: Sentinel meaning "use the process-wide default state cache" (which may
#: itself be disabled via ``set_default_state_cache(None)``); distinct from
#: an explicit ``None``, which bypasses state caching outright.
USE_DEFAULT_STATE_CACHE = object()


def _resolve_state_cache(state_cache: object) -> Optional[StateCache]:
    """Map the sentinel/explicit argument onto an actual cache (or ``None``)."""
    if state_cache is USE_DEFAULT_STATE_CACHE:
        return default_state_cache()
    return state_cache  # type: ignore[return-value]


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one simulation run.

    Attributes
    ----------
    scenario:
        The deployment to build (including its deployment/thinning seed).
    scheme:
        Name of the recovery scheme, resolved through the scheme registry.
    seed:
        Seed of the controller random stream (movement targets,
        tie-breaking).  The sweep runner uses the trial seed here so the
        controller stream changes together with the scenario across trials.
    max_rounds:
        Optional hard bound on simulation rounds (``None``: engine default).
    idle_round_limit:
        Consecutive no-progress rounds before the engine declares a stall.
    energy:
        Optional :class:`~repro.network.energy.EnergyModel` the engine applies
        every round (idle drain + engine-driven depletion).  Frozen, so the
        spec stays hashable and picklable.
    run_to_exhaustion:
        Run-until-network-death mode for lifetime workloads (only meaningful
        together with an energy model whose idle drain is positive).
    failures:
        Declarative failure schedule: frozen
        :class:`~repro.network.failures.FailureEvent` entries the engine
        applies at the start of their round (dynamic holes).  Events are
        data, not controller objects, so the spec stays hashable, picklable,
        and cache-addressable; :func:`execute_run` compiles them with
        :func:`~repro.network.failures.compile_failure_schedule`.
    channel:
        The :class:`~repro.network.channel.ChannelModel` carrying the run's
        control-message traffic.  ``None`` means the default perfect
        one-round channel (the paper's assumption).  The channel's random
        stream is derived from ``seed`` with its own label, so loss patterns
        change per trial without perturbing the controller stream.
    """

    scenario: ScenarioConfig
    scheme: str
    seed: int
    max_rounds: Optional[int] = None
    idle_round_limit: int = DEFAULT_IDLE_ROUND_LIMIT
    energy: Optional[EnergyModel] = None
    run_to_exhaustion: bool = False
    failures: Tuple[FailureEvent, ...] = ()
    channel: Optional[ChannelModel] = None

    def __post_init__(self) -> None:
        """Normalise an explicit default channel to ``None``.

        ``--channel perfect`` and an omitted channel describe byte-identical
        runs; folding them onto one canonical form keeps spec equality — and
        therefore the run-cache key — semantic rather than syntactic.
        """
        if self.channel == DEFAULT_CHANNEL:
            object.__setattr__(self, "channel", None)

    def controller_rng_label(self) -> str:
        """Label of the controller random stream (kept stable for reproducibility)."""
        return f"{self.scheme}-controller"


@dataclass(frozen=True)
class RunRecord:
    """The outcome of executing one :class:`RunSpec`."""

    spec: RunSpec
    metrics: RunMetrics
    rounds_executed: int
    stalled: bool
    #: Whether the run hit its round bound before finishing (a bound-hit run
    #: with holes left is also reported as stalled).
    exhausted: bool = False
    #: Per-round total remaining energy of the enabled nodes; empty unless the
    #: spec carried an energy model.
    energy_series: Tuple[float, ...] = ()
    cached: bool = False

    @property
    def converged(self) -> bool:
        """Whether the run ended with complete coverage (no holes left)."""
        return self.metrics.coverage_restored


def build_initial_state(
    spec: RunSpec, state_cache: object = USE_DEFAULT_STATE_CACHE
) -> WsnState:
    """The initial state of ``spec`` — the pure, scenario-only half of a run.

    The initial state depends on nothing but ``spec.scenario`` (the
    scenario-defining subset of the run key), so N schemes x T trials over
    one scenario share one build: with a state cache the build happens once
    and every caller gets a private mutable copy; without one this is a plain
    ``build_scenario_state``.  Either way the result is interchangeable —
    the build is deterministic and clone/restore are byte-equivalent.
    """
    cache = _resolve_state_cache(state_cache)
    if cache is None:
        return build_scenario_state(spec.scenario)
    return cache.state_for(spec.scenario)


def simulate_from(
    state: WsnState,
    spec: RunSpec,
    *,
    round_observer: Optional[Callable[[int, Dict[str, float]], None]] = None,
) -> RunRecord:
    """Run ``spec``'s scheme on an already-built initial state.

    The second half of :func:`execute_run`: controller construction, RNG
    derivation, and the engine run.  ``state`` must be a private copy of
    ``spec.scenario``'s initial state (it is mutated in place); every
    stochastic draw from here on comes from streams derived off ``spec.seed``,
    which is what makes the build/simulate split well-defined.  This is the
    one place a run's engine is set up.  ``round_observer`` becomes the
    engine's per-round hook (see ``RoundBasedEngine.round_observer``); it
    only watches, so the record is the same with or without it.
    """
    controller = make_controller(spec.scheme, state)
    rng = derive_rng(spec.seed, spec.controller_rng_label())
    engine = RoundBasedEngine(
        state,
        controller,
        rng,
        max_rounds=spec.max_rounds,
        failure_schedule=compile_failure_schedule(spec.failures) or None,
        idle_round_limit=spec.idle_round_limit,
        energy_model=spec.energy,
        run_to_exhaustion=spec.run_to_exhaustion,
        channel=spec.channel if spec.channel is not None else DEFAULT_CHANNEL,
        channel_seed=spec.seed,
    )
    engine.round_observer = round_observer
    result = engine.run()
    return RunRecord(
        spec=spec,
        metrics=result.metrics,
        rounds_executed=result.rounds_executed,
        stalled=result.stalled,
        exhausted=result.exhausted,
        energy_series=tuple(result.series.energy),
    )


def execute_run(
    spec: RunSpec,
    _state: Optional[WsnState] = None,
    state_cache: object = USE_DEFAULT_STATE_CACHE,
) -> RunRecord:
    """Build the scenario, run the scheme, and return the resulting record.

    This is the single choke point every sweep cell goes through — serial,
    parallel, and cached execution all bottom out here — and it is now the
    composition of :func:`build_initial_state` and :func:`simulate_from`.
    It must stay a pure, top-level function: worker processes unpickle and
    call it by reference.

    ``_state`` is an internal optimisation hook: a caller that already built
    ``spec.scenario`` may pass a private copy of the resulting state to skip
    the (deterministic, hence equivalent) rebuild.  The copy is mutated in
    place.  ``state_cache`` selects the initial-state cache: the default
    sentinel consults the process-wide cache, ``None`` forces a from-scratch
    build, and an explicit :class:`StateCache` is used as-is.
    """
    state = build_initial_state(spec, state_cache) if _state is None else _state
    return simulate_from(state, spec)


# ------------------------------------------------------------------ executors
def _run_serially(
    specs: Sequence[RunSpec], state_cache: object = USE_DEFAULT_STATE_CACHE
) -> List[RunRecord]:
    """Execute specs in order, building each distinct scenario only once.

    With a state cache every spec draws a private copy from it, so scenario
    sharing works across the whole batch (and across batches).  Without one,
    consecutive specs that share a scenario config (the sweep emits one run
    per scheme with schemes innermost) still get private clones of one base
    state instead of rebuilding the deployment from scratch — the build is
    deterministic, so a clone and a rebuild are interchangeable.
    """
    cache = _resolve_state_cache(state_cache)
    if cache is not None:
        return [
            simulate_from(cache.state_for(spec.scenario), spec) for spec in specs
        ]
    records: List[RunRecord] = []
    base_scenario = None
    base_state: Optional[WsnState] = None
    for spec in specs:
        if base_state is None or spec.scenario != base_scenario:
            base_scenario = spec.scenario
            base_state = build_scenario_state(base_scenario)
        records.append(execute_run(spec, _state=base_state.clone()))
    return records


def _registry_overrides() -> Dict[str, SchemeFactory]:
    """Registrations added or replaced since import that can be pickled.

    Worker processes re-import the registry and therefore only know the
    built-in schemes; anything registered afterwards (and any built-in
    shadowed with ``replace=True``) must be shipped along.  Factories that
    cannot be pickled (lambdas, closures) are skipped — resolving them in a
    worker raises the registry's usual unknown-scheme error.
    """
    overrides: Dict[str, SchemeFactory] = {}
    for name, factory in SCHEME_REGISTRY.items():
        if BUILTIN_FACTORIES.get(name) is factory:
            continue
        try:
            pickle.dumps(factory)
        except Exception:
            continue
        overrides[name] = factory
    return overrides


def _install_registry_overrides(overrides: Dict[str, SchemeFactory]) -> None:
    """Worker-process initializer: replay post-import registrations."""
    SCHEME_REGISTRY.update(overrides)


# ----------------------------------------------------- worker-side execution
#: Number of distinct scenarios each worker process keeps warm.  Persistent
#: pools make this pay across ``run_all`` calls: a sweep that revisits a
#: scenario in a later batch finds it already built in the worker.
WORKER_STATE_CACHE_CAPACITY = 4

#: Lazily-created per-worker-process state cache (module-global so it
#: survives across tasks for the lifetime of the worker).
_worker_state_cache: Optional[StateCache] = None


def _get_worker_state_cache() -> StateCache:
    """The calling worker process's warm state cache (created on first use)."""
    global _worker_state_cache
    if _worker_state_cache is None:
        _worker_state_cache = StateCache(capacity=WORKER_STATE_CACHE_CAPACITY)
    return _worker_state_cache


def _state_from_shared_memory(segment_name: str, config: ScenarioConfig) -> WsnState:
    """Restore an initial state shipped as a shared-memory snapshot.

    The parent placed a raw :meth:`WsnState.to_bytes` buffer into the
    segment; the worker copies it out and closes its mapping immediately.
    The parent owns the segment lifetime: it unlinks (and thereby
    unregisters) the segment after the batch.  Workers deliberately do NOT
    unregister on attach — pool workers share the parent's resource-tracker
    process, where registration is idempotent but a worker-side unregister
    would strip the parent's own entry and break its unlink accounting.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=segment_name)
    try:
        snapshot = bytes(segment.buf)
    finally:
        segment.close()
    return WsnState.from_bytes(snapshot, head_policy=config.head_policy_fn)


def _execute_spec_group(
    payload: Tuple[Tuple[RunSpec, ...], Optional[str], Optional[bytes], bool],
) -> List[RunRecord]:
    """Worker task: execute a group of specs sharing one scenario.

    ``payload`` is ``(specs, segment_name, snapshot, use_worker_cache)``:
    the specs (all with equal ``scenario``), an optional shared-memory
    segment holding the parent's already-built initial state, an optional
    inline snapshot (the pickle fallback when shared memory is unavailable),
    and whether this worker should keep the scenario warm in its own cache.
    Exactly one initial-state build (or restore) happens per group; each
    spec then simulates on a private copy, which is byte-identical to a
    from-scratch run.
    """
    specs, segment_name, snapshot, use_worker_cache = payload
    config = specs[0].scenario
    cache = _get_worker_state_cache() if use_worker_cache else None

    base: Optional[WsnState] = None
    if cache is None or not cache.contains(config):
        if segment_name is not None:
            with contextlib.suppress(Exception):
                base = _state_from_shared_memory(segment_name, config)
        if base is None and snapshot is not None:
            base = WsnState.from_bytes(snapshot, head_policy=config.head_policy_fn)
        if base is None:
            base = build_scenario_state(config)
        if cache is not None:
            cache.put(config, base)
    if cache is not None:
        return [simulate_from(cache.state_for(spec.scenario), spec) for spec in specs]
    assert base is not None
    return [simulate_from(base.clone(), spec) for spec in specs]


def _group_by_scenario(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Split specs into maximal runs of consecutive equal scenarios.

    Mirrors the sharing structure of :func:`_run_serially`: the sweep emits
    schemes innermost, so grouping consecutive equal scenarios captures the
    N-schemes-x-T-trials duplication without reordering anything.
    """
    groups: List[List[RunSpec]] = []
    for spec in specs:
        if groups and groups[-1][0].scenario == spec.scenario:
            groups[-1].append(spec)
        else:
            groups.append([spec])
    return groups


class RunExecutor(ABC):
    """Strategy interface for executing a batch of run specs.

    Implementations must return one record per spec **in spec order** and
    keep :attr:`runs_executed` up to date (the cache tests rely on it to
    assert that a warm cache causes zero re-executions).
    """

    def __init__(self) -> None:
        #: Total number of specs this executor has actually simulated.
        self.runs_executed = 0

    @abstractmethod
    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec and return their records in spec order."""


class SerialExecutor(RunExecutor):
    """Execute specs one after another in the current process."""

    def __init__(self, state_cache: object = USE_DEFAULT_STATE_CACHE) -> None:
        super().__init__()
        self.state_cache = state_cache

    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec in order in the current process."""
        records = _run_serially(specs, state_cache=self.state_cache)
        self.runs_executed += len(records)
        return records


class ParallelExecutor(RunExecutor):
    """Execute specs across worker processes with deterministic ordering.

    ``ProcessPoolExecutor.map`` preserves input order, so the records come
    back exactly as :class:`SerialExecutor` would produce them; only
    wall-clock time changes with ``jobs``.  Specs and records cross the
    process boundary, controllers never do; initial states cross it only as
    raw snapshot buffers over ``multiprocessing.shared_memory``.

    Three cold-path optimisations stack here:

    * **Persistent pool** — the worker pool survives across ``run_all``
      calls (and therefore across sweep/broker submissions), so repeated
      batches pay interpreter + import start-up once.  The pool is rebuilt
      only when the picklable scheme-registry overrides change.  Call
      :meth:`close` (or use the executor as a context manager) to reap the
      workers early; an unreferenced executor reaps them at GC/interpreter
      exit like any ``ProcessPoolExecutor``.
    * **Scenario grouping** — consecutive specs sharing a scenario travel as
      one worker task, so the shared initial state is built once per group
      in the worker instead of once per spec, and each worker keeps the last
      :data:`WORKER_STATE_CACHE_CAPACITY` scenarios warm for later batches.
    * **Zero-pickle state handoff** — when the parent's state cache already
      holds a group's scenario, its :meth:`WsnState.to_bytes` snapshot is
      placed in a shared-memory segment and workers restore from it instead
      of rebuilding (falling back to an inline snapshot, then to a worker
      build, if shared memory is unavailable).
    """

    def __init__(
        self, jobs: int, state_cache: object = USE_DEFAULT_STATE_CACHE
    ) -> None:
        super().__init__()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.state_cache = state_cache
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_overrides: Optional[Dict[str, SchemeFactory]] = None

    # ------------------------------------------------------------- pool reuse
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, (re-)created only when needed.

        A pool is invalidated when the picklable scheme-registry overrides
        change: workers installed the overrides at start-up, so a new or
        shadowed registration after that must reach fresh workers.
        """
        overrides = _registry_overrides()
        if self._pool is not None and overrides != self._pool_overrides:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_install_registry_overrides,
                initargs=(overrides,),
            )
            self._pool_overrides = overrides
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_overrides = None

    def __enter__(self) -> "ParallelExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: reap the worker pool."""
        self.close()

    # -------------------------------------------------------- state shipping
    def _export_shared_states(
        self, groups: Sequence[Sequence[RunSpec]]
    ) -> Tuple[Dict[str, Tuple[Optional[str], Optional[bytes]]], List[object]]:
        """Publish parent-warm initial states as shared-memory segments.

        Only scenarios the parent state cache already holds are shipped —
        building cold scenarios in the parent would serialize work the
        workers can do concurrently.  Returns ``{scenario_key: (segment_name,
        inline_snapshot)}`` plus the segments themselves (the caller unlinks
        them after the batch).  When a segment cannot be created the snapshot
        ships inline through the task pickle instead — slower, still cheaper
        than a worker rebuild.
        """
        from repro.experiments.state_cache import scenario_key

        cache = _resolve_state_cache(self.state_cache)
        segments: List[object] = []
        transports: Dict[str, Tuple[Optional[str], Optional[bytes]]] = {}
        if cache is None:
            return transports, segments
        for group in groups:
            config = group[0].scenario
            key = scenario_key(config)
            if key in transports:
                continue
            snapshot = cache.snapshot_bytes(config)
            if snapshot is None:
                continue
            try:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(create=True, size=len(snapshot))
                segment.buf[: len(snapshot)] = snapshot
            except Exception:
                transports[key] = (None, snapshot)
                continue
            segments.append(segment)
            transports[key] = (segment.name, None)
        return transports, segments

    @staticmethod
    def _release_segments(segments: Sequence[object]) -> None:
        """Close and unlink the batch's shared-memory segments."""
        for segment in segments:
            with contextlib.suppress(Exception):
                segment.close()
            with contextlib.suppress(Exception):
                segment.unlink()

    # -------------------------------------------------------------- execution
    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute the specs across worker processes; records in spec order."""
        from repro.experiments.state_cache import scenario_key

        specs = list(specs)
        if not specs:
            return []
        if self.jobs == 1 or len(specs) == 1:
            records = _run_serially(specs, state_cache=self.state_cache)
        else:
            groups = _group_by_scenario(specs)
            use_worker_cache = _resolve_state_cache(self.state_cache) is not None
            transports, segments = self._export_shared_states(groups)
            payloads = []
            for group in groups:
                segment_name, snapshot = transports.get(
                    scenario_key(group[0].scenario), (None, None)
                )
                payloads.append(
                    (tuple(group), segment_name, snapshot, use_worker_cache)
                )
            try:
                pool = self._ensure_pool()
                records = [
                    record
                    for group_records in pool.map(_execute_spec_group, payloads)
                    for record in group_records
                ]
            finally:
                self._release_segments(segments)
        self.runs_executed += len(records)
        return records


def make_executor(
    jobs: Optional[int] = None, state_cache: object = USE_DEFAULT_STATE_CACHE
) -> RunExecutor:
    """Executor for ``jobs`` worker processes (``None`` or 1: serial)."""
    if jobs is None or jobs <= 1:
        return SerialExecutor(state_cache=state_cache)
    return ParallelExecutor(jobs, state_cache=state_cache)


# ---------------------------------------------------------------- entry point
def execute_many(
    specs: Sequence[RunSpec],
    executor: Optional[RunExecutor] = None,
    cache: "Optional[RunCache]" = None,
    broker: "Optional[object]" = None,
) -> List[RunRecord]:
    """Execute a batch of specs, reusing cached records where available.

    Records are returned in spec order.  This is a thin wrapper over the
    broker layer (:mod:`repro.experiments.broker`): identical specs within
    the batch are simulated once (``execute_run`` is deterministic, so the
    shared record is what each duplicate would have produced), specs with a
    stored record are answered from the cache with ``record.cached`` set,
    and only the remaining unique misses are simulated through ``executor``
    and persisted before returning.

    Pass ``broker`` (an :class:`~repro.experiments.broker.ExperimentBroker`)
    to route the batch through a long-running broker instead — its cache,
    in-flight dedup, and worker pool then apply across concurrent callers,
    not just within this batch; ``executor``/``cache`` are ignored because
    the broker owns its own.
    """
    from repro.experiments.broker import Priority, execute_batch

    if broker is not None:
        return broker.run(list(specs), priority=Priority.BATCH)
    return execute_batch(specs, executor=executor, cache=cache)
