"""Run orchestration: declarative run specs, pure execution, pluggable executors.

The paper's whole evaluation (Figures 6-8) is one embarrassingly parallel
sweep: every scheme runs on identical scenario builds across a range of spare
counts ``N`` and seeds.  This module decouples *describing* such a cell from
*executing* it:

* :class:`RunSpec` — a frozen, picklable description of one simulation run
  (scenario config + scheme name + controller seed + engine knobs).  Equal
  specs describe byte-identical runs, which is what makes result caching and
  cross-process execution sound.  It is the one place a run is defaulted
  and checked, field by field and across fields.
* :func:`expand_specs` — the one layout of trials x schemes into specs,
  used by the Section-5 sweep, the lifetime runs, scenario files and the CLI.
* :func:`build_initial_state` / :func:`simulate_from` — the two pure halves
  of a run: construction of the initial state (the shared prefix of every
  spec over one scenario, served through a
  :class:`~repro.experiments.state_cache.StateCache`) and the simulation
  proper.  :func:`execute_run` is their composition and stays the pure entry
  point ``RunSpec -> RunRecord``.
* :class:`RunExecutor` — the strategy interface for executing a batch of
  specs.  :class:`SerialExecutor` and :class:`ParallelExecutor` run the same
  loop, ``execute_run`` per spec against the executing process's default
  state cache, and return records in spec order, so identical seeds give
  identical results regardless of worker count.  The parallel executor
  keeps its worker pool alive across ``run_all`` calls and sends specs
  sharing a scenario to one worker as one task.  The third executor is the
  long-running :class:`~repro.experiments.broker.ExperimentBroker`, and
  :func:`~repro.experiments.broker.execute_many`, next to it, is the one
  batch entry point: cache first, each distinct spec once, misses through
  any of the three.

Determinism contract: everything stochastic inside a run is derived from
``spec.scenario.seed`` (deployment + thinning) and ``spec.seed`` (controller
stream) via :func:`repro.sim.rng.derive_rng`, so ``execute_run`` is a pure
function of its spec — with or without a state cache, serial or parallel,
the records are byte-identical (the golden seed-identity suite and the
``state-cache-identity`` differential oracle enforce this).
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import (
    BUILTIN_FACTORIES,
    SCHEME_REGISTRY,
    SchemeFactory,
    available_schemes,
    make_controller,
)
from repro.network.channel import DEFAULT_CHANNEL, ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent, compile_failure_schedule, thaw_params
from repro.network.state import WsnState
from repro.sim.engine import (
    DEFAULT_IDLE_ROUND_LIMIT,
    DEFAULT_ROUNDS_PER_CELL,
    RoundBasedEngine,
)
from repro.sim.metrics import RunMetrics
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state
from repro.validation import checked_int
from repro.experiments.state_cache import (
    StateCache,
    default_state_cache,
    set_default_state_cache,
)

#: Sentinel meaning "use the process-wide default state cache" (which may
#: itself be disabled via ``set_default_state_cache(None)``); distinct from
#: an explicit ``None``, which bypasses state caching outright.
USE_DEFAULT_STATE_CACHE = object()


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
        """Check every field and the rules between them; fold the default channel to ``None``.

        ``seed``, ``max_rounds`` and ``idle_round_limit`` must be integers
        (numpy integers are stored as ``int``), the round bounds at least 1,
        and ``run_to_exhaustion`` a ``bool``: ``1`` would compare equal to
        ``True`` but give the spec another run key.  A run must be able to
        do what it asks: every failure and a jammed channel's blackout start
        below the round bound and lie on the grid, and exhaustion needs idle
        drain.  ``--channel perfect`` and an omitted channel describe
        byte-identical runs; folding them onto one canonical form keeps spec
        equality — and therefore the run-cache key — semantic rather than
        syntactic.
        """
        object.__setattr__(self, "seed", checked_int(self.seed, "seed"))
        if self.max_rounds is not None:
            object.__setattr__(
                self, "max_rounds", checked_int(self.max_rounds, "max_rounds", minimum=1)
            )
        object.__setattr__(
            self,
            "idle_round_limit",
            checked_int(self.idle_round_limit, "idle_round_limit", minimum=1),
        )
        if not isinstance(self.run_to_exhaustion, bool):
            raise ValueError(
                f"run_to_exhaustion must be true or false, got {self.run_to_exhaustion!r}"
            )
        if self.run_to_exhaustion and (
            self.energy is None or self.energy.idle_cost_per_round <= 0
        ):
            raise ValueError(
                "run_to_exhaustion requires an energy model with a positive "
                "idle_cost_per_round (without idle drain the network never dies)"
            )
        if self.channel == DEFAULT_CHANNEL:
            object.__setattr__(self, "channel", None)
        if self.failures or self.channel is not None:
            self._check_events_can_act()

    def _check_events_can_act(self) -> None:
        """Refuse a failure or jam that starts past the round bound or misses the grid.

        A ``region_jamming`` failure misses the grid when its box or disc lies
        wholly outside the surveillance area: no node can be inside it.
        """
        columns, rows = self.scenario.columns, self.scenario.rows
        bound = self.max_rounds or DEFAULT_ROUNDS_PER_CELL * self.scenario.cell_count
        bound_label = (
            f"max_rounds is {bound}"
            if self.max_rounds
            else f"the engine's default bound is {bound} rounds"
        )
        for index, event in enumerate(self.failures):
            if event.round >= bound:
                raise ValueError(
                    f"failures[{index}]: round {event.round} never fires: {bound_label}"
                )
            params = thaw_params(event.params)
            if event.kind == "region_jamming":
                area = self.scenario.make_grid().bounds
                if not event.build().meets(area):
                    region = (
                        f"box {list(params['box'])}"
                        if "box" in params
                        else f"disc at {list(params['center'])} with radius {params['radius']}"
                    )
                    raise ValueError(
                        f"failures[{index}]: region_jamming {region} lies wholly "
                        f"outside the surveillance area [{area.min_x:g}, "
                        f"{area.min_y:g}, {area.max_x:g}, {area.max_y:g}]"
                    )
            elif event.kind == "targeted_cells":
                for x, y in params["cells"]:
                    if not (0 <= x < columns and 0 <= y < rows):
                        raise ValueError(
                            f"failures[{index}]: cell [{x}, {y}] is outside the "
                            f"{columns}x{rows} grid"
                        )
        if self.channel is not None and self.channel.kind == "jammed":
            params = thaw_params(self.channel.params)
            if params["from_round"] >= bound:
                raise ValueError(
                    f"channel: blackout from round {params['from_round']} never "
                    f"fires: {bound_label}"
                )
            x0, y0, x1, y1 = params["region"]
            if x0 >= columns or y0 >= rows or x1 < 0 or y1 < 0:
                raise ValueError(
                    f"channel: region {list(params['region'])} is outside the "
                    f"{columns}x{rows} grid"
                )

    def controller_rng_label(self) -> str:
        """Label of the controller random stream (kept stable for reproducibility)."""
        return f"{self.scheme}-controller"


def expand_specs(
    config: ScenarioConfig,
    schemes: Sequence[str],
    trial_seeds: Sequence[int],
    **fields: object,
) -> List[RunSpec]:
    """One spec per (trial, scheme): trials outermost, schemes innermost.

    Each trial runs ``config`` reseeded with its trial seed, which is also
    the controller seed, so every scheme of a trial repairs the same build.
    Specs sharing a scenario are consecutive, which the executors' scenario
    grouping and the initial-state cache rely on to build each trial's
    network once for the whole scheme set.  ``fields`` are the remaining
    :class:`RunSpec` fields, the same for every spec.  An unregistered scheme
    raises ``KeyError`` before any spec is built.
    """
    unknown = [scheme for scheme in schemes if scheme not in SCHEME_REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown schemes {unknown}; available: {list(available_schemes())}"
        )
    trials = [(seed, config.with_seed(seed)) for seed in trial_seeds]
    return [
        RunSpec(scenario=scenario, scheme=scheme, seed=seed, **fields)
        for seed, scenario in trials
        for scheme in schemes
    ]


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
    #: Whether the record was read back from a run cache.  Execution
    #: metadata set only by :class:`~repro.experiments.persistence.RunCache`:
    #: neither stored nor compared, so a cached record equals a fresh one.
    cached: bool = field(default=False, compare=False)

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
    the build is deterministic and a clone is byte-equivalent to a rebuild.
    """
    cache = (
        default_state_cache() if state_cache is USE_DEFAULT_STATE_CACHE else state_cache
    )
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
        energy_series=tuple(result.energy_series),
    )


def execute_run(
    spec: RunSpec, state_cache: object = USE_DEFAULT_STATE_CACHE
) -> RunRecord:
    """Build the scenario, run the scheme, and return the resulting record.

    This is the single choke point every sweep cell goes through — serial,
    parallel, and cached execution all bottom out here — and it is the
    composition of :func:`build_initial_state` and :func:`simulate_from`.
    It must stay a pure, top-level function: worker processes unpickle and
    call it by reference.  ``state_cache`` selects the initial-state cache:
    the default sentinel consults the process-wide cache, ``None`` forces a
    from-scratch build (the reference every cached path is checked
    against), and an explicit :class:`StateCache` is used as-is.
    """
    return simulate_from(build_initial_state(spec, state_cache), spec)


# ------------------------------------------------------------------ executors
def _run_serially(specs: Sequence[RunSpec]) -> List[RunRecord]:
    """Execute specs in order against this process's default state cache.

    The one execution loop: the serial executor runs it in the caller's
    process, and each parallel worker runs it on one scenario group.
    """
    return [execute_run(spec) for spec in specs]


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


def _init_worker(overrides: Dict[str, SchemeFactory]) -> None:
    """Worker-process initializer: replay post-import registrations.

    It also installs a fresh default :class:`StateCache`, so a forked worker
    never starts from a copy of the parent's cache or its locks.
    """
    SCHEME_REGISTRY.update(overrides)
    set_default_state_cache(StateCache())


def _group_by_scenario(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Split specs into maximal runs of consecutive equal scenarios.

    :func:`expand_specs` puts schemes innermost, so grouping consecutive
    equal scenarios captures the N-schemes-x-T-trials duplication without
    reordering anything.  One group is one worker task, so its scenario is
    built once, by one worker.
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
    assert that a warm cache causes zero re-executions).  Every executor is a
    context manager whose exit calls :meth:`close`.
    """

    #: Total number of specs this executor has actually simulated.
    runs_executed: int = 0

    @abstractmethod
    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec and return their records in spec order."""

    def close(self) -> None:
        """Release the executor's workers (nothing to release by default)."""

    def __enter__(self) -> "RunExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()


class SerialExecutor(RunExecutor):
    """Execute specs one after another in the current process."""

    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec in order in the current process."""
        records = _run_serially(specs)
        self.runs_executed += len(records)
        return records


class ParallelExecutor(RunExecutor):
    """Execute specs across worker processes with deterministic ordering.

    ``ProcessPoolExecutor.map`` preserves input order, so the records come
    back exactly as :class:`SerialExecutor` would produce them; only
    wall-clock time changes with ``jobs``.  Specs and records cross the
    process boundary; states and controllers never do.

    * **Persistent pool** — the worker pool survives across ``run_all``
      calls, so repeated batches pay interpreter start-up once.  The pool is
      rebuilt when the picklable scheme-registry overrides change, and after
      a worker died (``BrokenProcessPool``).  Call :meth:`close` (or use the
      executor as a context manager) to reap the workers.
    * **Scenario grouping** — consecutive specs sharing a scenario travel as
      one worker task, which runs :func:`_run_serially` against the worker's
      own default state cache: one build per group, and a later batch over
      the same scenario may find it warm.
    """

    def __init__(self, jobs: int) -> None:
        super().__init__()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_overrides: Optional[Dict[str, SchemeFactory]] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, (re-)created only when needed.

        A pool is invalidated when the picklable scheme-registry overrides
        change: workers installed the overrides at start-up, so a new or
        shadowed registration after that must reach fresh workers.
        """
        overrides = _registry_overrides()
        if self._pool is not None and overrides != self._pool_overrides:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
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

    def run_all(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute the specs across worker processes; records in spec order."""
        specs = list(specs)
        if self.jobs == 1 or len(specs) <= 1:
            records = _run_serially(specs)
        else:
            pool = self._ensure_pool()
            try:
                grouped = list(pool.map(_run_serially, _group_by_scenario(specs)))
            except BrokenProcessPool:
                # A dead worker breaks the whole pool: this batch reports the
                # error, and the next one starts fresh workers.
                self.close()
                raise
            records = [record for group in grouped for record in group]
        self.runs_executed += len(records)
        return records


def make_executor(jobs: Optional[int] = None) -> RunExecutor:
    """Executor for ``jobs`` worker processes (``None`` or 1: serial)."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)
