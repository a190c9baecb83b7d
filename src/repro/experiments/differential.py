"""Differential scheme harness: run every scheme on a scenario, check oracles.

This is the correctness backstop the fuzzer (:mod:`repro.experiments.fuzz`)
feeds: every registered scheme runs on each sampled scenario through the
broker layer, and a fixed set of *oracles* — cross-scheme claims and physical
invariants — judges the resulting records.

Oracles come in two severities:

* ``bug`` — a physical invariant of the implementation.  A violation means
  the simulator is wrong: Theorem-2 movement bounds
  (:func:`repro.core.analysis.expected_movements` context, hard per-process
  bound), energy debit reconciliation, message-ledger conservation
  (``sent == delivered + dropped + in_flight``), and
  state-cached-vs-from-scratch byte-identity (the initial-state cache and
  its clones must never change a record).  Bug violations fail the fuzzing
  session (exit 1).
* ``claim`` — a statistical claim of the paper checked on individual seeds:
  *SR moves no more than AR when both converge*.  The paper proves this in
  expectation, not per seed, so per-seed counterexamples are *discoveries*,
  not defects: they are minimized, archived under the falsified catalog, and
  the session still exits 0.

Falsifying scenarios are shrunk with
:func:`~repro.experiments.fuzz.minimize_scenario` (rounds and trials first,
then grid, then structure) and archived as replayable TOML documents under
``src/repro/scenarios/falsified/`` — the falsified catalog rendered into
``SCENARIOS.md`` and replayable with ``python -m repro scenario replay``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import analysis
from repro.experiments.broker import execute_batch
from repro.experiments.fuzz import (
    FuzzSample,
    ScenarioSampler,
    minimize_scenario,
    validate_roundtrip,
)
from repro.experiments.orchestration import (
    RunExecutor,
    RunRecord,
    execute_run,
)
from repro.experiments.persistence import RunCache, record_to_dict
from repro.experiments.state_cache import StateCache
from repro.experiments.registry import available_schemes
from repro.experiments.scenario_files import Scenario, dump_scenario

__all__ = [
    "FalsifiedScenario",
    "FuzzSessionResult",
    "DifferentialContext",
    "DifferentialReport",
    "ORACLES",
    "Oracle",
    "OracleOutcome",
    "run_differential",
    "run_fuzz",
]

#: Tolerance for float comparisons in the energy oracles: the engine's
#: arithmetic is deterministic, but summaries re-sum per-node floats.
_ENERGY_TOLERANCE = 1e-6


# ------------------------------------------------------------------- context
@dataclass(frozen=True)
class DifferentialContext:
    """Everything the oracles may inspect about one differential run.

    Plain data so the oracle test-suite can hand-build doctored contexts
    (miscounted moves, a non-conserved ledger) and prove every oracle fires.

    Attributes
    ----------
    scenario:
        The scenario the harness ran (schemes replaced by the full registry).
    schemes:
        Scheme order of the records within each trial.
    records:
        One record per ``(trial, scheme)`` in
        :meth:`~repro.experiments.scenario_files.Scenario.run_specs` order
        (trials outermost, schemes innermost).
    state_cache_trio:
        ``(baseline, miss, hit)`` executions of the same spec: from scratch
        with state caching disabled, then twice through a fresh
        :class:`~repro.experiments.state_cache.StateCache` (the first run
        builds and stores the initial state, the second simulates on a clone
        of the stored build).  Used by the ``state-cache-identity`` oracle.
    """

    scenario: Scenario
    schemes: Tuple[str, ...]
    records: Tuple[RunRecord, ...]
    state_cache_trio: Optional[Tuple[RunRecord, RunRecord, RunRecord]] = None

    def by_trial(self) -> List[Dict[str, RunRecord]]:
        """The records regrouped as one ``{scheme: record}`` map per trial."""
        per_trial: List[Dict[str, RunRecord]] = []
        width = len(self.schemes)
        for start in range(0, len(self.records), width):
            chunk = self.records[start : start + width]
            per_trial.append(dict(zip(self.schemes, chunk)))
        return per_trial


@dataclass(frozen=True)
class OracleOutcome:
    """Verdict of one oracle on one differential context."""

    name: str
    severity: str
    violations: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether the oracle found no violation."""
        return not self.violations


@dataclass(frozen=True)
class Oracle:
    """One named invariant checked against a :class:`DifferentialContext`.

    ``check`` returns a violation detail string per failure (empty list: the
    oracle passes).  ``severity`` is ``"bug"`` (implementation invariant —
    fails the session) or ``"claim"`` (per-seed check of a statistical paper
    claim — falsifiers are archived discoveries).
    """

    name: str
    severity: str
    check: Callable[[DifferentialContext], List[str]]

    def evaluate(self, context: DifferentialContext) -> OracleOutcome:
        """Run the oracle and wrap its violations in an outcome."""
        return OracleOutcome(
            name=self.name,
            severity=self.severity,
            violations=tuple(self.check(context)),
        )


# ------------------------------------------------------------------- oracles
def check_sr_ar_moves(context: DifferentialContext) -> List[str]:
    """Paper claim: SR moves no more nodes than AR when both converge.

    Theorem 2 proves this *in expectation* — on an individual seed a shallow
    AR repair can beat an unlucky SR cascade — so this oracle is
    claim-severity: its falsifiers quantify how often the per-seed claim
    breaks, they do not indicate a defect.
    """
    violations: List[str] = []
    for trial, records in enumerate(context.by_trial()):
        sr = records.get("SR")
        ar = records.get("AR")
        if sr is None or ar is None:
            continue
        if not (sr.converged and ar.converged):
            continue
        if sr.metrics.total_moves > ar.metrics.total_moves:
            violations.append(
                f"trial {trial}: SR moved {sr.metrics.total_moves} nodes but AR "
                f"moved {ar.metrics.total_moves} (both converged)"
            )
    return violations


def check_theorem2_bound(context: DifferentialContext) -> List[str]:
    """Hard Theorem-2 movement bound: moves <= processes * cycle length.

    One SR replacement process shifts at most one node per Hamilton-path
    cell, so ``total_moves <= processes_initiated * cell_count`` must hold
    for the SR family on every seed — it is the per-run hardening of the
    expectation :func:`repro.core.analysis.expected_movements` computes.
    The oracle is scoped to the Hamilton-cascade schemes (``SR*``): AR moves
    spares directly, and SMART/VF relocate nodes outside any replacement
    process, so the process-count bound says nothing about them.
    """
    violations: List[str] = []
    cells = context.scenario.scenario.cell_count
    for record in context.records:
        metrics = record.metrics
        if not metrics.scheme.startswith("SR"):
            continue
        bound = metrics.processes_initiated * cells
        if metrics.total_moves > bound:
            expected = analysis.expected_movements(
                max(1, metrics.initial_spares), max(1, cells)
            )
            violations.append(
                f"{metrics.scheme}: {metrics.total_moves} moves exceed the "
                f"hard bound {metrics.processes_initiated} processes x "
                f"{cells} cells = {bound} (Theorem-2 expectation per process "
                f"is {expected:.2f})"
            )
    return violations


def check_energy_reconciliation(context: DifferentialContext) -> List[str]:
    """Energy debits must reconcile: no free energy, no lost consumption.

    For every record with an energy summary: consumption stays within the
    installed capacity, the per-round remaining-energy series never
    increases (nodes only spend), and the series' last sample equals the
    summary's remaining total.
    """
    violations: List[str] = []
    for record in context.records:
        summary = record.metrics.energy
        if summary is None:
            continue
        scheme = record.metrics.scheme
        if summary.total_consumed < -_ENERGY_TOLERANCE:
            violations.append(
                f"{scheme}: negative total consumption {summary.total_consumed}"
            )
        if summary.total_consumed > summary.initial_energy_total + _ENERGY_TOLERANCE:
            violations.append(
                f"{scheme}: consumed {summary.total_consumed} J out of only "
                f"{summary.initial_energy_total} J installed"
            )
        series = record.energy_series
        for index in range(1, len(series)):
            if series[index] > series[index - 1] + _ENERGY_TOLERANCE:
                violations.append(
                    f"{scheme}: remaining energy rose from {series[index - 1]} "
                    f"to {series[index]} at round {index} (energy created)"
                )
                break
        if series and abs(series[-1] - summary.total_energy) > _ENERGY_TOLERANCE:
            violations.append(
                f"{scheme}: final series sample {series[-1]} J disagrees with "
                f"the summary's remaining total {summary.total_energy} J"
            )
    return violations


def check_message_conservation(context: DifferentialContext) -> List[str]:
    """Channel ledger conservation: sent == delivered + dropped + in-flight.

    Every run executes over a channel (the perfect default when the scenario
    declares none), so every record's ledger must balance exactly.
    """
    violations: List[str] = []
    for record in context.records:
        metrics = record.metrics
        accounted = (
            metrics.messages_delivered
            + metrics.messages_dropped
            + metrics.messages_in_flight
        )
        if metrics.messages_sent != accounted:
            violations.append(
                f"{metrics.scheme}: sent {metrics.messages_sent} but "
                f"delivered {metrics.messages_delivered} + dropped "
                f"{metrics.messages_dropped} + in-flight "
                f"{metrics.messages_in_flight} = {accounted}"
            )
    return violations


def check_state_cache_identity(context: DifferentialContext) -> List[str]:
    """State-cached runs must be byte-identical to from-scratch runs.

    Compares the canonical persisted form of the cache-off baseline against
    the cache-miss run (simulates from the state it just built and stored)
    and the cache-hit run (simulates from a clone of the stored build).  Any
    divergence means the initial-state cache — or the state clone underneath
    it — changed the simulation, which the determinism contract forbids on
    every scenario the fuzzer can express.
    """
    if context.state_cache_trio is None:
        return []
    baseline, miss, hit = context.state_cache_trio
    base = record_to_dict(dataclasses.replace(baseline, cached=False))
    violations: List[str] = []
    for label, record in (("cache-miss", miss), ("cache-hit", hit)):
        candidate = record_to_dict(dataclasses.replace(record, cached=False))
        if candidate != base:
            differing = sorted(
                key for key in base if base[key] != candidate.get(key)
            )
            violations.append(
                f"{label} run diverged from the cache-off baseline in "
                f"{', '.join(differing)}"
            )
    return violations


#: The oracle registry, in report order.
ORACLES: Tuple[Oracle, ...] = (
    Oracle("sr-ar-moves", "claim", check_sr_ar_moves),
    Oracle("theorem2-bound", "bug", check_theorem2_bound),
    Oracle("energy-reconciliation", "bug", check_energy_reconciliation),
    Oracle("message-conservation", "bug", check_message_conservation),
    Oracle("state-cache-identity", "bug", check_state_cache_identity),
)


# ------------------------------------------------------------------- harness
@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential pass over one scenario."""

    scenario: Scenario
    context: DifferentialContext
    outcomes: Tuple[OracleOutcome, ...]

    @property
    def violated(self) -> Tuple[OracleOutcome, ...]:
        """Outcomes with at least one violation, in report order."""
        return tuple(outcome for outcome in self.outcomes if not outcome.passed)

    @property
    def bug_violations(self) -> Tuple[OracleOutcome, ...]:
        """Violated bug-severity outcomes (these fail the session)."""
        return tuple(o for o in self.violated if o.severity == "bug")

    @property
    def claim_violations(self) -> Tuple[OracleOutcome, ...]:
        """Violated claim-severity outcomes (archived discoveries)."""
        return tuple(o for o in self.violated if o.severity == "claim")

    @property
    def passed(self) -> bool:
        """Whether every oracle passed."""
        return not self.violated


def run_differential(
    scenario: Scenario,
    executor: Optional[RunExecutor] = None,
    cache: Optional[RunCache] = None,
    broker: Optional[object] = None,
    oracles: Sequence[Oracle] = ORACLES,
) -> DifferentialReport:
    """Run every registered scheme on ``scenario`` and evaluate the oracles.

    The scenario's scheme list is replaced by the full registry so every
    scheme sees the identical deployment; records flow through the broker
    layer (``broker`` when given, otherwise the one-shot
    :func:`~repro.experiments.broker.execute_batch` admission over
    ``executor``/``cache``).  The state-cache reruns deliberately bypass
    broker and run cache: a cached record would silently replace the
    execution under test.
    """
    schemes = available_schemes()
    harness_scenario = dataclasses.replace(scenario, schemes=schemes)
    specs = harness_scenario.run_specs()
    if broker is not None:
        records = broker.run(specs)
    else:
        records = execute_batch(specs, executor=executor, cache=cache)

    state_cache_trio: Optional[Tuple[RunRecord, RunRecord, RunRecord]] = None
    sr_spec = next((spec for spec in specs if spec.scheme == "SR"), None)
    if sr_spec is not None:
        # From-scratch ground truth: no state cache, so nothing under test
        # can leak into the reference.
        baseline = execute_run(sr_spec, state_cache=None)
        # State-cache rerun: a private cache so the first run exercises
        # build+store and the second a clone of the stored build.
        private_cache = StateCache(capacity=1)
        miss = execute_run(sr_spec, state_cache=private_cache)
        hit = execute_run(sr_spec, state_cache=private_cache)
        state_cache_trio = (baseline, miss, hit)

    context = DifferentialContext(
        scenario=harness_scenario,
        schemes=schemes,
        records=tuple(records),
        state_cache_trio=state_cache_trio,
    )
    outcomes = tuple(oracle.evaluate(context) for oracle in oracles)
    return DifferentialReport(
        scenario=scenario, context=context, outcomes=outcomes
    )


# -------------------------------------------------------------- fuzz session
@dataclass(frozen=True)
class FalsifiedScenario:
    """One archived falsifier: the minimized scenario plus its verdict."""

    oracle: str
    severity: str
    sample_index: int
    scenario: Scenario
    violations: Tuple[str, ...]
    path: Optional[Path] = None


@dataclass
class FuzzSessionResult:
    """Tally of one fuzzing session (``scenario fuzz``)."""

    seed: int
    samples_run: int = 0
    reports: List[DifferentialReport] = field(default_factory=list)
    falsifiers: List[FalsifiedScenario] = field(default_factory=list)

    @property
    def bug_falsifiers(self) -> List[FalsifiedScenario]:
        """Falsifiers of bug-severity oracles (these fail the session)."""
        return [f for f in self.falsifiers if f.severity == "bug"]

    @property
    def claim_falsifiers(self) -> List[FalsifiedScenario]:
        """Falsifiers of claim-severity oracles (archived discoveries)."""
        return [f for f in self.falsifiers if f.severity == "claim"]


def _falsifier_name(oracle: str, seed: int, index: int) -> str:
    """Deterministic archive name of one falsifier (token, no whitespace)."""
    return f"falsified-{oracle}-s{seed}-i{index}"


def _archive_falsifier(
    falsifier: FalsifiedScenario, archive_dir: Path, seed: int
) -> FalsifiedScenario:
    """Write the minimized falsifier as a replayable TOML document."""
    name = _falsifier_name(falsifier.oracle, seed, falsifier.sample_index)
    detail = falsifier.violations[0] if falsifier.violations else ""
    document = dataclasses.replace(
        falsifier.scenario,
        name=name,
        description=(
            f"Minimized falsifier of the {falsifier.oracle} oracle "
            f"({falsifier.severity} severity), found by scenario fuzz "
            f"--seed {seed} at sample {falsifier.sample_index}."
        ),
        stresses=detail,
        expected=(
            f"scenario replay {name} reproduces the {falsifier.oracle} violation"
        ),
    )
    archive_dir.mkdir(parents=True, exist_ok=True)
    path = dump_scenario(document, archive_dir / f"{name}.toml")
    return dataclasses.replace(falsifier, scenario=document, path=path)


def run_fuzz(
    seed: int,
    samples: Optional[int] = None,
    minutes: Optional[float] = None,
    archive_dir: Optional[Path] = None,
    executor: Optional[RunExecutor] = None,
    cache: Optional[RunCache] = None,
    minimize_budget: int = 32,
    log: Callable[[str], None] = lambda message: None,
) -> FuzzSessionResult:
    """One fuzzing session: sample, validate, run differential, archive.

    Stops after ``samples`` documents (deterministic mode: equal seeds give
    equal falsifier sets, which is what CI pins) or when the ``minutes`` time
    budget runs out (exploratory mode; at least one sample always runs).
    Every violated oracle yields a falsifier: the sample is shrunk with
    :func:`~repro.experiments.fuzz.minimize_scenario` under the predicate
    "the same oracle still fires", then archived as TOML under
    ``archive_dir`` when one is given.
    """
    if samples is None and minutes is None:
        raise ValueError("run_fuzz needs a samples count or a minutes budget")
    sampler = ScenarioSampler(seed)
    result = FuzzSessionResult(seed=seed)
    deadline = (
        time.monotonic() + minutes * 60.0 if minutes is not None else None
    )
    index = 0
    while True:
        if samples is not None and index >= samples:
            break
        if samples is None and index > 0 and time.monotonic() >= deadline:
            break
        sample = sampler.sample(index)
        validate_roundtrip(sample.scenario)
        report = run_differential(
            sample.scenario, executor=executor, cache=cache
        )
        result.samples_run += 1
        result.reports.append(report)
        for outcome in report.violated:
            log(
                f"sample {index}: {outcome.severity} oracle {outcome.name} "
                f"violated — {outcome.violations[0]}"
            )
            falsifier = _minimize_falsifier(
                sample, outcome, executor=executor, cache=cache,
                budget=minimize_budget,
            )
            if archive_dir is not None:
                falsifier = _archive_falsifier(falsifier, archive_dir, seed)
                log(f"sample {index}: archived {falsifier.path}")
            result.falsifiers.append(falsifier)
        index += 1
    return result


def _minimize_falsifier(
    sample: FuzzSample,
    outcome: OracleOutcome,
    executor: Optional[RunExecutor],
    cache: Optional[RunCache],
    budget: int,
) -> FalsifiedScenario:
    """Shrink the sample under "the same oracle still fires" and wrap it."""
    oracle = next(o for o in ORACLES if o.name == outcome.name)

    def still_fails(candidate: Scenario) -> bool:
        """Whether the falsified oracle still fires on the shrunk candidate."""
        report = run_differential(
            candidate, executor=executor, cache=cache, oracles=(oracle,)
        )
        return not report.outcomes[0].passed

    minimized = minimize_scenario(
        sample.scenario, still_fails, max_evaluations=budget
    )
    final = run_differential(
        minimized, executor=executor, cache=cache, oracles=(oracle,)
    )
    return FalsifiedScenario(
        oracle=outcome.name,
        severity=outcome.severity,
        sample_index=sample.index,
        scenario=minimized,
        violations=final.outcomes[0].violations or outcome.violations,
    )
