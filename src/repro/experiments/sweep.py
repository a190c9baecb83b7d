"""Scheme comparison sweeps over the paper's Section-5 workload.

The experimental figures (6, 7, 8) all come from the same sweep: for every
value of ``N`` (the spare surplus), build the scenario, run each scheme on an
identical scenario build, and record its
:class:`~repro.sim.metrics.RunMetrics`.  :func:`run_comparison` implements
that sweep once so the three figures (and the extension benchmarks) can share
the data.

The sweep is expressed as a batch of
:class:`~repro.experiments.orchestration.RunSpec` cells run by
:func:`~repro.experiments.broker.execute_many` through a pluggable
:class:`~repro.experiments.orchestration.RunExecutor` — pass
``executor=ParallelExecutor(jobs)`` to spread the cells over worker processes
(results are identical to serial execution for the same seeds), an
:class:`~repro.experiments.broker.ExperimentBroker` to share a long-running
service's cache and in-flight runs, and ``cache=RunCache(dir)`` to skip cells
whose records were already persisted by an earlier sweep.

Scheme names are resolved through :mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.broker import execute_many
from repro.experiments.orchestration import (
    RunExecutor,
    RunRecord,
    RunSpec,
    expand_specs,
)
from repro.experiments.persistence import RunCache
from repro.experiments.results import ExperimentResult, average_dicts
from repro.sim.rng import spawn_seeds
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "build_comparison_specs",
    "run_comparison",
]


def build_comparison_specs(
    config: ScenarioConfig,
    spare_values: Sequence[int],
    schemes: Sequence[str] = ("SR", "AR"),
    trials: int = 1,
    max_rounds: Optional[int] = None,
) -> List[RunSpec]:
    """The sweep's run specs: per ``N``, the trials x schemes of :func:`expand_specs`.

    For each ``N`` and each trial every scheme gets a spec with the *same*
    scenario config (same deployment and thinning seed), so all schemes
    repair exactly the same holes with exactly the same spare placement —
    the comparison the paper performs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    specs: List[RunSpec] = []
    for spare_surplus in spare_values:
        specs.extend(
            expand_specs(
                config.with_spare_surplus(spare_surplus),
                schemes,
                spawn_seeds(config.seed, trials, label=f"N={spare_surplus}"),
                max_rounds=max_rounds,
            )
        )
    return specs


def run_comparison(
    config: ScenarioConfig,
    spare_values: Sequence[int],
    schemes: Sequence[str] = ("SR", "AR"),
    trials: int = 1,
    max_rounds: Optional[int] = None,
    executor: Optional[RunExecutor] = None,
    cache: Optional[RunCache] = None,
) -> ExperimentResult:
    """Sweep ``N`` over ``spare_values`` and run every scheme on identical scenarios.

    Metrics are averaged over trials.  The resulting table has one row per
    ``N`` with the columns::

        N, holes, spares, enabled,
        <scheme>_processes, <scheme>_success_rate, <scheme>_moves,
        <scheme>_distance, <scheme>_failed, <scheme>_final_holes   (per scheme)

    ``executor`` selects the execution strategy (default: serial in-process;
    an :class:`~repro.experiments.broker.ExperimentBroker` adds its shared
    cache and cross-caller in-flight dedup); ``cache`` reuses persisted
    records for previously executed specs.
    """
    specs = build_comparison_specs(
        config, spare_values, schemes=schemes, trials=trials, max_rounds=max_rounds
    )
    records = execute_many(specs, executor=executor, cache=cache)

    columns: List[str] = ["N", "holes", "spares", "enabled"]
    for scheme in schemes:
        columns.extend(
            [
                f"{scheme}_processes",
                f"{scheme}_success_rate",
                f"{scheme}_moves",
                f"{scheme}_distance",
                f"{scheme}_failed",
                f"{scheme}_final_holes",
            ]
        )
    result = ExperimentResult(
        name=f"scheme comparison on {config.columns}x{config.rows} grid",
        columns=columns,
        description=f"schemes={list(schemes)}, trials={trials}, deployed={config.deployed_count}",
    )

    # Records come back in spec order: trials nested inside each N, schemes
    # nested inside each trial.  Reassemble the per-(N, trial) rows and
    # average the trials, exactly as the sequential sweep used to.
    record_iter = iter(records)
    for spare_surplus in spare_values:
        trial_rows: List[Dict[str, float]] = []
        for _ in range(trials):
            row: Dict[str, float] = {"N": spare_surplus}
            for scheme in schemes:
                record: RunRecord = next(record_iter)
                metrics = record.metrics
                # Scenario-level statistics are identical for every scheme in
                # the trial (same scenario build), so take them from the
                # first record's pre-run snapshot.
                row.setdefault("holes", metrics.initial_holes)
                row.setdefault("spares", metrics.initial_spares)
                row.setdefault("enabled", metrics.initial_enabled)
                row[f"{scheme}_processes"] = metrics.processes_initiated
                row[f"{scheme}_success_rate"] = metrics.success_rate
                row[f"{scheme}_moves"] = metrics.total_moves
                row[f"{scheme}_distance"] = metrics.total_distance
                row[f"{scheme}_failed"] = metrics.processes_failed
                row[f"{scheme}_final_holes"] = metrics.final_holes
            trial_rows.append(row)
        result.add_row(**average_dicts(trial_rows))
    return result
