"""Lifetime / depletion workloads: run schemes until the network dies.

The paper's Section 1 motivates coverage holes with nodes that "deplete their
battery power"; this driver turns that motivation into a measurable workload.
Every node starts with a (jittered) battery, the engine drains an idle cost
per round and disables nodes at the depletion threshold, and the recovery
scheme under test must keep repairing the holes that depletion opens — until
some hole becomes unrepairable (the run stalls), the network dies, or the
round bound hits.

The headline metric is the **lifetime**: the number of rounds a scheme kept
the surveillance area covered before the first unrepairable hole.  Schemes
that spend less movement energy per repair (SR versus AR) and schemes that
spread the drain across spares (the ``*-energy`` variants with ``max_energy``
spare selection) live longer on the same battery budget.

Everything runs through the ordinary orchestration layer —
:class:`~repro.experiments.orchestration.RunSpec` cells with a frozen
:class:`~repro.network.energy.EnergyModel` attached — so lifetime sweeps are
cacheable and serial/parallel byte-identical like every other experiment.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.experiments.broker import execute_many
from repro.experiments.orchestration import (
    RunExecutor,
    RunRecord,
    RunSpec,
    SerialExecutor,
    expand_specs,
    make_executor,
)
from repro.experiments.persistence import RunCache, record_to_dict
from repro.experiments.results import ExperimentResult, average_dicts
from repro.network.energy import EnergyModel
from repro.sim.rng import spawn_seeds
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "DEFAULT_LIFETIME_SCHEMES",
    "LIFETIME_CONFIG",
    "LIFETIME_ENERGY",
    "SMOKE_CONFIG",
    "SMOKE_ENERGY",
    "build_lifetime_specs",
    "run_lifetime_experiment",
    "run_lifetime_smoke",
]

#: Schemes the lifetime comparison runs by default: the paper's pair plus
#: their energy-aware (max_energy spare selection) variants.
DEFAULT_LIFETIME_SCHEMES = ("SR", "SR-energy", "AR", "AR-energy")

#: Default lifetime deployment: small enough that a run dies within the round
#: bound in well under a second, dense enough that depletion holes are
#: repairable for a long stretch.  Battery jitter staggers depletion so holes
#: open gradually instead of in one synchronized wave.
LIFETIME_CONFIG = ScenarioConfig(
    columns=8,
    rows=8,
    communication_range=10.0,
    deployed_count=300,
    spare_surplus=30,
    seed=7,
    initial_energy=40.0,
    initial_energy_jitter=0.5,
)

#: Default physics: a quarter joule of idle/sensing drain per round, standard
#: move/message rates, depletion at an empty battery.
LIFETIME_ENERGY = EnergyModel(idle_cost_per_round=0.25)

#: Tiny fixed workload for the CI smoke gate (see :func:`run_lifetime_smoke`).
#: The per-cell deployment starts fully covered with three spares per cell, so
#: every hole the run ever sees is opened by engine-driven depletion — exactly
#: the coupling the gate is meant to protect.
SMOKE_CONFIG = ScenarioConfig(
    columns=6,
    rows=6,
    communication_range=10.0,
    deployed_count=144,
    seed=7,
    initial_energy=30.0,
    initial_energy_jitter=0.5,
    deployment="per_cell",
)

SMOKE_ENERGY = EnergyModel(idle_cost_per_round=0.5)


def build_lifetime_specs(
    config: ScenarioConfig,
    schemes: Sequence[str] = DEFAULT_LIFETIME_SCHEMES,
    energy: EnergyModel = LIFETIME_ENERGY,
    trials: int = 1,
    max_rounds: int = 1500,
) -> List[RunSpec]:
    """The lifetime sweep's run specs: the trials x schemes of :func:`expand_specs`.

    Every scheme in a trial gets the *same* scenario config (same deployment,
    thinning, and battery-jitter seed), so all schemes start from identical
    networks and battery placements — the comparison is purely about how long
    each scheme keeps that network alive.  Every spec runs to exhaustion,
    which :class:`~repro.experiments.orchestration.RunSpec` refuses without
    idle drain.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if config.initial_energy is None:
        raise ValueError(
            "lifetime scenarios need an explicit initial_energy; an unbounded "
            "default battery never depletes within a sensible round budget"
        )
    return expand_specs(
        config,
        schemes,
        spawn_seeds(config.seed, trials, label="lifetime"),
        max_rounds=max_rounds,
        energy=energy,
        run_to_exhaustion=True,
    )


def run_lifetime_experiment(
    config: Optional[ScenarioConfig] = None,
    schemes: Sequence[str] = DEFAULT_LIFETIME_SCHEMES,
    energy: Optional[EnergyModel] = None,
    trials: int = 1,
    max_rounds: int = 1500,
    executor: Optional[RunExecutor] = None,
    cache: Optional[RunCache] = None,
) -> ExperimentResult:
    """Run every scheme to network death and tabulate lifetimes.

    The resulting table has one row per scheme (averaged over trials) with::

        scheme, lifetime_rounds, stalled, exhausted, depleted_nodes,
        final_holes, moves, distance_m, energy_consumed, mean_residual_energy

    ``lifetime_rounds`` is the rounds executed until the first unrepairable
    hole (or the bound); ``stalled``/``exhausted`` are the fractions of trials
    that ended in each way (a run can be both when the bound hits with holes).
    """
    config = config if config is not None else LIFETIME_CONFIG
    energy = energy if energy is not None else LIFETIME_ENERGY
    specs = build_lifetime_specs(
        config,
        schemes=schemes,
        energy=energy,
        trials=trials,
        max_rounds=max_rounds,
    )
    records = execute_many(specs, executor=executor, cache=cache)

    result = ExperimentResult(
        name=f"lifetime comparison on {config.columns}x{config.rows} grid",
        columns=[
            "scheme",
            "lifetime_rounds",
            "stalled",
            "exhausted",
            "depleted_nodes",
            "final_holes",
            "moves",
            "distance_m",
            "energy_consumed",
            "mean_residual_energy",
        ],
        description=(
            f"run-until-network-death, trials={trials}, "
            f"idle={energy.idle_cost_per_round} J/round, "
            f"battery={config.initial_energy} J "
            f"(-{config.initial_energy_jitter:.0%} jitter)"
        ),
    )

    # Records come back in spec order: schemes nested inside each trial.
    per_scheme: Dict[str, List[Dict[str, float]]] = {scheme: [] for scheme in schemes}
    record_iter = iter(records)
    for _ in range(trials):
        for scheme in schemes:
            record: RunRecord = next(record_iter)
            metrics = record.metrics
            summary = metrics.energy
            per_scheme[scheme].append(
                {
                    "scheme": scheme,
                    "lifetime_rounds": record.rounds_executed,
                    "stalled": 1.0 if record.stalled else 0.0,
                    "exhausted": 1.0 if record.exhausted else 0.0,
                    "depleted_nodes": summary.depleted_nodes if summary else 0,
                    "final_holes": metrics.final_holes,
                    "moves": metrics.total_moves,
                    "distance_m": metrics.total_distance,
                    "energy_consumed": summary.total_consumed if summary else 0.0,
                    "mean_residual_energy": summary.mean_energy if summary else 0.0,
                }
            )
    for scheme in schemes:
        result.add_row(**average_dicts(per_scheme[scheme]))
    return result


# ------------------------------------------------------------------ smoke gate
def run_lifetime_smoke(jobs: int = 2) -> List[str]:
    """CI gate for the energy round loop; returns failure messages (empty = OK).

    Executes the fixed :data:`SMOKE_CONFIG` workload three times — twice
    serially and once across ``jobs`` worker processes — and checks that

    * the three batches of records are byte-identical once serialized
      (depletion determinism, serial/parallel equivalence), and
    * every record shows the energy physics actually coupled to the round
      loop: a non-empty, decreasing per-round energy series, engine-depleted
      nodes, and repair movement responding to the depletion holes.
    """
    specs = build_lifetime_specs(
        SMOKE_CONFIG, schemes=("SR", "AR"), energy=SMOKE_ENERGY, trials=1, max_rounds=400
    )

    def canonical(records: Sequence[RunRecord]) -> str:
        """Canonical JSON form of the records, for byte-identity comparison."""
        return json.dumps([record_to_dict(r) for r in records], sort_keys=True)

    serial = execute_many(specs, executor=SerialExecutor())
    repeat = execute_many(specs, executor=SerialExecutor())
    with make_executor(max(2, jobs)) as executor:
        parallel = execute_many(specs, executor=executor)

    failures: List[str] = []
    if canonical(serial) != canonical(repeat):
        failures.append("serial re-execution is not deterministic")
    if canonical(serial) != canonical(parallel):
        failures.append("parallel records differ from serial records")
    for record in serial:
        scheme = record.spec.scheme
        if not record.energy_series:
            failures.append(f"{scheme}: empty per-round energy series")
            continue
        if record.energy_series[-1] >= record.energy_series[0]:
            failures.append(f"{scheme}: energy series does not decrease")
        summary = record.metrics.energy
        if summary is None or summary.depleted_nodes == 0:
            failures.append(f"{scheme}: engine depleted no node")
        if record.metrics.total_moves == 0:
            failures.append(f"{scheme}: no repair movement despite depletion holes")
        if record.metrics.rounds != len(record.energy_series):
            failures.append(f"{scheme}: energy series length != rounds executed")
    return failures
