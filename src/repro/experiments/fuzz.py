"""Seeded scenario fuzzer: sample valid documents from the declarative space.

The 11 curated catalog scenarios cover a vanishing fraction of the space the
declarative layer can describe — deployment x failure schedule x energy x
channel x scheme.  This module samples that space
*constraint-aware*: every document a :class:`ScenarioSampler` produces passes
:func:`~repro.experiments.scenario_files.load_scenario` validation and
round-trips byte-stably through
:func:`~repro.experiments.scenario_files.dumps_scenario`, so each sample is a
legitimate workload any user could have written by hand.

Three pieces:

* :class:`ScenarioSampler` — the seeded generator.  ``sample(index)`` is a
  pure function of ``(seed, index)``: each sample derives its own
  ``random.Random(f"fuzz-{seed}-{index}")`` stream (string seeding hashes via
  SHA-512, stable across Python versions and platforms), so sample ``i`` is
  reproducible without generating samples ``0..i-1``.
* :func:`validate_roundtrip` — the validity gate each sample must clear:
  ``dumps -> loads -> dumps`` byte-stability, re-validation of the parsed
  document, and cache-key-stable compiled :class:`RunSpec` cells.
* :func:`shrink_candidates` / :func:`minimize_scenario` — greedy falsifier
  minimization.  Candidates are ordered cheapest-first (rounds, trials, grid,
  then structural deletions), and every candidate is itself re-validated, so
  a minimized falsifier is still a loadable scenario document.

The differential harness (:mod:`repro.experiments.differential`) consumes the
samples; ``python -m repro scenario fuzz`` drives both.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.experiments.persistence import run_key
from repro.experiments.registry import available_schemes
from repro.experiments.scenario_files import (
    Scenario,
    ScenarioValidationError,
    dumps_scenario,
    loads_scenario,
)
from repro.network.channel import ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent
from repro.sim.scenario import HEAD_POLICIES, ScenarioConfig

__all__ = [
    "FuzzSample",
    "FuzzValidationError",
    "ScenarioSampler",
    "minimize_scenario",
    "shrink_candidates",
    "validate_roundtrip",
]

#: Grid dimensions the sampler draws from.  Every pair has a Hamilton cycle
#: (even cell count -> serpentine; odd x odd -> the dual-path construction)
#: and stays small enough that a full differential pass over all registered
#: schemes completes in milliseconds.
_GRID_SIDES = (2, 3, 4, 5, 6, 7, 8)

#: Hard cap the sampler puts on ``max_rounds`` so no sampled run is unbounded.
_MAX_ROUNDS_RANGE = (20, 120)


class FuzzValidationError(AssertionError):
    """A sampled scenario failed the validity gate it is guaranteed to pass.

    This firing is itself a finding: the sampler and the document validator
    disagree about what a valid scenario is.
    """

    def __init__(self, where: str, message: str) -> None:
        self.where = where
        super().__init__(f"fuzz validity gate failed at {where}: {message}")


@dataclass(frozen=True)
class FuzzSample:
    """One sampled scenario and where it came from.

    Attributes
    ----------
    index:
        Sample index within the fuzzing session (``sample(index)``).
    seed:
        Session seed of the sampler that produced this sample.
    scenario:
        The sampled (and validity-gated) scenario document.
    """

    index: int
    seed: int
    scenario: Scenario


class ScenarioSampler:
    """Seeded generator of valid scenario documents.

    ``ScenarioSampler(seed).sample(i)`` is deterministic in ``(seed, i)`` and
    independent across ``i`` — each sample owns a fresh
    ``random.Random(f"fuzz-{seed}-{i}")`` stream.  All sampling is
    constraint-aware: failure rounds stay below the round bound, targeted
    cells stay inside the grid, per-cell deployments use exact multiples of
    the cell count, run-to-exhaustion always rides on a positive idle drain,
    and jam windows are well-ordered — so :func:`validate_roundtrip` passes
    by construction (and the property suite proves it over hundreds of
    samples).
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # ------------------------------------------------------------- sampling
    def sample(self, index: int) -> FuzzSample:
        """Sample scenario ``index`` of this session (pure in ``(seed, index)``)."""
        rng = random.Random(f"fuzz-{self.seed}-{index}")
        config = self._sample_config(rng)
        max_rounds = rng.randint(*_MAX_ROUNDS_RANGE)
        energy, run_to_exhaustion = self._sample_energy(rng)
        channel = self._sample_channel(rng, config, max_rounds)
        failures = self._sample_failures(rng, config, max_rounds)
        schemes = self._sample_schemes(rng)
        scenario = Scenario(
            name=f"fuzz-{self.seed}-{index}",
            scenario=config,
            schemes=schemes,
            description=f"sampled scenario {index} of fuzz session seed {self.seed}",
            failures=failures,
            energy=energy,
            channel=channel,
            trials=rng.choice((1, 1, 2)),
            max_rounds=max_rounds,
            idle_round_limit=rng.randint(2, 6),
            run_to_exhaustion=run_to_exhaustion,
        )
        return FuzzSample(index=index, seed=self.seed, scenario=scenario)

    def samples(self, count: int) -> List[FuzzSample]:
        """The first ``count`` samples of the session, in index order."""
        return [self.sample(index) for index in range(count)]

    # ------------------------------------------------------------- sub-parts
    def _sample_config(self, rng: random.Random) -> ScenarioConfig:
        # Every draw from _GRID_SIDES has a Hamilton cycle: an even cell
        # count uses the serpentine construction, and the odd sides are all
        # >= 3, so odd x odd grids satisfy the dual-path 3x3 minimum.
        columns = rng.choice(_GRID_SIDES)
        rows = rng.choice(_GRID_SIDES)
        cells = columns * rows
        deployment = "per_cell" if rng.random() < 0.2 else "uniform"
        if deployment == "per_cell":
            deployed_count = cells * rng.randint(2, 5)
        else:
            deployed_count = rng.randint(2 * cells, 6 * cells)
        spare_surplus: Optional[int] = None
        if rng.random() < 0.7:
            spare_surplus = rng.randint(0, max(1, cells // 2))
        initial_energy: Optional[float] = None
        jitter = 0.0
        if rng.random() < 0.4:
            initial_energy = float(rng.randint(20, 80))
            if rng.random() < 0.5:
                jitter = round(rng.uniform(0.05, 0.45), 2)
        return ScenarioConfig(
            columns=columns,
            rows=rows,
            deployed_count=deployed_count,
            spare_surplus=spare_surplus,
            seed=rng.randrange(2**31),
            initial_energy=initial_energy,
            initial_energy_jitter=jitter,
            head_policy=rng.choice(sorted(HEAD_POLICIES)),
            deployment=deployment,
        )

    def _sample_energy(
        self, rng: random.Random
    ) -> Tuple[Optional[EnergyModel], bool]:
        if rng.random() < 0.55:
            return None, False
        run_to_exhaustion = rng.random() < 0.25
        idle = round(rng.uniform(0.5, 2.0), 2) if (
            run_to_exhaustion or rng.random() < 0.6
        ) else 0.0
        return (
            EnergyModel(
                idle_cost_per_round=idle,
                depletion_threshold=round(rng.uniform(0.0, 1.0), 2),
            ),
            run_to_exhaustion,
        )

    def _sample_channel(
        self, rng: random.Random, config: ScenarioConfig, max_rounds: int
    ) -> Optional[ChannelModel]:
        kind = rng.choice(("perfect", "perfect", "lossy", "delayed", "jammed"))
        if kind == "perfect":
            # The canonical form of the default channel is its absence
            # (RunSpec folds them together), so sample it as None.
            return None
        if kind == "lossy":
            return ChannelModel.with_params(
                "lossy",
                drop_probability=round(rng.uniform(0.05, 0.4), 2),
                ack_timeout=rng.randint(2, 4),
                max_retries=rng.randint(2, 8),
            )
        if kind == "delayed":
            return ChannelModel.with_params("delayed", latency=rng.randint(1, 3))
        x0 = rng.randrange(config.columns)
        y0 = rng.randrange(config.rows)
        x1 = rng.randint(x0, config.columns - 1)
        y1 = rng.randint(y0, config.rows - 1)
        from_round = rng.randint(0, max_rounds // 2)
        until_round = rng.randint(from_round + 1, max_rounds)
        return ChannelModel.with_params(
            "jammed",
            region=[x0, y0, x1, y1],
            from_round=from_round,
            until_round=until_round,
            ack_timeout=rng.randint(2, 4),
            max_retries=rng.randint(2, 8),
        )

    def _sample_failures(
        self, rng: random.Random, config: ScenarioConfig, max_rounds: int
    ) -> Tuple[FailureEvent, ...]:
        events: List[FailureEvent] = []
        for _ in range(rng.randint(0, 3)):
            round_index = rng.randrange(max_rounds)
            kind = rng.choice(
                ("random", "thinning", "region_jamming", "targeted_cells",
                 "battery_depletion")
            )
            if kind == "random":
                if rng.random() < 0.5:
                    params = {"probability": round(rng.uniform(0.02, 0.3), 2)}
                else:
                    params = {"count": rng.randint(1, 5)}
            elif kind == "thinning":
                params = {
                    "target_enabled": config.cell_count + rng.randint(0, 5)
                }
            elif kind == "region_jamming":
                width = config.columns * config.cell_size
                height = config.rows * config.cell_size
                if rng.random() < 0.5:
                    params = {
                        "center": [
                            round(rng.uniform(0, width), 2),
                            round(rng.uniform(0, height), 2),
                        ],
                        "radius": round(rng.uniform(config.cell_size, 2 * config.cell_size), 2),
                    }
                else:
                    bx0 = round(rng.uniform(0, width / 2), 2)
                    by0 = round(rng.uniform(0, height / 2), 2)
                    params = {
                        "box": [
                            bx0,
                            by0,
                            round(bx0 + rng.uniform(0, width / 2), 2),
                            round(by0 + rng.uniform(0, height / 2), 2),
                        ]
                    }
            elif kind == "targeted_cells":
                count = rng.randint(1, min(3, config.cell_count))
                cells = rng.sample(
                    [(x, y) for x in range(config.columns) for y in range(config.rows)],
                    count,
                )
                params = {"cells": [[x, y] for x, y in sorted(cells)]}
            else:
                params = {"threshold": round(rng.uniform(0.0, 2.0), 2)}
            events.append(
                FailureEvent.with_params(round=round_index, kind=kind, **params)
            )
        events.sort(key=lambda event: (event.round, event.kind))
        return tuple(events)

    def _sample_schemes(self, rng: random.Random) -> Tuple[str, ...]:
        # SR and AR anchor every sample (the paper's central comparison, and
        # what the sr-ar-moves oracle needs); extras join at random.
        names = list(available_schemes())
        extras = [name for name in names if name not in ("SR", "AR")]
        chosen = {"SR", "AR"}
        for name in extras:
            if rng.random() < 0.3:
                chosen.add(name)
        return tuple(name for name in names if name in chosen)


# ---------------------------------------------------------------- validation
def validate_roundtrip(scenario: Scenario) -> Scenario:
    """Validity gate: parse, round-trip byte-stably, and keep cache keys stable.

    Returns the re-parsed scenario (proven equal to the input in document
    form).  Raises :class:`FuzzValidationError` naming the failed property:

    * ``loads``  — the dumped document fails ``loads_scenario`` validation;
    * ``dumps``  — ``dumps(loads(dumps(x))) != dumps(x)`` (byte drift);
    * ``run_key`` — the compiled :class:`RunSpec` cells of the original and
      the re-parsed scenario disagree on any cache key.
    """
    first = dumps_scenario(scenario, format="toml")
    try:
        parsed = loads_scenario(first, format="toml")
    except ScenarioValidationError as error:
        raise FuzzValidationError("loads", str(error)) from error
    second = dumps_scenario(parsed, format="toml")
    if second != first:
        raise FuzzValidationError(
            "dumps", f"round-trip drifted:\n--- first\n{first}\n--- second\n{second}"
        )
    original_keys = [run_key(spec) for spec in scenario.run_specs()]
    parsed_keys = [run_key(spec) for spec in parsed.run_specs()]
    if original_keys != parsed_keys:
        raise FuzzValidationError(
            "run_key",
            f"compiled specs changed identity across the round-trip: "
            f"{original_keys} != {parsed_keys}",
        )
    return parsed


# ---------------------------------------------------------------- shrinking
def shrink_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Simplified variants of ``scenario``, cheapest simplification first.

    The order implements the shrink strategy: rounds and trials first (they
    only bound work), then the grid (with the deployment scaled to keep the
    document valid), then structural deletions (failures, channel, energy).
    Variants that fail document validation are skipped — every
    yielded candidate is a valid scenario.
    """
    candidates: List[Scenario] = []

    def _try(**changes: object) -> None:
        try:
            candidates.append(dataclasses.replace(scenario, **changes))
        except (ScenarioValidationError, ValueError, TypeError):
            pass

    if scenario.max_rounds is not None and scenario.max_rounds > 20:
        _try(max_rounds=max(20, scenario.max_rounds // 2))
    if scenario.trials > 1:
        _try(trials=1)
    config = scenario.scenario
    for columns, rows in ((config.columns // 2, config.rows), (config.columns, config.rows // 2)):
        if columns < 2 or rows < 2:
            continue
        if columns % 2 == 1 and rows % 2 == 1 and (columns < 3 or rows < 3):
            continue
        cells = columns * rows
        if config.deployment == "per_cell":
            per_cell = max(2, config.deployed_count // config.cell_count)
            deployed = cells * per_cell
        else:
            deployed = max(2 * cells, config.deployed_count // 2)
        spare = config.spare_surplus
        if spare is not None:
            spare = min(spare, cells // 2)
        try:
            shrunk = dataclasses.replace(
                config,
                columns=columns,
                rows=rows,
                deployed_count=deployed,
                spare_surplus=spare,
            )
            candidates.append(dataclasses.replace(scenario, scenario=shrunk))
        except (ScenarioValidationError, ValueError, TypeError):
            pass
    for index in range(len(scenario.failures)):
        _try(failures=scenario.failures[:index] + scenario.failures[index + 1:])
    if scenario.channel is not None:
        _try(channel=None)
    if scenario.energy is not None:
        _try(energy=None, run_to_exhaustion=False)
    if scenario.run_to_exhaustion:
        _try(run_to_exhaustion=False)
    for candidate in candidates:
        yield candidate


def minimize_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_evaluations: int = 48,
) -> Scenario:
    """Greedy falsifier minimization: accept any simplification that still fails.

    ``still_fails`` re-runs whatever check produced the falsifier; the loop
    restarts from the accepted candidate after every success and stops after
    ``max_evaluations`` predicate calls (the budget that keeps minimization
    bounded) or when no candidate reproduces the failure.  Deterministic:
    candidates come from :func:`shrink_candidates` in a fixed order, so equal
    inputs minimize to equal outputs.
    """
    current = scenario
    evaluations = 0
    progress = True
    while progress and evaluations < max_evaluations:
        progress = False
        for candidate in shrink_candidates(current):
            if evaluations >= max_evaluations:
                break
            evaluations += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current
