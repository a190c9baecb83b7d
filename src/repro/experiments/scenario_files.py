"""Declarative scenario files: one document that captures a whole experiment.

The paper's evaluation is a single hand-wired workload (Section 5: 5000
nodes, a 16x16 grid, random thinning), and until this module every other
workload — jamming attacks, lifetime runs, sparse deployments — was ad-hoc
Python.  A *scenario file* turns such a workload into data: a TOML (or JSON)
document holding a :class:`~repro.sim.scenario.ScenarioConfig`, a declarative
failure schedule (:class:`~repro.network.failures.FailureEvent` entries), an
optional :class:`~repro.network.energy.EnergyModel`, the schemes to run, and
the trial/round bookkeeping.  The document **compiles into ordinary**
:class:`~repro.experiments.orchestration.RunSpec` **cells**
(:meth:`Scenario.run_specs`), so scenario files are executable by any
executor, sweepable, and cacheable through
:class:`~repro.experiments.persistence.RunCache` — a scenario-file run and
the equivalent programmatic spec hit the same cache entries.

The document format (TOML form; JSON mirrors the same structure)::

    format = 1
    name = "region-jamming"
    description = "one line about the workload"
    stresses = "what this scenario stresses"
    expected = "expected qualitative outcome"

    [scenario]            # ScenarioConfig fields
    columns = 16
    rows = 12
    deployed_count = 1200
    spare_surplus = 160
    seed = 2024

    [energy]              # optional EnergyModel fields
    idle_cost_per_round = 0.25

    [channel]             # optional ChannelModel: control-message physics
    kind = "lossy"        # perfect (default) | lossy | delayed | jammed
    drop_probability = 0.2
    ack_timeout = 3       # optional reliability-layer knobs
    max_retries = 8

    [run]
    schemes = ["SR", "AR"]
    trials = 1
    max_rounds = 400      # optional
    idle_round_limit = 3
    run_to_exhaustion = false

    [[failures]]          # optional, any number, applied at their round
    round = 0
    kind = "region_jamming"
    center = [35.8, 26.8]
    radius = 11.2

:func:`load_scenario` / :func:`dump_scenario` round-trip losslessly and
deterministically (``dump(load(dump(x))) == dump(x)`` byte-for-byte), and
:func:`scenario_from_dict` validates the whole document with actionable
errors (:class:`ScenarioValidationError`) that name the offending key.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.orchestration import RunExecutor, RunRecord, RunSpec, execute_many
from repro.experiments.broker import ExperimentBroker
from repro.experiments.persistence import RunCache
from repro.experiments.registry import available_schemes
from repro.experiments.results import ExperimentResult, average_dicts
from repro.network.channel import ChannelModel, channel_from_dict, channel_to_dict
from repro.network.energy import EnergyModel
from repro.network.failures import (
    FailureEvent,
    available_failure_kinds,
    freeze_params,
    thaw_params,
)
from repro.sim.engine import DEFAULT_IDLE_ROUND_LIMIT
from repro.sim.rng import spawn_seeds
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "Scenario",
    "ScenarioValidationError",
    "dump_scenario",
    "dumps_scenario",
    "load_scenario",
    "loads_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "tabulate_records",
]

#: Version of the scenario-document schema; bump on incompatible changes.
SCENARIO_FORMAT_VERSION = 1

#: Round bound :meth:`Scenario.smoke_variant` caps runs at (extended just
#: enough when a failure schedule reaches further).
SMOKE_MAX_ROUNDS = 60


class ScenarioValidationError(ValueError):
    """A scenario document failed schema validation.

    The message always names the offending location (``run.schemes``,
    ``failures[2].kind``, ...) so a file author can fix the document without
    reading the loader source.
    """

    def __init__(self, where: str, message: str) -> None:
        self.where = where
        super().__init__(f"invalid scenario document at {where}: {message}")


@dataclass(frozen=True)
class Scenario:
    """A named, complete, declarative experiment.

    Attributes
    ----------
    name:
        Identifier used by the catalog, the CLI, and generated docs.
    scenario:
        The deployment to build (grid, node count, thinning, batteries).
    schemes:
        Recovery schemes to run on identical builds of the deployment.
    description, stresses, expected:
        Free-text documentation lines rendered by ``scenario docs``: what the
        workload is, what it stresses, and the expected qualitative outcome.
    failures:
        Declarative failure schedule applied by the engine mid-run.
    energy:
        Optional energy physics the engine applies every round.
    channel:
        Optional control-channel model (``None``: the paper's perfect
        one-round channel).  Lossy/jammed channels stress the schemes'
        message traffic the way failures stress their sensing.
    trials:
        Independent repetitions; each trial re-seeds the deployment and the
        controller stream together (one trial runs the scenario seed itself,
        several trials use seeds spawned from it).
    max_rounds:
        Optional hard bound on simulation rounds (``None``: engine default).
    idle_round_limit:
        Consecutive no-progress rounds before the engine declares a stall.
    run_to_exhaustion:
        Lifetime mode: keep draining until the network dies (requires an
        energy model with positive idle drain).
    """

    name: str
    scenario: ScenarioConfig = ScenarioConfig()
    schemes: Tuple[str, ...] = ("SR", "AR")
    description: str = ""
    stresses: str = ""
    expected: str = ""
    failures: Tuple[FailureEvent, ...] = ()
    energy: Optional[EnergyModel] = None
    channel: Optional[ChannelModel] = None
    trials: int = 1
    max_rounds: Optional[int] = None
    idle_round_limit: int = DEFAULT_IDLE_ROUND_LIMIT
    run_to_exhaustion: bool = False

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ScenarioValidationError(
                "name", f"must be a non-empty token without whitespace, got {self.name!r}"
            )
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "failures", tuple(self.failures))
        if not self.schemes:
            raise ScenarioValidationError("run.schemes", "must list at least one scheme")
        unknown = [s for s in self.schemes if s not in available_schemes()]
        if unknown:
            raise ScenarioValidationError(
                "run.schemes",
                f"unknown scheme(s) {unknown}; available: {list(available_schemes())}",
            )
        if self.trials < 1:
            raise ScenarioValidationError("run.trials", f"must be >= 1, got {self.trials}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ScenarioValidationError(
                "run.max_rounds", f"must be >= 1 when given, got {self.max_rounds}"
            )
        if self.idle_round_limit < 1:
            raise ScenarioValidationError(
                "run.idle_round_limit", f"must be >= 1, got {self.idle_round_limit}"
            )
        if self.run_to_exhaustion and (
            self.energy is None or self.energy.idle_cost_per_round <= 0
        ):
            raise ScenarioValidationError(
                "run.run_to_exhaustion",
                "requires an [energy] table with a positive idle_cost_per_round "
                "(without idle drain the network never dies)",
            )
        # The engine's default bound (4 * cell_count, see RoundBasedEngine)
        # applies when max_rounds is omitted — an event past the *effective*
        # bound would silently never fire, so both cases are rejected.
        effective_bound = (
            self.max_rounds
            if self.max_rounds is not None
            else 4 * self.scenario.cell_count
        )
        bound_label = (
            f"run.max_rounds is {self.max_rounds}"
            if self.max_rounds is not None
            else f"the engine's default bound is {effective_bound} rounds"
        )
        for index, event in enumerate(self.failures):
            if event.round >= effective_bound:
                raise ScenarioValidationError(
                    f"failures[{index}].round",
                    f"round {event.round} never fires: {bound_label}",
                )
            if event.kind == "targeted_cells":
                self._validate_cells_in_grid(index, event)

    def _validate_cells_in_grid(self, index: int, event: FailureEvent) -> None:
        params = thaw_params(event.params)
        for cell in params.get("cells", ()):
            x, y = cell
            if not (0 <= x < self.scenario.columns and 0 <= y < self.scenario.rows):
                raise ScenarioValidationError(
                    f"failures[{index}].cells",
                    f"cell [{x}, {y}] is outside the "
                    f"{self.scenario.columns}x{self.scenario.rows} grid",
                )

    # -------------------------------------------------------------- execution
    def trial_seeds(self) -> List[int]:
        """Master seed per trial: the scenario seed itself for a single trial,
        independent spawned seeds otherwise."""
        if self.trials == 1:
            return [self.scenario.seed]
        return spawn_seeds(self.scenario.seed, self.trials, label="scenario")

    def run_specs(self) -> List[RunSpec]:
        """Compile into ordinary run specs, trials outermost, schemes innermost.

        The specs are plain :class:`~repro.experiments.orchestration.RunSpec`
        values — byte-identical to what a programmatic caller would build by
        hand — so records cached from a scenario-file run are hits for the
        equivalent programmatic sweep and vice versa.
        """
        specs: List[RunSpec] = []
        for trial_seed in self.trial_seeds():
            config = self.scenario.with_seed(trial_seed)
            for scheme in self.schemes:
                specs.append(
                    RunSpec(
                        scenario=config,
                        scheme=scheme,
                        seed=trial_seed,
                        max_rounds=self.max_rounds,
                        idle_round_limit=self.idle_round_limit,
                        energy=self.energy,
                        run_to_exhaustion=self.run_to_exhaustion,
                        failures=self.failures,
                        channel=self.channel,
                    )
                )
        return specs

    def execute(
        self,
        executor: Optional[RunExecutor] = None,
        cache: Optional[RunCache] = None,
        broker: Optional[ExperimentBroker] = None,
    ) -> List[RunRecord]:
        """Run every spec of the scenario and return the records in spec order.

        ``broker`` routes the specs through a long-running
        :class:`~repro.experiments.broker.ExperimentBroker` (the serve layer
        uses this); otherwise the one-shot ``executor``/``cache`` pair applies.
        """
        return execute_many(
            self.run_specs(), executor=executor, cache=cache, broker=broker
        )

    # -------------------------------------------------------------- variants
    def with_spare_surplus(self, spare_surplus: int) -> "Scenario":
        """Copy with a different paper ``N`` (used by ``scenario sweep``)."""
        return dataclasses.replace(
            self, scenario=self.scenario.with_spare_surplus(spare_surplus)
        )

    def with_seed(self, seed: int) -> "Scenario":
        """Copy with a different master seed."""
        return dataclasses.replace(self, scenario=self.scenario.with_seed(seed))

    def smoke_variant(self) -> "Scenario":
        """A bounded variant for CI smoke gates: one trial, few rounds.

        The round cap is :data:`SMOKE_MAX_ROUNDS`, extended just past the last
        scheduled failure so every declared event still fires.
        """
        cap = max(SMOKE_MAX_ROUNDS, *(e.round + 10 for e in self.failures)) if (
            self.failures
        ) else SMOKE_MAX_ROUNDS
        bound = cap if self.max_rounds is None else min(self.max_rounds, cap)
        return dataclasses.replace(self, trials=1, max_rounds=bound)


# -------------------------------------------------------------- dict <-> data
def scenario_to_dict(scenario: Scenario) -> Dict[str, object]:
    """Canonical JSON/TOML-compatible form of a scenario (stable key order)."""
    payload: Dict[str, object] = {
        "format": SCENARIO_FORMAT_VERSION,
        "name": scenario.name,
    }
    for key in ("description", "stresses", "expected"):
        value = getattr(scenario, key)
        if value:
            payload[key] = value
    config = dataclasses.asdict(scenario.scenario)
    payload["scenario"] = {k: v for k, v in config.items() if v is not None}
    if scenario.energy is not None:
        payload["energy"] = dataclasses.asdict(scenario.energy)
    if scenario.channel is not None:
        payload["channel"] = channel_to_dict(scenario.channel)
    run: Dict[str, object] = {
        "schemes": list(scenario.schemes),
        "trials": scenario.trials,
    }
    if scenario.max_rounds is not None:
        run["max_rounds"] = scenario.max_rounds
    run["idle_round_limit"] = scenario.idle_round_limit
    run["run_to_exhaustion"] = scenario.run_to_exhaustion
    payload["run"] = run
    if scenario.failures:
        payload["failures"] = [
            {
                "round": event.round,
                "kind": event.kind,
                **{k: _plain_value(v) for k, v in thaw_params(event.params).items()},
            }
            for event in scenario.failures
        ]
    return payload


def _plain_value(value: object) -> object:
    if isinstance(value, tuple):
        return [_plain_value(item) for item in value]
    return value


_TOP_LEVEL_KEYS = (
    "format",
    "name",
    "description",
    "stresses",
    "expected",
    "scenario",
    "energy",
    "channel",
    "run",
    "failures",
)
_RUN_KEYS = ("schemes", "trials", "max_rounds", "idle_round_limit", "run_to_exhaustion")


def scenario_from_dict(payload: Mapping[str, object]) -> Scenario:
    """Validate a scenario document and construct the :class:`Scenario`.

    Every schema violation raises :class:`ScenarioValidationError` naming the
    offending key; errors raised by the underlying config classes
    (:class:`~repro.sim.scenario.ScenarioConfig`,
    :class:`~repro.network.energy.EnergyModel`, failure builders) are wrapped
    with the same location context.
    """
    if not isinstance(payload, Mapping):
        raise ScenarioValidationError(
            "<document>", f"expected a table/object, got {type(payload).__name__}"
        )
    _reject_unknown_keys(payload, _TOP_LEVEL_KEYS, where="<document>")
    fmt = payload.get("format", SCENARIO_FORMAT_VERSION)
    if fmt != SCENARIO_FORMAT_VERSION:
        raise ScenarioValidationError(
            "format",
            f"unsupported scenario format {fmt!r}; this build reads "
            f"format = {SCENARIO_FORMAT_VERSION}",
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioValidationError("name", f"must be a non-empty string, got {name!r}")

    config = _scenario_config_from(payload.get("scenario", {}))
    energy = _energy_from(payload.get("energy"))
    channel = _channel_from(payload.get("channel"))
    run = payload.get("run", {})
    if not isinstance(run, Mapping):
        raise ScenarioValidationError("run", f"must be a table, got {type(run).__name__}")
    _reject_unknown_keys(run, _RUN_KEYS, where="run")
    schemes = run.get("schemes", ["SR", "AR"])
    if not isinstance(schemes, Sequence) or isinstance(schemes, str) or not all(
        isinstance(s, str) for s in schemes
    ):
        raise ScenarioValidationError(
            "run.schemes", f"must be a list of scheme names, got {schemes!r}"
        )
    failures = _failures_from(payload.get("failures", ()))

    def _text(key: str) -> str:
        value = payload.get(key, "")
        if not isinstance(value, str):
            raise ScenarioValidationError(key, f"must be a string, got {value!r}")
        return value

    try:
        return Scenario(
            name=name,
            scenario=config,
            schemes=tuple(schemes),
            description=_text("description"),
            stresses=_text("stresses"),
            expected=_text("expected"),
            failures=failures,
            energy=energy,
            channel=channel,
            trials=_int_field(run, "trials", 1),
            max_rounds=_optional_int_field(run, "max_rounds"),
            idle_round_limit=_int_field(run, "idle_round_limit", DEFAULT_IDLE_ROUND_LIMIT),
            run_to_exhaustion=_bool_field(run, "run_to_exhaustion", False),
        )
    except ScenarioValidationError:
        raise
    except (TypeError, ValueError) as error:
        raise ScenarioValidationError("<document>", str(error)) from error


def _reject_unknown_keys(
    table: Mapping[str, object], allowed: Sequence[str], where: str
) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise ScenarioValidationError(
            where, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _int_field(table: Mapping[str, object], key: str, default: int) -> int:
    value = table.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioValidationError(f"run.{key}", f"must be an integer, got {value!r}")
    return value


def _optional_int_field(table: Mapping[str, object], key: str) -> Optional[int]:
    value = table.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioValidationError(f"run.{key}", f"must be an integer, got {value!r}")
    return value


def _bool_field(table: Mapping[str, object], key: str, default: bool) -> bool:
    value = table.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioValidationError(f"run.{key}", f"must be a boolean, got {value!r}")
    return value


def _scenario_config_from(table: object) -> ScenarioConfig:
    if not isinstance(table, Mapping):
        raise ScenarioValidationError(
            "scenario", f"must be a table, got {type(table).__name__}"
        )
    field_names = [f.name for f in dataclasses.fields(ScenarioConfig)]
    _reject_unknown_keys(table, field_names, where="scenario")
    try:
        return ScenarioConfig(**dict(table))
    except (TypeError, ValueError) as error:
        raise ScenarioValidationError("scenario", str(error)) from error


def _energy_from(table: object) -> Optional[EnergyModel]:
    if table is None:
        return None
    if not isinstance(table, Mapping):
        raise ScenarioValidationError(
            "energy", f"must be a table, got {type(table).__name__}"
        )
    field_names = [f.name for f in dataclasses.fields(EnergyModel)]
    _reject_unknown_keys(table, field_names, where="energy")
    try:
        return EnergyModel(**dict(table))
    except (TypeError, ValueError) as error:
        raise ScenarioValidationError("energy", str(error)) from error


def _channel_from(table: object) -> Optional[ChannelModel]:
    if table is None:
        return None
    if not isinstance(table, Mapping):
        raise ScenarioValidationError(
            "channel", f"must be a table, got {type(table).__name__}"
        )
    try:
        return channel_from_dict(table)
    except (TypeError, ValueError) as error:
        raise ScenarioValidationError("channel", str(error)) from error


def _failures_from(entries: object) -> Tuple[FailureEvent, ...]:
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ScenarioValidationError(
            "failures", f"must be an array of tables, got {type(entries).__name__}"
        )
    events: List[FailureEvent] = []
    for index, entry in enumerate(entries):
        where = f"failures[{index}]"
        if not isinstance(entry, Mapping):
            raise ScenarioValidationError(
                where, f"must be a table, got {type(entry).__name__}"
            )
        round_index = entry.get("round")
        if not isinstance(round_index, int) or isinstance(round_index, bool):
            raise ScenarioValidationError(
                f"{where}.round", f"must be a non-negative integer, got {round_index!r}"
            )
        kind = entry.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ScenarioValidationError(
                f"{where}.kind",
                f"must be one of {list(available_failure_kinds())}, got {kind!r}",
            )
        params = {k: v for k, v in entry.items() if k not in ("round", "kind")}
        try:
            events.append(
                FailureEvent(round=round_index, kind=kind, params=freeze_params(params))
            )
        except ValueError as error:
            raise ScenarioValidationError(where, str(error)) from error
    return tuple(events)


# ------------------------------------------------------------------- file I/O
def loads_scenario(text: str, format: str = "toml") -> Scenario:
    """Parse a scenario document from a string (``format``: toml or json)."""
    if format == "toml":
        payload = _toml_loads(text)
    elif format == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioValidationError("<document>", f"invalid JSON: {error}") from error
    else:
        raise ValueError(f"format must be 'toml' or 'json', got {format!r}")
    return scenario_from_dict(payload)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a scenario file; the format is chosen by suffix (.toml / .json)."""
    path = Path(path)
    format = _format_for(path)
    return loads_scenario(path.read_text(), format=format)


def dumps_scenario(scenario: Scenario, format: str = "toml") -> str:
    """Serialize a scenario deterministically (byte-stable across round trips)."""
    payload = scenario_to_dict(scenario)
    if format == "toml":
        return _toml_dumps(payload)
    if format == "json":
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"format must be 'toml' or 'json', got {format!r}")


def dump_scenario(scenario: Scenario, path: Union[str, Path]) -> Path:
    """Write a scenario file; the format is chosen by suffix (.toml / .json)."""
    path = Path(path)
    path.write_text(dumps_scenario(scenario, format=_format_for(path)))
    return path


def _format_for(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".toml":
        return "toml"
    if suffix == ".json":
        return "json"
    raise ValueError(
        f"cannot infer scenario format from {path.name!r}; use a .toml or .json suffix"
    )


def _toml_loads(text: str) -> Dict[str, object]:
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - Python < 3.11 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ModuleNotFoundError as error:
            raise ScenarioValidationError(
                "<document>",
                "reading TOML scenarios needs Python >= 3.11 (tomllib) or the "
                "'tomli' package; alternatively use a .json scenario file",
            ) from error
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ScenarioValidationError("<document>", f"invalid TOML: {error}") from error


# -------------------------------------------------------- deterministic TOML
def _toml_dumps(payload: Mapping[str, object]) -> str:
    """Emit the restricted scenario-document schema as deterministic TOML.

    This is intentionally not a general TOML writer: it handles exactly the
    value shapes :func:`scenario_to_dict` produces (scalars, flat tables, one
    array of tables) with a fixed key order, which is what makes
    ``load -> dump -> load`` byte-stable.
    """
    lines: List[str] = []
    for key, value in payload.items():
        if isinstance(value, Mapping) or key == "failures":
            continue
        lines.append(f"{key} = {_toml_value(value)}")
    for key in ("scenario", "energy", "channel", "run"):
        table = payload.get(key)
        if not isinstance(table, Mapping):
            continue
        lines.append("")
        lines.append(f"[{key}]")
        for sub_key, sub_value in table.items():
            lines.append(f"{sub_key} = {_toml_value(sub_value)}")
    for entry in payload.get("failures", ()):
        lines.append("")
        lines.append("[[failures]]")
        ordered = ["round", "kind"] + sorted(set(entry) - {"round", "kind"})
        for sub_key in ordered:
            lines.append(f"{sub_key} = {_toml_value(entry[sub_key])}")
    return "\n".join(lines) + "\n"


def _toml_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {value!r} ({type(value).__name__}) to TOML")


# ------------------------------------------------------------------ reporting
def tabulate_records(
    scenario: Scenario, records: Sequence[RunRecord]
) -> ExperimentResult:
    """One row per scheme (averaged over trials) for a scenario's records.

    The records must be in :meth:`Scenario.run_specs` order (trials
    outermost, schemes innermost), which is what :meth:`Scenario.execute`
    returns.
    """
    columns = [
        "scheme",
        "rounds",
        "converged",
        "stalled",
        "processes",
        "success_rate",
        "moves",
        "distance_m",
        "holes_left",
    ]
    if scenario.energy is not None:
        columns += ["depleted_nodes", "energy_consumed"]
    if scenario.channel is not None:
        columns += ["messages", "dropped", "delivery_latency"]
    result = ExperimentResult(
        name=f"scenario {scenario.name}",
        columns=columns,
        description=scenario.description,
    )
    per_scheme: Dict[str, List[Dict[str, object]]] = {s: [] for s in scenario.schemes}
    record_iter = iter(records)
    for _ in range(scenario.trials):
        for scheme in scenario.schemes:
            record = next(record_iter)
            metrics = record.metrics
            row: Dict[str, object] = {
                "scheme": scheme,
                "rounds": metrics.rounds,
                "converged": 1.0 if record.converged else 0.0,
                "stalled": 1.0 if record.stalled else 0.0,
                "processes": metrics.processes_initiated,
                "success_rate": metrics.success_rate,
                "moves": metrics.total_moves,
                "distance_m": metrics.total_distance,
                "holes_left": metrics.final_holes,
            }
            if scenario.energy is not None:
                summary = metrics.energy
                row["depleted_nodes"] = summary.depleted_nodes if summary else 0
                row["energy_consumed"] = summary.total_consumed if summary else 0.0
            if scenario.channel is not None:
                row["messages"] = metrics.messages_sent
                row["dropped"] = metrics.messages_dropped
                row["delivery_latency"] = metrics.mean_delivery_latency
            per_scheme[scheme].append(row)
    for scheme in scenario.schemes:
        result.add_row(**average_dicts(per_scheme[scheme]))
    return result
