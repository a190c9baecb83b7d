"""Command-line interface.

``python -m repro <command>`` exposes the most common workflows of the
library without writing any code:

* ``figures`` — regenerate the data behind the paper's evaluation figures
  (tables, optional CSV export, optional ASCII charts);
* ``compare`` — run any subset of the implemented schemes on one scenario and
  print their cost metrics side by side;
* ``lifetime`` — run schemes to network death under the energy model and
  report how many rounds each kept the area covered (``--smoke`` runs the CI
  determinism/physics gate instead);
* ``scenario`` — work with declarative scenario files and the curated
  catalog: ``list`` the shipped scenarios, ``show`` a document, ``run`` or
  ``sweep`` one (by catalog name or file path), ``fuzz`` the declarative
  space with the differential oracle harness, ``replay`` an archived
  falsifier with its per-oracle verdict table, and generate the
  ``SCENARIOS.md`` catalog reference with ``docs``;
* ``analyze`` — evaluate the Theorem-2 analytical model for a given spare
  count and Hamilton-path length;
* ``layout`` — print the Hamilton cycle or dual-path construction of a grid;
* ``serve`` — stand up the HTTP experiment service: spec/scenario/figure
  queries answered cache-first through a long-running
  :class:`~repro.experiments.broker.ExperimentBroker` (``--smoke`` runs the
  CI serving gate instead);
* ``query`` — the matching client: ask a running service for health, stats,
  scenarios, figures, or a single run (``--stream`` for live per-round
  events).

Commands that simulate accept ``--cache-dir`` plus ``--cache-backend``
(``json`` files or one concurrent-safe ``sqlite`` database) to persist and
reuse run records across invocations.

Every command accepts ``--help``.  The CLI is a thin layer over
:mod:`repro.experiments`; anything it prints can also be obtained
programmatically.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.core import analysis
from repro.experiments.figures import (
    PAPER_SPARE_VALUES,
    QUICK_SPARE_VALUES,
    figure1_hamilton_layout,
    figure3_expected_movements,
    figure4_dual_path_layout,
    figure5_distance_estimates,
    figure6_processes_and_success,
    figure7_node_movements,
    figure8_total_distance,
    run_section5_experiment,
)
from repro.experiments.lifetime import (
    DEFAULT_LIFETIME_SCHEMES,
    LIFETIME_CONFIG,
    run_lifetime_experiment,
    run_lifetime_smoke,
)
from repro.experiments.catalog import (
    catalog_names,
    render_catalog_docs,
    resolve_scenario,
)
from repro.experiments.orchestration import (
    RunExecutor,
    RunSpec,
    execute_many,
    make_executor,
)
from repro.experiments.persistence import CACHE_BACKENDS, RunCache, make_cache
from repro.experiments.scenario_files import (
    Scenario,
    ScenarioValidationError,
    dumps_scenario,
    tabulate_records,
)
from repro.experiments.plotting import ascii_chart
from repro.experiments.registry import available_schemes
from repro.experiments.results import ExperimentResult
from repro.network.channel import ChannelModel, parse_channel_spec
from repro.network.energy import EnergyModel
from repro.sim.scenario import ScenarioConfig

#: Figures that need the experimental SR-vs-AR sweep (as opposed to analysis only).
EXPERIMENTAL_FIGURES = ("fig6", "fig7", "fig8")
ALL_FIGURES = ("fig1", "fig3", "fig4", "fig5") + EXPERIMENTAL_FIGURES


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Mobility Control for Complete Coverage in Wireless "
            "Sensor Networks' (ICDCS 2008 Workshops)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser(
        "figures", help="regenerate the data series behind the paper's figures"
    )
    figures.add_argument(
        "which",
        nargs="*",
        default=["all"],
        help=f"figures to regenerate: any of {', '.join(ALL_FIGURES)} or 'all'",
    )
    figures.add_argument(
        "--quick",
        action="store_true",
        help="use the small spare-surplus sweep (fast smoke run) for figures 6-8",
    )
    figures.add_argument(
        "--csv-dir", type=Path, default=None, help="also write each series as CSV here"
    )
    figures.add_argument(
        "--chart", action="store_true", help="print ASCII charts in addition to tables"
    )
    figures.add_argument("--seed", type=int, default=2008, help="master random seed")
    figures.add_argument(
        "--trials", type=int, default=1, help="trials to average for figures 6-8"
    )
    _add_execution_arguments(figures)

    compare = subparsers.add_parser(
        "compare", help="run several schemes on one identical scenario"
    )
    compare.add_argument(
        "--columns", type=int, default=16, help="virtual-grid columns (n)"
    )
    compare.add_argument("--rows", type=int, default=16, help="virtual-grid rows (m)")
    compare.add_argument(
        "--nodes",
        "--deployed",
        dest="deployed",
        type=int,
        default=5000,
        help="number of deployed sensors (--deployed is an accepted alias); "
        "together with --columns/--rows this makes large-grid scenarios "
        "reachable without code edits",
    )
    compare.add_argument(
        "--spare-surplus", type=int, default=55, help="the paper's N (enabled - m*n)"
    )
    compare.add_argument("--communication-range", type=float, default=10.0)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--max-rounds", type=int, default=None)
    _add_channel_argument(compare)
    compare.add_argument(
        "--schemes",
        nargs="+",
        default=["SR", "AR"],
        choices=list(available_schemes()),
        help="schemes to run",
    )
    _add_execution_arguments(compare)

    lifetime = subparsers.add_parser(
        "lifetime",
        help="run schemes to network death under the energy model and report lifetimes",
    )
    lifetime.add_argument(
        "--columns", type=int, default=LIFETIME_CONFIG.columns, help="virtual-grid columns (n)"
    )
    lifetime.add_argument(
        "--rows", type=int, default=LIFETIME_CONFIG.rows, help="virtual-grid rows (m)"
    )
    lifetime.add_argument(
        "--nodes",
        "--deployed",
        dest="deployed",
        type=int,
        default=LIFETIME_CONFIG.deployed_count,
        help="number of deployed sensors (--deployed is an accepted alias)",
    )
    lifetime.add_argument(
        "--spare-surplus",
        type=int,
        default=LIFETIME_CONFIG.spare_surplus,
        help="the paper's N (enabled - m*n)",
    )
    lifetime.add_argument(
        "--communication-range", type=float, default=LIFETIME_CONFIG.communication_range
    )
    lifetime.add_argument("--seed", type=int, default=LIFETIME_CONFIG.seed)
    lifetime.add_argument(
        "--initial-energy",
        type=float,
        default=LIFETIME_CONFIG.initial_energy,
        help="battery capacity per node in joules",
    )
    lifetime.add_argument(
        "--energy-jitter",
        type=float,
        default=LIFETIME_CONFIG.initial_energy_jitter,
        help="fraction in [0, 1) by which individual batteries fall below the capacity",
    )
    lifetime.add_argument(
        "--idle-cost",
        type=float,
        default=0.25,
        help="idle/sensing drain per node per round (joules)",
    )
    lifetime.add_argument(
        "--depletion-threshold",
        type=float,
        default=0.0,
        help="remaining energy at or below which the engine disables a node",
    )
    lifetime.add_argument(
        "--max-rounds", type=int, default=1500, help="hard bound on simulation rounds"
    )
    lifetime.add_argument(
        "--trials", type=int, default=1, help="independent trials to average"
    )
    lifetime.add_argument(
        "--schemes",
        nargs="+",
        default=list(DEFAULT_LIFETIME_SCHEMES),
        choices=list(available_schemes()),
        help="schemes to run to network death",
    )
    lifetime.add_argument(
        "--csv-dir", type=Path, default=None, help="also write the table as CSV here"
    )
    lifetime.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI smoke gate (fixed workload, determinism + physics checks) "
        "instead of the configured experiment",
    )
    _add_execution_arguments(lifetime)

    scenario = subparsers.add_parser(
        "scenario",
        help="work with declarative scenario files and the curated catalog",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_sub.add_parser("list", help="list the shipped catalog scenarios")

    show = scenario_sub.add_parser(
        "show", help="print a scenario document (catalog name or file path)"
    )
    show.add_argument("ref", help="catalog scenario name or path to a .toml/.json file")
    show.add_argument(
        "--format", choices=("toml", "json"), default="toml", help="output format"
    )

    run = scenario_sub.add_parser(
        "run", help="execute a scenario (catalog name or file path)"
    )
    run.add_argument("ref", help="catalog scenario name or path to a .toml/.json file")
    run.add_argument(
        "--smoke",
        action="store_true",
        help="run the bounded CI variant (one trial, capped rounds) instead of "
        "the full scenario",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the scenario's master seed"
    )
    run.add_argument(
        "--trials", type=int, default=None, help="override the scenario's trial count"
    )
    run.add_argument(
        "--csv-dir", type=Path, default=None, help="also write the table as CSV here"
    )
    _add_channel_argument(run)
    _add_execution_arguments(run)

    sweep = scenario_sub.add_parser(
        "sweep",
        help="run a scenario across several spare-surplus values (the paper's N)",
    )
    sweep.add_argument("ref", help="catalog scenario name or path to a .toml/.json file")
    sweep.add_argument(
        "--spares",
        type=int,
        nargs="+",
        required=True,
        help="spare-surplus values N to sweep over",
    )
    sweep.add_argument(
        "--seed", type=int, default=None, help="override the scenario's master seed"
    )
    sweep.add_argument(
        "--trials", type=int, default=None, help="override the scenario's trial count"
    )
    sweep.add_argument(
        "--csv-dir", type=Path, default=None, help="also write the table as CSV here"
    )
    _add_execution_arguments(sweep)

    fuzz = scenario_sub.add_parser(
        "fuzz",
        help="sample valid scenarios from the declarative space and check "
        "every registered scheme against the differential oracles",
    )
    fuzz.add_argument(
        "--samples",
        type=int,
        default=None,
        help="number of scenarios to sample (deterministic mode: equal seeds "
        "give equal falsifier sets)",
    )
    fuzz.add_argument(
        "--minutes",
        type=float,
        default=None,
        help="time budget in minutes instead of a sample count (at least one "
        "sample always runs)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="session seed of the scenario sampler"
    )
    fuzz.add_argument(
        "--archive-dir",
        type=Path,
        default=None,
        help="archive minimized falsifiers as replayable TOML here "
        "(default: the packaged falsified catalog, "
        "src/repro/scenarios/falsified/)",
    )
    fuzz.add_argument(
        "--no-archive",
        action="store_true",
        help="report falsifiers without writing any TOML archive",
    )
    _add_execution_arguments(fuzz)

    replay = scenario_sub.add_parser(
        "replay",
        help="re-run a falsifier (or any scenario) across all registered "
        "schemes and print the per-oracle verdict table",
    )
    replay.add_argument(
        "ref",
        help="falsified-catalog name, curated catalog name, or path to a "
        ".toml/.json scenario file",
    )
    _add_execution_arguments(replay)

    docs = scenario_sub.add_parser(
        "docs", help="render the generated SCENARIOS.md catalog reference"
    )
    docs.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the rendering here instead of stdout",
    )
    docs.add_argument(
        "--check",
        type=Path,
        default=None,
        help="compare the rendering against this file and fail on any drift "
        "(the CI docs-sync gate)",
    )

    analyze = subparsers.add_parser(
        "analyze", help="evaluate the Theorem-2 analytical model"
    )
    analyze.add_argument("--spares", type=int, required=True, help="number of spare nodes N")
    analyze.add_argument(
        "--path-length", type=int, default=255, help="Hamilton path length L (default 16x16)"
    )
    analyze.add_argument(
        "--cell-size", type=float, default=4.4721, help="cell side r in metres"
    )

    layout = subparsers.add_parser(
        "layout", help="print the Hamilton cycle / dual-path construction of a grid"
    )
    layout.add_argument("--columns", type=int, default=4)
    layout.add_argument("--rows", type=int, default=5)

    serve = subparsers.add_parser(
        "serve",
        help="stand up the HTTP experiment service (cache-first, broker-backed)",
    )
    serve.add_argument("--host", default=None, help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, help="bind port (default 8008; 0 = ephemeral)"
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent run store shared across restarts (default: a "
        "private temporary store that is discarded on exit)",
    )
    serve.add_argument(
        "--cache-backend",
        choices=CACHE_BACKENDS,
        default="sqlite",
        help="store format under --cache-dir (default sqlite: the "
        "concurrent-safe choice for a long-running service)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="broker worker threads simulating cache misses",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="pending-run bound before /run answers HTTP 503 (0 = unbounded)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per request"
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI serving gate (ephemeral server, uncached + cached + "
        "streamed queries) instead of serving",
    )

    query = subparsers.add_parser(
        "query", help="query a running 'repro serve' instance"
    )
    query.add_argument(
        "--url",
        default=None,
        help="service base URL (default http://127.0.0.1:8008)",
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)
    query_sub.add_parser("health", help="liveness and uptime")
    query_sub.add_parser("stats", help="cache and broker counters")
    query_sub.add_parser("schemes", help="registered recovery schemes")
    query_sub.add_parser("scenarios", help="the curated scenario catalog")
    q_scenario = query_sub.add_parser(
        "scenario", help="run a catalog scenario on the service, cache-first"
    )
    q_scenario.add_argument("name", help="catalog scenario name")
    q_scenario.add_argument(
        "--smoke", action="store_true", help="query the bounded smoke variant"
    )
    q_figure = query_sub.add_parser(
        "figure", help="fetch a Section-5 figure series from the service"
    )
    q_figure.add_argument("name", choices=list(EXPERIMENTAL_FIGURES))
    q_figure.add_argument(
        "--quick", action="store_true", help="use the small spare-surplus sweep"
    )
    q_figure.add_argument("--trials", type=int, default=1)
    q_run = query_sub.add_parser(
        "run", help="execute (or look up) one run spec from a JSON file"
    )
    q_run.add_argument(
        "spec", type=Path, help="JSON file with at least 'scenario' and 'scheme'"
    )
    q_run.add_argument(
        "--priority",
        choices=("interactive", "batch"),
        default="interactive",
        help="admission class on the service",
    )
    q_run.add_argument(
        "--stream",
        action="store_true",
        help="stream live per-round NDJSON events instead of one response",
    )

    return parser


def _parse_channel_argument(text: str) -> ChannelModel:
    """argparse type hook for ``--channel`` (clean error instead of a traceback)."""
    try:
        return parse_channel_spec(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_channel_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--channel`` knob of the simulation-running commands."""
    parser.add_argument(
        "--channel",
        type=_parse_channel_argument,
        default=None,
        metavar="SPEC",
        help="control-channel model: 'perfect' (default), 'lossy:<p>', or "
        "'delayed:<k>'; the 'jammed' kind is configured through a scenario "
        "file's [channel] table",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared orchestration flags of the simulation-running commands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation runs (1 = serial; "
        "results are identical to serial for the same seeds)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persist run records here and reuse them on repeated invocations",
    )
    parser.add_argument(
        "--cache-backend",
        choices=CACHE_BACKENDS,
        default="json",
        help="run-record store format under --cache-dir: one JSON file per "
        "record (default) or one concurrent-safe sqlite database",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching even when --cache-dir is given",
    )


# ------------------------------------------------------------------ commands
@contextlib.contextmanager
def _execution_backend(
    args: argparse.Namespace,
) -> Iterator[tuple[RunExecutor, Optional[RunCache]]]:
    """Executor + optional cache as selected by the shared CLI flags.

    The executor is closed when the block exits, so a ``--jobs`` pool never
    outlives the command that opened it.
    """
    cache: Optional[RunCache] = None
    if args.cache_dir is not None and not args.no_cache:
        cache = make_cache(args.cache_dir, backend=args.cache_backend)
    with make_executor(args.jobs) as executor:
        yield executor, cache


def _cache_report(cache: RunCache) -> str:
    """The one-line cache summary printed after a cached command."""
    snapshot = cache.stats.snapshot()
    return (
        f"[cache: {snapshot.hits} runs reused, {snapshot.misses} simulated, "
        f"{snapshot.hit_rate:.0%} hit rate]"
    )


def _emit(result: ExperimentResult, csv_dir: Optional[Path], filename: str) -> None:
    print(result.format())
    if csv_dir is not None:
        path = result.to_csv(csv_dir / filename)
        print(f"[written to {path}]")
    print()


def _figures_command(args: argparse.Namespace) -> int:
    wanted = set(args.which)
    if "all" in wanted or not wanted:
        wanted = set(ALL_FIGURES)
    unknown = wanted - set(ALL_FIGURES)
    if unknown:
        print(f"unknown figures: {sorted(unknown)} (choose from {ALL_FIGURES})", file=sys.stderr)
        return 2

    if "fig1" in wanted:
        print(figure1_hamilton_layout())
        print()
    if "fig3" in wanted:
        _emit(figure3_expected_movements(), args.csv_dir, "fig3_expected_movements.csv")
    if "fig4" in wanted:
        print(figure4_dual_path_layout())
        print()
    if "fig5" in wanted:
        _emit(figure5_distance_estimates(), args.csv_dir, "fig5_distance_estimates.csv")

    if wanted & set(EXPERIMENTAL_FIGURES):
        spare_values = QUICK_SPARE_VALUES if args.quick else PAPER_SPARE_VALUES
        config = ScenarioConfig(seed=args.seed)
        with _execution_backend(args) as (executor, cache):
            experiment = run_section5_experiment(
                spare_values=spare_values,
                config=config,
                trials=args.trials,
                executor=executor,
                cache=cache,
            )
        if cache is not None and cache.hits:
            print(_cache_report(cache))
            print()
        if "fig6" in wanted:
            result = figure6_processes_and_success(experiment)
            _emit(result, args.csv_dir, "fig6_processes_success.csv")
            if args.chart:
                print(
                    ascii_chart(
                        {
                            "SR": result.series("N", "SR_processes"),
                            "AR": result.series("N", "AR_processes"),
                        },
                        title="Figure 6(a): replacement processes initiated",
                        x_label="N",
                        y_label="processes",
                    )
                )
                print()
        if "fig7" in wanted:
            result = figure7_node_movements(experiment)
            _emit(result, args.csv_dir, "fig7_node_movements.csv")
            if args.chart:
                print(
                    ascii_chart(
                        {
                            "SR": result.series("N", "SR_moves"),
                            "AR": result.series("N", "AR_moves"),
                            "SR analytic": result.series("N", "SR_moves_analytic"),
                        },
                        title="Figure 7: number of node movements",
                        x_label="N",
                        y_label="moves",
                    )
                )
                print()
        if "fig8" in wanted:
            result = figure8_total_distance(experiment)
            _emit(result, args.csv_dir, "fig8_total_distance.csv")
            if args.chart:
                print(
                    ascii_chart(
                        {
                            "SR": result.series("N", "SR_distance"),
                            "AR": result.series("N", "AR_distance"),
                        },
                        title="Figure 8: total moving distance (m)",
                        x_label="N",
                        y_label="metres",
                    )
                )
                print()
    return 0


def _compare_command(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        columns=args.columns,
        rows=args.rows,
        communication_range=args.communication_range,
        deployed_count=args.deployed,
        spare_surplus=args.spare_surplus,
        seed=args.seed,
    )
    specs = [
        RunSpec(
            scenario=config,
            scheme=scheme,
            seed=args.seed,
            max_rounds=args.max_rounds,
            channel=args.channel,
        )
        for scheme in args.schemes
    ]
    with _execution_backend(args) as (executor, cache):
        records = execute_many(specs, executor=executor, cache=cache)
    initial = records[0].metrics
    channel_note = f", channel {args.channel.kind}" if args.channel is not None else ""
    print(
        f"scenario: {config.columns}x{config.rows} grid, r = {config.cell_size:.4f} m, "
        f"{initial.initial_enabled} enabled nodes, {initial.initial_holes} holes, "
        f"{initial.initial_spares} spares (N = {args.spare_surplus}){channel_note}"
    )
    show_traffic = args.channel is not None and args.channel.kind != "perfect"
    columns = [
        "scheme",
        "rounds",
        "processes",
        "success_rate",
        "moves",
        "distance_m",
        "holes_left",
    ]
    if show_traffic:
        columns += ["messages", "dropped"]
    result = ExperimentResult(name="scheme comparison", columns=columns)
    for record in records:
        metrics = record.metrics
        row = dict(
            scheme=record.spec.scheme,
            rounds=metrics.rounds,
            processes=metrics.processes_initiated,
            success_rate=metrics.success_rate,
            moves=metrics.total_moves,
            distance_m=metrics.total_distance,
            holes_left=metrics.final_holes,
        )
        if show_traffic:
            row["messages"] = metrics.messages_sent
            row["dropped"] = metrics.messages_dropped
        result.add_row(**row)
    print(result.format())
    return 0


def _lifetime_command(args: argparse.Namespace) -> int:
    if args.smoke:
        failures = run_lifetime_smoke(jobs=max(2, args.jobs))
        if failures:
            for failure in failures:
                print(f"lifetime smoke FAILED: {failure}", file=sys.stderr)
            return 1
        print("lifetime smoke OK: depletion wired into the round loop, records deterministic")
        return 0

    try:
        config = ScenarioConfig(
            columns=args.columns,
            rows=args.rows,
            communication_range=args.communication_range,
            deployed_count=args.deployed,
            spare_surplus=args.spare_surplus,
            seed=args.seed,
            initial_energy=args.initial_energy,
            initial_energy_jitter=args.energy_jitter,
        )
        energy = EnergyModel(
            idle_cost_per_round=args.idle_cost,
            depletion_threshold=args.depletion_threshold,
        )
        with _execution_backend(args) as (executor, cache):
            result = run_lifetime_experiment(
                config=config,
                schemes=args.schemes,
                energy=energy,
                trials=args.trials,
                max_rounds=args.max_rounds,
                executor=executor,
                cache=cache,
            )
    except ValueError as error:
        print(f"lifetime: {error}", file=sys.stderr)
        return 2
    if cache is not None and cache.hits:
        print(_cache_report(cache))
        print()
    _emit(result, args.csv_dir, "lifetime_comparison.csv")
    best = max(result.rows, key=lambda row: float(row["lifetime_rounds"]))
    print(
        f"longest-lived scheme: {best['scheme']} "
        f"({float(best['lifetime_rounds']):.1f} rounds to the first unrepairable hole)"
    )
    return 0


class _ScenarioCliError(Exception):
    """A scenario reference the CLI should report cleanly (exit 2, no traceback)."""


def _resolve_cli_scenario(args: argparse.Namespace) -> Scenario:
    """Resolve the scenario reference and apply the shared CLI overrides.

    Reference problems (unknown catalog name, missing file, un-inferable
    format) are converted to :class:`_ScenarioCliError` here, at the lookup
    site, so the top-level handler never has to catch broad exception types
    that could mask real bugs inside the subcommands.
    """
    try:
        scenario = resolve_scenario(args.ref)
    except ScenarioValidationError:
        raise
    except (KeyError, FileNotFoundError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise _ScenarioCliError(message) from error
    if getattr(args, "seed", None) is not None:
        scenario = scenario.with_seed(args.seed)
    if getattr(args, "trials", None) is not None:
        scenario = dataclasses.replace(scenario, trials=args.trials)
    if getattr(args, "channel", None) is not None:
        scenario = dataclasses.replace(scenario, channel=args.channel)
    return scenario


def _scenario_header(scenario: Scenario) -> str:
    config = scenario.scenario
    thinning = (
        "no thinning"
        if config.spare_surplus is None
        else f"N = {config.spare_surplus}"
    )
    extras = []
    if scenario.failures:
        extras.append(f"{len(scenario.failures)} scheduled failure(s)")
    if scenario.energy is not None:
        extras.append(f"energy: idle {scenario.energy.idle_cost_per_round} J/round")
    if scenario.channel is not None:
        extras.append(f"channel: {scenario.channel.kind}")
    if scenario.run_to_exhaustion:
        extras.append("run to exhaustion")
    suffix = f" [{'; '.join(extras)}]" if extras else ""
    return (
        f"scenario {scenario.name}: {config.columns}x{config.rows} grid, "
        f"{config.deployed_count} deployed ({config.deployment}), {thinning}, "
        f"seed {config.seed}, schemes {', '.join(scenario.schemes)}, "
        f"trials {scenario.trials}{suffix}"
    )


def _scenario_list_command(args: argparse.Namespace) -> int:
    from repro.experiments.catalog import load_catalog_scenario

    width = max(len(name) for name in catalog_names())
    for name in catalog_names():
        scenario = load_catalog_scenario(name)
        print(f"{name:<{width}}  {scenario.description}")
    print()
    print("run one with: python -m repro scenario run <name>   (--smoke for the CI variant)")
    return 0


def _scenario_show_command(args: argparse.Namespace) -> int:
    scenario = _resolve_cli_scenario(args)
    print(dumps_scenario(scenario, format=args.format), end="")
    return 0


def _scenario_run_command(args: argparse.Namespace) -> int:
    scenario = _resolve_cli_scenario(args)
    if args.smoke:
        scenario = scenario.smoke_variant()
    with _execution_backend(args) as (executor, cache):
        records = scenario.execute(executor=executor, cache=cache)
    print(_scenario_header(scenario))
    if cache is not None and cache.hits:
        print(_cache_report(cache))
    print()
    result = tabulate_records(scenario, records)
    _emit(result, args.csv_dir, f"scenario_{scenario.name}.csv")
    if args.smoke:
        print(
            f"scenario smoke OK: {scenario.name} ran {len(records)} run(s) "
            f"end to end (bounded at {scenario.max_rounds} rounds)"
        )
    return 0


def _scenario_sweep_command(args: argparse.Namespace) -> int:
    scenario = _resolve_cli_scenario(args)
    variants = [scenario.with_spare_surplus(n) for n in args.spares]
    variant_specs = [variant.run_specs() for variant in variants]
    specs: List[RunSpec] = [spec for chunk in variant_specs for spec in chunk]
    with _execution_backend(args) as (executor, cache):
        records = execute_many(specs, executor=executor, cache=cache)
    print(_scenario_header(scenario))
    if cache is not None and cache.hits:
        print(_cache_report(cache))
    print()
    result = ExperimentResult(
        name=f"scenario sweep {scenario.name}",
        columns=[
            "N",
            "scheme",
            "rounds",
            "converged",
            "processes",
            "success_rate",
            "moves",
            "distance_m",
            "holes_left",
        ],
        description=f"spare-surplus sweep over N = {args.spares}",
    )
    offset = 0
    for n, variant, chunk_specs in zip(args.spares, variants, variant_specs):
        chunk = records[offset : offset + len(chunk_specs)]
        offset += len(chunk)
        table = tabulate_records(variant, chunk)
        for row in table.rows:
            result.add_row(
                N=n,
                **{
                    key: row[key]
                    for key in result.columns
                    if key != "N" and key in row
                },
            )
    _emit(result, args.csv_dir, f"scenario_sweep_{scenario.name}.csv")
    return 0


def _scenario_fuzz_command(args: argparse.Namespace) -> int:
    # Imported lazily: the fuzzing stack is only needed by this subcommand.
    from repro.experiments.catalog import falsified_dir
    from repro.experiments.differential import run_fuzz

    if args.samples is None and args.minutes is None:
        raise _ScenarioCliError(
            "scenario fuzz needs --samples N or --minutes N (e.g. "
            "scenario fuzz --samples 25 --seed 9)"
        )
    if args.samples is not None and args.samples < 1:
        raise _ScenarioCliError(f"--samples must be >= 1, got {args.samples}")
    archive_dir: Optional[Path] = None
    if not args.no_archive:
        archive_dir = args.archive_dir if args.archive_dir is not None else falsified_dir()
    budget = (
        f"{args.samples} samples" if args.samples is not None else f"{args.minutes} min"
    )
    print(f"scenario fuzz: seed {args.seed}, {budget}, archive: {archive_dir or 'off'}")
    with _execution_backend(args) as (executor, cache):
        result = run_fuzz(
            seed=args.seed,
            samples=args.samples,
            minutes=args.minutes,
            archive_dir=archive_dir,
            executor=executor,
            cache=cache,
            log=print,
        )
    if cache is not None and cache.hits:
        print(_cache_report(cache))
    bugs = result.bug_falsifiers
    claims = result.claim_falsifiers
    print(
        f"fuzzed {result.samples_run} scenario(s): "
        f"{len(bugs)} bug falsifier(s), {len(claims)} claim falsifier(s)"
    )
    for falsifier in result.falsifiers:
        where = f" -> {falsifier.path}" if falsifier.path is not None else ""
        print(
            f"  [{falsifier.severity}] {falsifier.oracle} "
            f"(sample {falsifier.sample_index}): {falsifier.violations[0]}{where}"
        )
    if bugs:
        print(
            "scenario fuzz FAILED: bug-severity oracle violations above",
            file=sys.stderr,
        )
        return 1
    print("scenario fuzz OK: no bug-severity oracle violations")
    return 0


def _scenario_replay_command(args: argparse.Namespace) -> int:
    from repro.experiments.differential import run_differential

    scenario = _resolve_cli_scenario(args)
    print(_scenario_header(scenario))
    if scenario.description:
        print(scenario.description)
    print()
    with _execution_backend(args) as (executor, cache):
        report = run_differential(scenario, executor=executor, cache=cache)
    result = ExperimentResult(
        name=f"replay {scenario.name}",
        columns=["oracle", "severity", "verdict", "detail"],
        description="per-oracle verdicts of the differential harness",
    )
    for outcome in report.outcomes:
        result.add_row(
            oracle=outcome.name,
            severity=outcome.severity,
            verdict="PASS" if outcome.passed else "VIOLATED",
            detail=outcome.violations[0] if outcome.violations else "-",
        )
    print(result.format())
    print()
    if report.bug_violations:
        print(
            "replay: bug-severity oracle(s) violated — the simulator has a "
            "reproducible defect",
            file=sys.stderr,
        )
        return 1
    if report.claim_violations:
        names = ", ".join(o.name for o in report.claim_violations)
        print(f"replay: claim oracle(s) {names} reproduced (discovery, not a defect)")
    else:
        print("replay: all oracles passed")
    return 0


def _scenario_docs_command(args: argparse.Namespace) -> int:
    rendering = render_catalog_docs()
    if args.check is not None:
        try:
            current = args.check.read_text()
        except OSError as error:
            print(f"scenario docs --check: cannot read {args.check}: {error}", file=sys.stderr)
            return 1
        if current != rendering:
            print(
                f"scenario docs: {args.check} is out of date; regenerate it with\n"
                f"  python -m repro scenario docs --output {args.check}",
                file=sys.stderr,
            )
            return 1
        print(f"scenario docs: {args.check} is in sync with the catalog")
        return 0
    if args.output is not None:
        args.output.write_text(rendering)
        print(f"[written to {args.output}]")
        return 0
    print(rendering, end="")
    return 0


def _scenario_command(args: argparse.Namespace) -> int:
    handlers = {
        "list": _scenario_list_command,
        "show": _scenario_show_command,
        "run": _scenario_run_command,
        "sweep": _scenario_sweep_command,
        "fuzz": _scenario_fuzz_command,
        "replay": _scenario_replay_command,
        "docs": _scenario_docs_command,
    }
    handler = handlers[args.scenario_command]
    try:
        return handler(args)
    except (ScenarioValidationError, _ScenarioCliError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"scenario: {message}", file=sys.stderr)
        return 2


def _analyze_command(args: argparse.Namespace) -> int:
    moves = analysis.expected_movements(args.spares, args.path_length)
    distance = analysis.expected_total_distance(args.spares, args.path_length, args.cell_size)
    low, average, high = analysis.hop_distance_statistics(args.cell_size)
    print(f"Theorem 2 with N = {args.spares} spares, L = {args.path_length}:")
    print(f"  expected node movements per replacement : {moves:.4f}")
    print(f"  expected total moving distance          : {distance:.2f} m")
    print(f"  per-hop distance (min / avg / max)      : {low:.2f} / {average:.2f} / {high:.2f} m")
    print(
        "  P(converge within 1 / 2 / 5 hops)       : "
        + " / ".join(
            f"{analysis.convergence_probability_within(args.spares, args.path_length, h):.3f}"
            for h in (1, 2, 5)
        )
    )
    return 0


def _layout_command(args: argparse.Namespace) -> int:
    if args.columns % 2 == 1 and args.rows % 2 == 1:
        print(figure4_dual_path_layout(args.columns, args.rows))
    else:
        print(figure1_hamilton_layout(args.columns, args.rows))
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    # Imported lazily: most CLI invocations never need the serving stack.
    from repro.serve.server import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        ServeConfig,
        run_serve_smoke,
        serve_forever,
    )

    if args.smoke:
        failures = run_serve_smoke(workers=max(2, args.workers))
        if failures:
            for failure in failures:
                print(f"serve smoke FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            "serve smoke OK: uncached, cached, and streamed queries answered "
            "through the broker"
        )
        return 0
    config = ServeConfig(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        cache_dir=args.cache_dir,
        cache_backend=args.cache_backend,
        workers=args.workers,
        queue_limit=args.queue_limit or None,
        verbose=args.verbose,
    )
    return serve_forever(config)


def _print_result_payload(payload: dict) -> None:
    """Render a serve table payload (columns + rows) like a local command."""
    result = ExperimentResult(
        name=str(payload.get("name", "")),
        columns=list(payload["columns"]),
        description=str(payload.get("description", "")),
    )
    for row in payload["rows"]:
        result.add_row(**row)
    print(result.format())


def _query_command(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClient, ServeError
    from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT

    url = args.url if args.url is not None else f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    client = ServeClient(url)
    try:
        if args.query_command == "health":
            print(_json.dumps(client.health(), indent=2))
        elif args.query_command == "stats":
            print(_json.dumps(client.stats(), indent=2))
        elif args.query_command == "schemes":
            for scheme in client.schemes():
                print(scheme)
        elif args.query_command == "scenarios":
            entries = client.scenarios()
            width = max(len(str(e["name"])) for e in entries)
            for entry in entries:
                print(f"{entry['name']:<{width}}  {entry['description']}")
        elif args.query_command == "scenario":
            payload = client.scenario(args.name, smoke=args.smoke)
            print(
                f"[service: {payload['cached_records']} of "
                f"{payload['total_records']} records answered from the cache]"
            )
            _print_result_payload(payload)
        elif args.query_command == "figure":
            payload = client.figure(args.name, quick=args.quick, trials=args.trials)
            _print_result_payload(payload)
        elif args.query_command == "run":
            try:
                body = _json.loads(args.spec.read_text())
            except (OSError, _json.JSONDecodeError) as error:
                print(f"query run: cannot read {args.spec}: {error}", file=sys.stderr)
                return 2
            if args.stream:
                for event in client.run_stream(body, priority=args.priority):
                    print(_json.dumps(event))
            else:
                payload = client.run(body, priority=args.priority)
                print(_json.dumps(payload, indent=2))
    except ServeError as error:
        print(f"query: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figures":
        return _figures_command(args)
    if args.command == "compare":
        return _compare_command(args)
    if args.command == "lifetime":
        return _lifetime_command(args)
    if args.command == "scenario":
        return _scenario_command(args)
    if args.command == "analyze":
        return _analyze_command(args)
    if args.command == "layout":
        return _layout_command(args)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "query":
        return _query_command(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
