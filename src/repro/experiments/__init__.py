"""Experiment drivers that regenerate the paper's evaluation figures.

Each public function corresponds to one figure of the paper (see DESIGN.md
for the experiment index).  The analytical figures (3 and 5) are pure
computations; the experimental figures (6, 7, 8) run the SR and AR schemes on
the Section-5 workload and report the same series the paper plots.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.results": ["ExperimentResult", "average_dicts"],
        "repro.experiments.plotting": ["ascii_chart", "format_table"],
        "repro.experiments.report": [
            "ShapeCheck",
            "find_crossover",
            "section5_shape_checks",
            "render_markdown_report",
        ],
        "repro.experiments.registry": [
            "available_schemes",
            "get_scheme",
            "register_scheme",
            "unregister_scheme",
        ],
        "repro.experiments.orchestration": [
            "RunSpec",
            "RunRecord",
            "RunExecutor",
            "SerialExecutor",
            "ParallelExecutor",
            "execute_run",
            "execute_many",
            "make_executor",
        ],
        "repro.experiments.persistence": [
            "RunCache",
            "run_key",
            "CACHE_BACKENDS",
            "CacheBackend",
            "CacheStats",
            "CacheStatsSnapshot",
            "JsonDirBackend",
            "SqliteBackend",
            "make_cache",
        ],
        "repro.experiments.broker": [
            "BrokerQueueFull",
            "BrokerStats",
            "ExperimentBroker",
            "Priority",
            "RunHandle",
            "execute_batch",
        ],
        "repro.experiments.sweep": [
            "SCHEME_FACTORIES",
            "build_comparison_specs",
            "make_controller",
            "run_comparison",
            "run_single",
        ],
        "repro.experiments.figures": [
            "PAPER_SPARE_VALUES",
            "QUICK_SPARE_VALUES",
            "figure1_hamilton_layout",
            "figure3_expected_movements",
            "figure4_dual_path_layout",
            "figure5_distance_estimates",
            "figure6_processes_and_success",
            "figure7_node_movements",
            "figure8_total_distance",
            "run_section5_experiment",
        ],
        "repro.experiments.lifetime": [
            "DEFAULT_LIFETIME_SCHEMES",
            "LIFETIME_CONFIG",
            "LIFETIME_ENERGY",
            "build_lifetime_specs",
            "run_lifetime_experiment",
            "run_lifetime_smoke",
        ],
        "repro.experiments.scenario_files": [
            "Scenario",
            "ScenarioValidationError",
            "load_scenario",
            "loads_scenario",
            "dump_scenario",
            "dumps_scenario",
            "scenario_from_dict",
            "scenario_to_dict",
            "tabulate_records",
        ],
        "repro.experiments.catalog": [
            "CATALOG_NAMES",
            "catalog_names",
            "catalog_scenarios",
            "falsified_dir",
            "falsified_names",
            "falsified_scenarios",
            "load_catalog_scenario",
            "load_falsified_scenario",
            "render_catalog_docs",
            "resolve_scenario",
        ],
        "repro.experiments.fuzz": [
            "FuzzSample",
            "FuzzValidationError",
            "ScenarioSampler",
            "minimize_scenario",
            "shrink_candidates",
            "validate_roundtrip",
        ],
        "repro.experiments.differential": [
            "ORACLES",
            "DifferentialContext",
            "DifferentialReport",
            "FalsifiedScenario",
            "FuzzSessionResult",
            "Oracle",
            "OracleOutcome",
            "run_differential",
            "run_fuzz",
        ],
    },
)
