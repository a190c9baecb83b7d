"""repro — reproduction of "Mobility Control for Complete Coverage in WSNs".

This package reproduces the system and the evaluation of

    Zhen Jiang, Jie Wu, Robert Kline, Jennifer Krantz.
    "Mobility Control for Complete Coverage in Wireless Sensor Networks."
    ICDCS 2008 Workshops, pp. 291-296.

Quick tour of the public API
----------------------------

* :class:`repro.VirtualGrid` / :class:`repro.WsnState` — the virtual-grid
  substrate and the mutable network state (nodes, heads, spares, holes).
* :func:`repro.build_hamilton_cycle` — directed Hamilton cycle over the grid
  (serpentine, or the dual-path construction for odd-by-odd grids).
* :class:`repro.HamiltonReplacementController` — the paper's SR scheme.
* :class:`repro.LocalizedReplacementController` — the AR baseline.
* :class:`repro.RoundBasedEngine` / :func:`repro.run_recovery` — the
  round-based simulation engine.
* :class:`repro.ScenarioConfig` / :func:`repro.build_scenario_state` — the
  paper's experimental workload (uniform deployment, thinning to ``N + m*n``
  enabled nodes).
* :class:`repro.Scenario` / :func:`repro.load_scenario` — declarative
  scenario files (TOML/JSON documents compiling into cached run specs) and
  the curated catalog under :mod:`repro.experiments.catalog`.
* :mod:`repro.core.analysis` — Theorem 2 / Corollary 2 analytical model.
* :mod:`repro.experiments` — drivers that regenerate every figure of the
  paper's evaluation.

See ``examples/quickstart.py`` for a five-minute end-to-end walk-through.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.grid.geometry": ["BoundingBox", "Point"],
        "repro.grid.virtual_grid": [
            "GridCoord",
            "VirtualGrid",
            "cell_side_for_range",
            "required_range_for_cell",
        ],
        "repro.grid.coverage": ["coverage_report"],
        "repro.grid.connectivity": ["is_head_network_connected"],
        "repro.network.node": ["NodeRole", "NodeState", "SensorNode"],
        "repro.network.radio": ["UnitDiskRadio"],
        "repro.network.state": ["WsnState"],
        "repro.network.deployment": ["deploy_uniform", "deploy_per_cell"],
        "repro.network.failures": [
            "FailureEvent",
            "RandomFailure",
            "RegionJammingFailure",
            "TargetedCellFailure",
            "ThinningToEnabledCount",
        ],
        "repro.network.channel": ["ChannelModel", "build_channel", "parse_channel_spec"],
        "repro.experiments.scenario_files": ["Scenario", "load_scenario", "dump_scenario"],
        "repro.experiments.catalog": ["load_catalog_scenario"],
        "repro.core.hamilton": [
            "HamiltonCycle",
            "SerpentineHamiltonCycle",
            "DualPathHamiltonCycle",
            "build_hamilton_cycle",
        ],
        "repro.core.replacement": ["HamiltonReplacementController"],
        "repro.core.shortcut": ["ShortcutReplacementController"],
        "repro.core.baseline_ar": ["LocalizedReplacementController"],
        "repro.core.protocol": ["MobilityController", "ReplacementProcess", "RoundOutcome"],
        "repro.core": ["analysis"],
        "repro.sim.engine": ["RoundBasedEngine", "SimulationResult", "run_recovery"],
        "repro.sim.scenario": ["ScenarioConfig", "build_scenario_state"],
        "repro.sim.metrics": ["RunMetrics"],
        "repro.sim.rng": ["derive_rng"],
    },
)
__all__.insert(0, "__version__")
