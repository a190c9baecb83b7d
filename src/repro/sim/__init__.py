"""Round-based simulation engine, scenarios, and metrics."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sim.rng": ["derive_rng", "spawn_seeds"],
        "repro.sim.scenario": ["ScenarioConfig", "build_scenario_state"],
        "repro.sim.metrics": ["RunMetrics", "collect_metrics"],
        "repro.sim.engine": ["RoundBasedEngine", "SimulationResult", "run_recovery"],
    },
)
