"""Tracing changes no record, the step-by-step build matches the program's, and the
metric lists agree with ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

import checks
import percentiles
import run
import tracing
from closed_loop import make_executor_class
from repro.experiments.lifetime import LIFETIME_CONFIG, run_lifetime_experiment
from repro.experiments.persistence import record_to_dict
from repro.experiments.registry import SCHEME_REGISTRY
from repro.experiments.sweep import run_comparison
from repro.sim.scenario import ScenarioConfig

SMALL = ScenarioConfig(columns=4, rows=4, deployed_count=120, seed=5)
ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def restore_registry():
    saved = dict(SCHEME_REGISTRY)
    yield
    SCHEME_REGISTRY.clear()
    SCHEME_REGISTRY.update(saved)


def _sweep_records(tracer):
    executor = make_executor_class()(tracer)
    run_comparison(SMALL, [2, 6], trials=2, executor=executor)
    return [checks.canonical(record_to_dict(record)) for record in executor.records]


def test_traced_sweep_records_equal_untraced(restore_registry):
    untraced = _sweep_records(None)
    tracer = tracing.Tracer()
    tracing.trace_schemes(tracer, ("SR", "AR"))
    assert _sweep_records(tracer) == untraced
    assert len(tracer.named(tracing.SIMULATE_SPAN)) == len(untraced)
    assert tracer.calls["core.execute_round"] > 0
    assert tracer.calls["channel.deliver"] > 0
    for span in tracer.named(tracing.SIMULATE_SPAN):
        assert 0.0 <= span.self_time <= span.duration


def test_traced_lifetime_records_equal_untraced(restore_registry):
    def records(tracer):
        executor = make_executor_class()(tracer)
        run_lifetime_experiment(config=LIFETIME_CONFIG.with_seed(4), trials=1, executor=executor)
        return [checks.canonical(record_to_dict(record)) for record in executor.records]

    untraced = records(None)
    tracer = tracing.Tracer()
    tracing.trace_schemes(tracer, ("SR", "SR-energy", "AR", "AR-energy"))
    assert records(tracer) == untraced
    assert tracer.samples["engine.round"]


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(columns=6, rows=6, deployed_count=400, spare_surplus=20, seed=7),
        LIFETIME_CONFIG.with_seed(9),
    ],
)
def test_decomposed_build_is_byte_identical(config):
    entry = tracing.decompose_build(config)
    assert entry["identical"]
    assert entry["steps_sum_s"] == pytest.approx(
        entry["deploy_s"] + entry["index_elect_s"] + entry["thin_s"]
    )


def test_span_nesting_accounts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        tracer.timer("leaf", 0.25)
    inner = tracer.named("inner")[0]
    assert not inner.top and outer.top
    assert outer.children == pytest.approx(inner.duration + 0.25)
    assert tracer.top_level_total() == pytest.approx(outer.duration)


def test_percentile_rule():
    assert percentiles.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentiles.percentile([1.0, float("inf")], 90) == float("inf")
    assert percentiles.beyond(105, 90) == 10
    assert percentiles.beyond(99, 90) < percentiles.MIN_BEYOND
    assert percentiles.beyond(20, 50) == percentiles.MIN_BEYOND
    assert percentiles.beyond(19, 50) < percentiles.MIN_BEYOND


def test_benchmark_json_names_every_reported_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in benchmark["workloads"]] == ["figure-sweep", "served-mix", "lifetime"]
