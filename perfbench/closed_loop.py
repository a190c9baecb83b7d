"""One fresh interpreter running a closed-loop workload for a time budget.

``run.py`` starts this file as a child process.  It prints ``READY`` once the
imports are done and the empty record store is open.  With ``--setup-only``
it stops there: the process is one set-up sample.  Otherwise it runs
iterations of its workload (one caller, serial, each iteration the calls one
CLI invocation makes) until the budget is spent, timing the reference loop of
``calibration.py`` between iterations.  Each iteration's records are checked
and hashed right after it, outside the timed window, and then dropped, so the
heap does not grow with the run.  The last line printed is
one JSON object with the measurements of every iteration.

    python3 perfbench/closed_loop.py --workload figure-sweep --seed 1 \
        --budget 30 --workdir .perfbench/work/x [--trace-out trace.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration
import checks
import workloads
from tracing import (
    BUILD_SPAN,
    SIMULATE_SPAN,
    Tracer,
    complete,
    decompose_build,
    persistence_counts,
    record_layers,
    scenario_layer,
    span_layers,
    state_cache_layer,
    timed_backend,
    trace_schemes,
    traced_run_cache,
)

#: Records re-executed from scratch after the timed window, one from each of
#: the first iterations.
RECOMPUTE_RECORDS = 6
#: Leading iterations whose records make up ``records_sha256``.  Every run
#: finishes them, so two commits can be compared on one seed whatever their speed.
DIGEST_ITERATIONS = 2
#: Distinct scenarios whose build a traced run redoes step by step.
DECOMPOSED_SCENARIOS = 12
SWEEP_SCHEMES = ("SR", "AR")
LIFETIME_SCHEMES = ("SR", "SR-energy", "AR", "AR-energy")
FIGURE_FILES = (
    ("figure6_processes_and_success", "fig6_processes_success.csv"),
    ("figure7_node_movements", "fig7_node_movements.csv"),
    ("figure8_total_distance", "fig8_total_distance.csv"),
)


def _fresh_state_cache():
    """Give the iteration the empty initial-state cache a new CLI process starts with.

    Returns the cache, or ``None`` when the program has no state cache (the
    benchmark must keep running if that layer is removed).
    """
    try:
        from repro.experiments.state_cache import StateCache, set_default_state_cache
    except ImportError:
        return None
    cache = StateCache()
    set_default_state_cache(cache)
    return cache


def make_executor_class():
    """The benchmark's executor: each spec as ``build_initial_state`` + ``simulate_from``.

    That composition is what the serial executor performs per spec; running
    it here times each spec without hooks inside the program.  A spec is
    *novel* when its scenario is the first of its kind in the iteration and
    a *repeat* when an earlier spec already asked for the same scenario (the
    sweep's other schemes and trials), a property of the input alone.
    """
    from repro.experiments.orchestration import RunExecutor, build_initial_state, simulate_from

    class BenchExecutor(RunExecutor):
        def __init__(self, tracer=None, state_cache=None) -> None:
            super().__init__()
            self.tracer = tracer
            self.state_cache = state_cache
            self.records = []
            self.novel_s = []
            self.repeat_s = []
            self._seen = set()

        def run_all(self, specs):
            records = []
            for spec in specs:
                novel = spec.scenario not in self._seen
                self._seen.add(spec.scenario)
                start = time.perf_counter()
                if self.tracer is None:
                    record = simulate_from(build_initial_state(spec), spec)
                else:
                    hit = self.state_cache is not None and self.state_cache.contains(
                        spec.scenario
                    )
                    with self.tracer.span(BUILD_SPAN, state_cache_hit=hit):
                        state = build_initial_state(spec)
                    with self.tracer.span(SIMULATE_SPAN):
                        record = simulate_from(state, spec)
                (self.novel_s if novel else self.repeat_s).append(time.perf_counter() - start)
                records.append(record)
            self.runs_executed += len(records)
            self.records.extend(records)
            return records

    return BenchExecutor


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figure-sweep", "lifetime"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro.experiments import figures
    from repro.experiments.lifetime import LIFETIME_CONFIG, run_lifetime_experiment
    from repro.experiments.persistence import JsonDirBackend, RunCache, record_to_dict
    from repro.sim.scenario import ScenarioConfig

    sweep = args.workload == "figure-sweep"
    tracer = Tracer() if args.trace_out is not None else None
    if tracer is not None:
        trace_schemes(tracer, SWEEP_SCHEMES if sweep else LIFETIME_SCHEMES)
    BenchExecutor = make_executor_class()

    def open_store(iteration: int):
        directory = args.workdir / f"store-{iteration}"
        if tracer is None:
            return RunCache(directory)
        return traced_run_cache(tracer, directory, timed_backend(JsonDirBackend(directory), tracer))

    store = open_store(0) if sweep else None
    print("READY", flush=True)
    if args.setup_only:
        return 0

    seeds = workloads.sweep_seeds(args.seed) if sweep else workloads.lifetime_seeds(args.seed)
    planned = (
        len(figures.PAPER_SPARE_VALUES) * workloads.SWEEP_TRIALS * len(SWEEP_SCHEMES)
        if sweep
        else workloads.LIFETIME_TRIALS * len(LIFETIME_SCHEMES)
    )
    iterations, problems, recompute, summaries, configs = [], [], [], [], {}
    sampler = random.Random(f"recompute:{args.workload}:{args.seed}")
    digest = hashlib.sha256()
    attempted = failed = 0
    state_lookups = state_hits = state_evictions = store_lookups = store_hits = 0
    deadline = time.perf_counter() + args.budget
    reference = calibration.reference_loop()
    while True:
        iteration_seed = next(seeds)
        state_cache = _fresh_state_cache()
        executor = BenchExecutor(tracer, state_cache)
        attempted += planned
        start = time.perf_counter()
        try:
            if sweep:
                if store is None:
                    store = open_store(len(iterations))
                experiment = figures.run_section5_experiment(
                    spare_values=figures.PAPER_SPARE_VALUES,
                    config=ScenarioConfig(seed=iteration_seed),
                    trials=workloads.SWEEP_TRIALS,
                    executor=executor,
                    cache=store,
                )
                csv_dir = args.workdir / f"csv-{len(iterations)}"
                for function, filename in FIGURE_FILES:
                    if tracer is None:
                        getattr(figures, function)(experiment).to_csv(csv_dir / filename)
                    else:
                        with tracer.span("figures.tables_csv"):
                            getattr(figures, function)(experiment).to_csv(csv_dir / filename)
            else:
                run_lifetime_experiment(
                    config=LIFETIME_CONFIG.with_seed(iteration_seed),
                    trials=workloads.LIFETIME_TRIALS,
                    executor=executor,
                ).format()
        except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
            failed += planned
            problems.append(traceback.format_exc(limit=3))
            iterations.append(None)
        else:
            wall_s = time.perf_counter() - start
            before, reference = reference, calibration.reference_loop()
            # Outside the timed window: check, hash and drop this iteration's records.
            dicts = [record_to_dict(record) for record in executor.records]
            for record in dicts:
                violations = checks.record_violations(record)
                if violations:
                    failed += 1
                    problems.extend(violations[:2])
            if len(iterations) < DIGEST_ITERATIONS:
                for record in dicts:
                    digest.update(checks.canonical(record).encode("utf-8") + b"\n")
            if len(recompute) < RECOMPUTE_RECORDS and dicts:
                recompute.append(dicts[sampler.randrange(len(dicts))])
            if tracer is not None:
                summaries.extend(
                    {"metrics": r["metrics"], "rounds_executed": r["rounds_executed"]}
                    for r in dicts
                )
                for record in executor.records:
                    if len(configs) < DECOMPOSED_SCENARIOS:
                        configs.setdefault(record.spec.scenario, None)
            iterations.append(
                {
                    "wall_s": wall_s,
                    "scale": calibration.scale((before + reference) / 2),
                    "specs": len(dicts),
                    "rounds": sum(record["rounds_executed"] for record in dicts),
                    "novel_s": executor.novel_s,
                    "repeat_s": executor.repeat_s,
                    "sha256": checks.records_sha256(dicts),
                }
            )
        if state_cache is not None:
            stats = state_cache.stats()
            state_lookups += stats.hits + stats.misses
            state_hits += stats.hits
            state_evictions += stats.evictions
        if store is not None:
            snapshot = store.stats.snapshot()
            store_lookups += snapshot.hits + snapshot.misses
            store_hits += snapshot.hits
            store = None
        # Start another iteration only if at least half of a typical one fits,
        # so a run measures about its budget rather than up to one more iteration.
        done = [iteration["wall_s"] for iteration in iterations if iteration]
        typical = sum(done) / max(1, len(done))
        if deadline - time.perf_counter() < typical / 2:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for record in recompute:
        if checks.recompute_differs(record):
            failed += 1
            problems.append("a record differs when recomputed from scratch")

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb,
        "records_sha256": digest.hexdigest(),
    }
    if tracer is not None:
        decompositions = [
            entry for entry in (decompose_build(config) for config in configs) if entry is not None
        ]
        if not all(entry["identical"] for entry in decompositions):
            result["failed"] += 1
            result["problems"].append("step-by-step build differs from build_scenario_state")
        wall = sum(iteration["wall_s"] for iteration in iterations if iteration)
        specs = sum(iteration["specs"] for iteration in iterations if iteration)
        layers = {
            **span_layers(tracer),
            **record_layers(summaries),
            **scenario_layer(
                decompositions,
                state_lookups - state_hits if state_cache is not None else specs,
            ),
            **state_cache_layer(state_lookups, state_hits, state_evictions),
            **persistence_counts(store_lookups, store_hits),
            "trace.wall_s": wall,
            "trace.unaccounted_s": wall - tracer.top_level_total(),
        }
        layers["trace.unaccounted_frac"] = layers["trace.unaccounted_s"] / wall if wall else 0.0
        result["layers"] = complete(layers)
        tracer.dump(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
