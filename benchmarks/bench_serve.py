"""Load benchmark for the ``repro serve`` experiment service.

Stands up an in-process server (ephemeral port, ephemeral sqlite store) and
drives it with the workload shape the broker exists for:

* a **cold pass** — every spec is novel, so each request simulates through
  the broker (per-request latency = queueing + simulation + persistence);
* a **warm pass** — the identical specs again, now answered from the cache
  (per-request latency = one HTTP round-trip + one backend lookup);
* a **health pass** — as many ``GET /health`` requests against the same
  server (per-request latency = one HTTP round-trip and nothing else), the
  yardstick the warm pass is bounded by;
* a **herd pass** — many concurrent requests for one novel spec, which the
  broker's in-flight dedup must collapse onto a single simulation.

Two further sections profile the cold path itself, off the HTTP socket —
the exact code broker workers run per cold spec:

* a **cold-path breakdown** — seconds spent building the initial scenario
  state versus simulating from it, per scheme (best of
  ``COLD_PATH_REPEATS`` each).  One paper-tier build must take at most
  ``MAX_STATE_BUILD_MS`` milliseconds: an absolute bound on the build
  alone, so a faster simulation cannot move it (the build's share of a
  cold spec, the former guard, rose whenever only the simulation got
  faster);
* a **sweep-shaped cold workload** — every scheme crossed with several
  trial seeds over a handful of shared scenarios (the shape every sweep
  and figure driver emits), executed once per spec with the initial-state
  cache off and again with it on.  Records from the two passes must be
  byte-identical; the cache-off pass is the cold throughput a spec gets
  without any build reuse.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py          # writes BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke  # CI guards only

Latency is reported honestly: every pass records p50 and max; p99 appears
only when a pass has at least ``P99_MIN_SAMPLES`` requests (over a dozen
requests, "p99" is just the max wearing a statistics costume).  The guards
— enforced in ``--smoke`` and on the full run alike — are:

* warm p50 latency at most ``MAX_WARM_VS_HEALTH_P50`` times the health
  p50 of the same server run, and every warm request answered cached (a
  cached answer costs a lookup and a serialization over the bare HTTP
  round-trip; one that simulates or rebuilds a state costs milliseconds
  more and trips this).  The bound reads the warm path alone, so a faster
  cold path cannot move it;
* the herd performs exactly one simulation (in-flight dedup works);
* warm p50 latency under a generous quarter-second ceiling (a cache hit
  must never cost simulation time);
* one paper-tier state build takes at most ``MAX_STATE_BUILD_MS`` ms;
* the sweep-shaped cold workload gives byte-identical records with the
  initial-state cache off and on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.orchestration import (
    RunSpec,
    build_initial_state,
    execute_run,
    simulate_from,
)
from repro.experiments.persistence import record_to_dict
from repro.experiments.state_cache import StateCache
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, make_server
from repro.sim.scenario import ScenarioConfig

#: Scenario shape of every benchmarked spec: the paper's Section-5 workload
#: (16x16 grid, 5000 deployed sensors), so cold-pass cost is the cost a real
#: figure query pays.
SCENARIO = {"columns": 16, "rows": 16, "deployed_count": 5000, "spare_surplus": 55}
SCHEMES = ("SR", "AR")
MAX_ROUNDS = 60
WARM_REPEATS = 6
HERD_SIZE = 8
#: Below this many requests a pass reports no p99 — the tail quantile of a
#: dozen samples is just the max.
P99_MIN_SAMPLES = 100
#: Sweep-shaped cold workload shape: per scenario, every scheme is run with
#: ``SWEEP_TRIALS`` controller seeds (the scenario — deployment, thinning —
#: is shared; only the controller randomness differs).
SWEEP_TRIALS = 4
#: Guards (see module docstring).  ``MAX_WARM_VS_HEALTH_P50`` doubles the
#: warm/health p50 ratio read on a 2-core host (2.3-3.0x, warm ~2 ms against
#: ~0.7 ms), leaving room for the host's 2x speed swings; a warm answer that
#: rebuilt the paper-tier state (~4.5 ms) would read about 9x, and one that
#: simulated over 25x.
MAX_WARM_VS_HEALTH_P50 = 6.0
MAX_WARM_P50_SECONDS = 0.25
#: Milliseconds one paper-tier ``build_initial_state`` may take (best of
#: ``COLD_PATH_REPEATS``).  Ten readings before the flat-cell-id hot path
#: were 2.9-5.2 ms on a 2-core host; the bound doubles the worst for the
#: host's ~2x speed swings.  Thinning one victim at a time reads 56-69 ms.
MAX_STATE_BUILD_MS = 10.5
#: Cold-path breakdown: each half of a cold spec is timed this many times and
#: the fastest run is reported, so a one-off stall cannot tip the build share.
COLD_PATH_REPEATS = 3


def spec_payload(scheme: str, seed: int) -> dict:
    """One run-spec request body for the benchmark workload."""
    return {
        "scenario": {**SCENARIO, "seed": seed},
        "scheme": scheme,
        "seed": seed,
        "max_rounds": MAX_ROUNDS,
    }


def build_workload(seeds: int) -> list:
    """The benchmark's distinct specs: every scheme crossed with every seed."""
    return [
        spec_payload(scheme, seed) for scheme in SCHEMES for seed in range(1, seeds + 1)
    ]


def latency_summary(latencies: list) -> dict:
    """p50 always, max always, p99 only when the sample count supports it."""
    ordered = sorted(latencies)
    summary = {
        "latency_p50_seconds": round(statistics.median(ordered), 5),
        "latency_max_seconds": round(ordered[-1], 5),
    }
    if len(ordered) >= P99_MIN_SAMPLES:
        summary["latency_p99_seconds"] = round(
            ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))], 5
        )
    return summary


def timed_pass(client: ServeClient, payloads: list) -> dict:
    """Issue every payload sequentially and summarize latency/throughput."""
    latencies = []
    cached = 0
    started = time.perf_counter()
    for payload in payloads:
        t0 = time.perf_counter()
        response = client.run(payload)
        latencies.append(time.perf_counter() - t0)
        cached += 1 if response["cached"] else 0
    wall = time.perf_counter() - started
    return {
        "requests": len(payloads),
        "cached_answers": cached,
        "wall_seconds": round(wall, 4),
        "specs_per_second": round(len(payloads) / wall, 2),
        **latency_summary(latencies),
    }


def health_pass(client: ServeClient, requests: int) -> dict:
    """Issue ``requests`` sequential ``GET /health`` calls and summarize latency."""
    latencies = []
    for _ in range(requests):
        t0 = time.perf_counter()
        client.health()
        latencies.append(time.perf_counter() - t0)
    return {"requests": requests, **latency_summary(latencies)}


def herd_pass(server, client: ServeClient, payload: dict) -> dict:
    """Fire HERD_SIZE concurrent requests for one novel spec; count simulations."""
    before = server.broker.stats()
    results = []
    errors = []

    def ask():
        try:
            results.append(client.run(payload))
        except Exception as error:  # noqa: BLE001 - reported in the summary
            errors.append(str(error))

    threads = [threading.Thread(target=ask) for _ in range(HERD_SIZE)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    after = server.broker.stats()
    executed = after.executed - before.executed
    identical = bool(results) and all(
        r["record"] == results[0]["record"] for r in results
    )
    return {
        "concurrent_requests": HERD_SIZE,
        "errors": errors,
        "wall_seconds": round(wall, 4),
        "simulations_performed": executed,
        "dedup_or_cache_hits": (after.dedup_hits - before.dedup_hits)
        + (after.cache_hits - before.cache_hits),
        "records_identical": identical,
    }


def _sweep_scenario(seed: int) -> ScenarioConfig:
    """The benchmark scenario as a typed config with the given build seed."""
    return ScenarioConfig(**SCENARIO, seed=seed)


def _best_of(repeats: int, call) -> tuple:
    """``(fastest wall seconds, last result)`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def cold_path_breakdown() -> dict:
    """Seconds per cold spec split into state build vs simulation, per scheme.

    This times the two halves of ``execute_run`` directly (no HTTP, no
    state cache), so the split is exactly what a broker worker pays on a
    novel spec.  Each half is the best of ``COLD_PATH_REPEATS`` runs.
    """
    config = _sweep_scenario(seed=1)
    build_spec = RunSpec(
        scenario=config, scheme=SCHEMES[0], seed=1, max_rounds=MAX_ROUNDS
    )
    build_seconds, state = _best_of(
        COLD_PATH_REPEATS, lambda: build_initial_state(build_spec, state_cache=None)
    )
    simulate = {}
    for scheme in SCHEMES:
        spec = RunSpec(scenario=config, scheme=scheme, seed=2, max_rounds=MAX_ROUNDS)
        seconds, _ = _best_of(
            COLD_PATH_REPEATS, lambda: simulate_from(state.clone(), spec)
        )
        simulate[scheme] = round(seconds, 4)
    typical_simulate = statistics.median(simulate.values())
    return {
        "state_build_seconds": round(build_seconds, 4),
        "state_build_ms": round(build_seconds * 1e3, 3),
        "simulate_seconds": simulate,
        "state_build_fraction_of_cold_spec": round(
            build_seconds / (build_seconds + typical_simulate), 3
        ),
    }


def sweep_cold_pass(scenarios: int) -> dict:
    """Sweep-shaped cold throughput with the initial-state cache off vs on.

    Per scenario the workload holds ``len(SCHEMES) * SWEEP_TRIALS`` specs
    sharing one deployment — the shape every sweep/figure driver emits.
    Both passes run spec-by-spec through ``execute_run`` (the broker
    worker's code path); the baseline disables state caching, the cached
    pass shares one build per scenario through a fresh ``StateCache``.
    """
    specs = [
        RunSpec(
            scenario=_sweep_scenario(seed=scenario_seed),
            scheme=scheme,
            seed=1_000 + trial,
            max_rounds=MAX_ROUNDS,
        )
        for scenario_seed in range(101, 101 + scenarios)
        for trial in range(SWEEP_TRIALS)
        for scheme in SCHEMES
    ]

    started = time.perf_counter()
    baseline_records = [execute_run(spec, state_cache=None) for spec in specs]
    baseline_wall = time.perf_counter() - started

    cache = StateCache(capacity=scenarios)
    started = time.perf_counter()
    cached_records = [execute_run(spec, state_cache=cache) for spec in specs]
    cached_wall = time.perf_counter() - started

    identical = all(
        json.dumps(record_to_dict(a), sort_keys=True)
        == json.dumps(record_to_dict(b), sort_keys=True)
        for a, b in zip(baseline_records, cached_records)
    )
    return {
        "scenarios": scenarios,
        "specs_per_scenario": len(SCHEMES) * SWEEP_TRIALS,
        "specs": len(specs),
        "baseline_wall_seconds": round(baseline_wall, 4),
        "baseline_specs_per_second": round(len(specs) / baseline_wall, 2),
        "cached_wall_seconds": round(cached_wall, 4),
        "cached_specs_per_second": round(len(specs) / cached_wall, 2),
        "state_cache_speedup": round(baseline_wall / cached_wall, 2),
        "records_identical": identical,
        "state_cache_stats": cache.stats().as_dict(),
    }


def run_benchmark(seeds: int, workers: int, sweep_scenarios: int) -> tuple:
    """Execute all passes against a private server; return (report, failures)."""
    server = make_server(ServeConfig(port=0, workers=workers))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(server.url, timeout=300)
    try:
        workload = build_workload(seeds)
        cold = timed_pass(client, workload)
        warm = timed_pass(client, workload * WARM_REPEATS)
        health = health_pass(client, warm["requests"])
        herd = herd_pass(server, client, spec_payload("SR", seed=10_000))
        stats = client.stats()
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()

    breakdown = cold_path_breakdown()
    sweep = sweep_cold_pass(scenarios=sweep_scenarios)

    speedup = warm["specs_per_second"] / cold["specs_per_second"]
    warm_vs_health = warm["latency_p50_seconds"] / health["latency_p50_seconds"]
    report = {
        "benchmark": "bench_serve",
        "description": (
            "HTTP experiment-service load benchmark: cold pass (every spec "
            "simulated through the broker) vs warm pass (identical specs "
            "answered from the cache) vs GET /health on the same server (the "
            "bare HTTP round-trip) vs a concurrent herd of one novel spec "
            "(in-flight dedup), plus the off-socket cold path itself: the "
            "state-build/simulate split per cold spec and a sweep-shaped "
            "workload run with the initial-state cache off and on "
            "(byte-identical records required); p99 latency is reported only "
            "for passes with >= 100 requests, smaller passes carry p50/max "
            f"only; the breakdown times each half best of {COLD_PATH_REPEATS}; "
            f"guards: warm_vs_health_p50 <= {MAX_WARM_VS_HEALTH_P50:.0f}x with "
            "every warm request answered cached, "
            f"cold_path.breakdown.state_build_ms <= {MAX_STATE_BUILD_MS}, "
            "cold_path.sweep.records_identical (the build's share of a cold "
            "spec is reported, not guarded)"
        ),
        "scenario": SCENARIO,
        "schemes": list(SCHEMES),
        "max_rounds": MAX_ROUNDS,
        "distinct_specs": len(SCHEMES) * seeds,
        "broker_workers": workers,
        "cold": cold,
        "warm": warm,
        "health": health,
        "warm_vs_cold_speedup": round(speedup, 1),
        "warm_vs_health_p50": round(warm_vs_health, 2),
        "herd": herd,
        "cold_path": {
            "breakdown": breakdown,
            "sweep": sweep,
        },
        "server_stats": stats,
    }

    failures = []
    if cold["cached_answers"] != 0:
        failures.append("cold pass hit the cache; the workload is not novel")
    if warm["cached_answers"] != warm["requests"]:
        failures.append(
            f"warm pass missed the cache ({warm['cached_answers']} of "
            f"{warm['requests']} answered cached)"
        )
    if warm_vs_health > MAX_WARM_VS_HEALTH_P50:
        failures.append(
            f"warm p50 latency is {warm_vs_health:.1f}x the /health p50 of the "
            f"same server (guard: <= {MAX_WARM_VS_HEALTH_P50:.0f}x); a cached "
            "answer costs more than a lookup"
        )
    if warm["latency_p50_seconds"] > MAX_WARM_P50_SECONDS:
        failures.append(
            f"warm p50 latency {warm['latency_p50_seconds']}s exceeds "
            f"{MAX_WARM_P50_SECONDS}s"
        )
    if herd["errors"]:
        failures.append(f"herd requests errored: {herd['errors'][:3]}")
    if herd["simulations_performed"] != 1:
        failures.append(
            f"herd of {HERD_SIZE} identical requests performed "
            f"{herd['simulations_performed']} simulations (dedup broken)"
        )
    if not herd["records_identical"]:
        failures.append("herd requests received differing records")
    if not sweep["records_identical"]:
        failures.append(
            "state-cached sweep records differ from the cache-off baseline"
        )
    build_ms = breakdown["state_build_ms"]
    if build_ms > MAX_STATE_BUILD_MS:
        failures.append(
            f"one paper-tier state build takes {build_ms:.2f} ms "
            f"(guard: <= {MAX_STATE_BUILD_MS} ms); thinning lost its bulk pass "
            "or another build step grew"
        )
    return report, failures


def main(argv=None) -> int:
    """Benchmark entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, guards only, no BENCH_serve.json",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, help="seeds per scheme (distinct specs / 2)"
    )
    parser.add_argument("--workers", type=int, default=2, help="broker worker threads")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_serve.json",
        help="report destination (full runs only)",
    )
    args = parser.parse_args(argv)

    seeds = args.seeds if args.seeds is not None else (2 if args.smoke else 12)
    sweep_scenarios = 2 if args.smoke else 3
    report, failures = run_benchmark(
        seeds=seeds, workers=args.workers, sweep_scenarios=sweep_scenarios
    )

    if failures:
        for failure in failures:
            print(f"bench_serve FAILED: {failure}", file=sys.stderr)
        return 1
    breakdown = report["cold_path"]["breakdown"]
    sweep = report["cold_path"]["sweep"]
    print(
        f"bench_serve OK: cold {report['cold']['specs_per_second']} specs/s, "
        f"warm {report['warm']['specs_per_second']} specs/s "
        f"({report['warm_vs_cold_speedup']}x), warm p50 "
        f"{report['warm_vs_health_p50']}x the /health p50, herd of "
        f"{report['herd']['concurrent_requests']} -> "
        f"{report['herd']['simulations_performed']} simulation, "
        f"state build {breakdown['state_build_ms']:.2f} ms "
        f"({breakdown['state_build_fraction_of_cold_spec']:.0%} of a cold spec), "
        f"sweep {sweep['baseline_specs_per_second']} specs/s cache "
        f"off vs {sweep['cached_specs_per_second']} on (identical records)"
    )
    if not args.smoke:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
