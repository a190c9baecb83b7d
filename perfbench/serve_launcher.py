"""The traced served-mix server: ``repro serve``'s defaults, assembled from public constructors.

    python3 perfbench/serve_launcher.py --cache-dir DIR --trace-out trace.json

Prints the service URL, serves until ``POST /shutdown``, then writes its
spans and per-spec timings to ``--trace-out``.  The broker runs each spec as
a timed ``build_initial_state`` + ``simulate_from``; queue wait runs from the
broker's ``submit`` to the start of that function.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from tracing import BUILD_SPAN, SIMULATE_SPAN, Tracer, span_layers, trace_schemes, timed_backend


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, required=True)
    args = parser.parse_args()

    from repro.experiments.broker import ExperimentBroker, Priority
    from repro.experiments.orchestration import build_initial_state, simulate_from
    from repro.experiments.persistence import RunCache, SqliteBackend, run_key
    from repro.experiments.registry import available_schemes
    from repro.serve.server import ServeConfig, make_server

    try:
        from repro.experiments.state_cache import default_state_cache
    except ImportError:  # a program without the state cache reports none
        default_state_cache = lambda: None  # noqa: E731

    tracer = Tracer()
    trace_schemes(tracer, available_schemes())
    config = ServeConfig(port=0, cache_dir=args.cache_dir)
    backend = timed_backend(SqliteBackend(args.cache_dir), tracer)
    cache = RunCache(args.cache_dir, backend=backend)
    state_cache = default_state_cache()
    submitted_at = {}
    submit_lock = threading.Lock()
    per_spec = {}

    def run_fn(spec):
        key = run_key(spec)
        started = time.perf_counter()
        with submit_lock:
            queued = submitted_at.pop(key, started)
        tracer.sample("broker.queue_wait", started - queued)
        hit = state_cache is not None and state_cache.contains(spec.scenario)
        with tracer.span(BUILD_SPAN, state_cache_hit=hit) as build:
            state = build_initial_state(spec)
        with tracer.span(SIMULATE_SPAN) as simulate:
            record = simulate_from(state, spec)
        per_spec[key] = {
            "queue_wait_s": started - queued,
            "build_s": build.duration,
            "simulate_s": simulate.duration,
        }
        return record

    broker = ExperimentBroker(
        cache=cache, workers=config.workers, queue_limit=config.queue_limit, run_fn=run_fn
    )
    submit = broker.submit

    def timed_submit(spec, priority=Priority.BATCH):
        key = run_key(spec)
        with submit_lock:
            ours = key not in submitted_at
            if ours:
                submitted_at[key] = time.perf_counter()
        try:
            handle = submit(spec, priority=priority)
        except BaseException:
            if ours:
                with submit_lock:
                    submitted_at.pop(key, None)
            raise
        if handle.cached and ours:
            with submit_lock:
                submitted_at.pop(key, None)
        return handle

    broker.submit = timed_submit
    server = make_server(config, broker=broker)
    print(f"perfbench traced service on {server.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
        snapshot = cache.stats.snapshot()
        stats = state_cache.stats() if state_cache is not None else None
        payload = {
            "layers": span_layers(tracer),
            "queue_wait_s": tracer.samples.get("broker.queue_wait", []),
            "load_hit_s": tracer.samples.get("persistence.load_hit", []),
            "per_spec": per_spec,
            "store_s": backend.store_s,
            "persistence": {"lookups": snapshot.hits + snapshot.misses, "hits": snapshot.hits},
            "state_cache": (
                None
                if stats is None
                else {"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions}
            ),
        }
        args.trace_out.write_text(json.dumps(payload))
        tracer.dump(args.trace_out.with_suffix(".spans.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
