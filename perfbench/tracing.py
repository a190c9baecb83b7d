"""Spans and timing wrappers for the traced run, installed from the benchmark's side.

Nothing here edits the program: every timer sits around a public call the
benchmark makes itself, inside an object the benchmark constructs and hands
to the program through a public parameter (an executor, a ``RunCache``
backend, a broker ``run_fn``), or inside a controller factory registered with
``register_scheme(..., replace=True)``.  Coarse spans (one per spec, batch
or table) are kept one by one; per-round timers (controller rounds, channel
deliveries) are summed into their enclosing span so the engine's self time
can be derived without keeping a span per round.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from percentiles import p50_or_zero, percentile

#: Every per-layer metric a traced run reports, with its unit, in the order of
#: ``BENCHMARK.json``.  Layers a workload does not load report zero.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("scenario.builds", "count"),
    ("scenario.build_p50_s", "s"),
    ("scenario.deploy_s", "s"),
    ("scenario.index_elect_s", "s"),
    ("scenario.thin_s", "s"),
    ("scenario.steps_sum_s", "s"),
    ("state_cache.lookups", "count"),
    ("state_cache.hit_ratio", "ratio"),
    ("state_cache.evictions", "count"),
    ("state_cache.copy_p50_s", "s"),
    ("orchestration.specs", "count"),
    ("orchestration.build_initial_state_s", "s"),
    ("orchestration.simulate_from_s", "s"),
    ("engine.rounds", "count"),
    ("engine.round_p50_s", "s"),
    ("engine.self_s", "s"),
    ("core.execute_round_s", "s"),
    ("core.moves", "count"),
    ("core.process_success_ratio", "ratio"),
    ("channel.deliver_s", "s"),
    ("channel.messages_sent", "count"),
    ("channel.delivered_ratio", "ratio"),
    ("persistence.lookups", "count"),
    ("persistence.hit_ratio", "ratio"),
    ("persistence.load_p50_s", "s"),
    ("persistence.store_p50_s", "s"),
    ("persistence.record_bytes_p50", "bytes"),
    ("figures.tables_csv_s", "s"),
    ("broker.submitted", "count"),
    ("broker.cache_hits", "count"),
    ("broker.dedup_hits", "count"),
    ("broker.executed", "count"),
    ("broker.failed", "count"),
    ("broker.rejected", "count"),
    ("broker.queue_wait_p50_s", "s"),
    ("broker.queue_wait_p90_s", "s"),
    ("serve.requests.hit", "count"),
    ("serve.requests.miss", "count"),
    ("serve.requests.stream", "count"),
    ("serve.http_errors", "count"),
    ("serve.hit_overhead_p50_s", "s"),
    ("serve.hit_p90_s", "s"),
    ("serve.novel_p90_s", "s"),
    ("serve.generator_late_p90_s", "s"),
    ("serve.stream_first_round_p50_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Spans that time a whole spec's build or simulation.
BUILD_SPAN = "orchestration.build_initial_state"
SIMULATE_SPAN = "orchestration.simulate_from"


@dataclasses.dataclass
class Span:
    """One finished span; ``children`` is the time its nested spans and timers covered."""

    name: str
    start: float
    end: float = 0.0
    top: bool = True
    children: float = 0.0
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall time of the span."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by nested spans and timers."""
        return self.duration - self.children


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Time the body as a span nested in the calling thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name=name, start=time.perf_counter(), top=parent is None, attrs=attrs)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            if parent is not None:
                parent.children += span.duration
            with self._lock:
                self.spans.append(span)

    def timer(self, name: str, seconds: float) -> None:
        """Add one fine-grained timing to ``name``'s total and to the open span."""
        stack = self._stack()
        if stack:
            stack[-1].children += seconds
        with self._lock:
            self.totals[name] += seconds
            self.calls[name] += 1

    def sample(self, name: str, value: float) -> None:
        """Keep one value of a per-layer distribution."""
        with self._lock:
            self.samples[name].append(value)

    def timed(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped in a :meth:`timer` of ``name``."""

        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.timer(name, time.perf_counter() - start)

        return timed_call

    def named(self, name: str) -> List[Span]:
        """Every finished span called ``name``."""
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(span.duration for span in self.named(name))

    def top_level_total(self) -> float:
        """Summed duration of the spans opened outside any other span."""
        with self._lock:
            return sum(span.duration for span in self.spans if span.top)

    def dump(self, path) -> None:
        """Write every span, timer total and sample count as JSON."""
        with self._lock:
            payload = {
                "spans": [
                    [span.name, span.start, span.end, span.top, span.children, span.attrs]
                    for span in self.spans
                ],
                "totals": dict(self.totals),
                "calls": dict(self.calls),
                "samples": {name: len(values) for name, values in self.samples.items()},
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ------------------------------------------------------------ engine + core
def trace_schemes(tracer: Tracer, names: Sequence[str]) -> None:
    """Re-register ``names`` with factories that time each controller round and delivery.

    The factory wraps the controller instance it returns: ``execute_round``
    feeds ``core.execute_round`` and the per-round period sample
    ``engine.round`` (start to start of consecutive rounds), and the channel
    the engine binds gets its ``deliver`` timed as ``channel.deliver``.
    """
    from repro.experiments.registry import get_scheme, register_scheme

    for name in names:
        register_scheme(name, _traced_factory(get_scheme(name), tracer), replace=True)


def _traced_factory(factory: Callable, tracer: Tracer) -> Callable:
    def traced_factory(state):
        controller = factory(state)
        execute_round = controller.execute_round
        bind_channel = controller.bind_channel
        previous_start: List[Optional[float]] = [None]

        def timed_round(*args, **kwargs):
            start = time.perf_counter()
            if previous_start[0] is not None:
                tracer.sample("engine.round", start - previous_start[0])
            previous_start[0] = start
            try:
                return execute_round(*args, **kwargs)
            finally:
                tracer.timer("core.execute_round", time.perf_counter() - start)

        def traced_bind(channel):
            if channel is not None:
                channel.deliver = tracer.timed("channel.deliver", channel.deliver)
            bind_channel(channel)

        controller.execute_round = timed_round
        controller.bind_channel = traced_bind
        return controller

    return traced_factory


# -------------------------------------------------------------- persistence
def timed_backend(inner, tracer: Tracer):
    """A ``CacheBackend`` that times every load and store of ``inner``.

    Batch reads and writes are timed as a whole and recorded per record
    (batch time divided by its size), so JSON and sqlite stores report in
    the same unit.
    """
    from repro.experiments.persistence import CacheBackend

    class TimedBackend(CacheBackend):
        kind = inner.kind

        def __init__(self) -> None:
            self.inner = inner
            self.path = getattr(inner, "path", None)
            #: Seconds each single-record store took, by run key.
            self.store_s = {}

        def load(self, key):
            start = time.perf_counter()
            document = inner.load(key)
            elapsed = time.perf_counter() - start
            tracer.timer("persistence.load", elapsed)
            tracer.sample("persistence.load", elapsed)
            if document is not None:
                tracer.sample("persistence.load_hit", elapsed)
            return document

        def store(self, key, document):
            start = time.perf_counter()
            path = inner.store(key, document)
            elapsed = time.perf_counter() - start
            tracer.timer("persistence.store", elapsed)
            tracer.sample("persistence.store", elapsed)
            tracer.sample("persistence.record_bytes", float(len(document.encode("utf-8"))))
            self.store_s[key] = elapsed
            return path

        def get_many(self, keys):
            start = time.perf_counter()
            documents = inner.get_many(keys)
            share = (time.perf_counter() - start) / max(1, len(keys))
            tracer.timer("persistence.load", share * len(keys))
            for _ in keys:
                tracer.sample("persistence.load", share)
            return documents

        def put_many(self, items):
            start = time.perf_counter()
            inner.put_many(items)
            share = (time.perf_counter() - start) / max(1, len(items))
            tracer.timer("persistence.store", share * len(items))
            for document in items.values():
                tracer.sample("persistence.store", share)
                tracer.sample("persistence.record_bytes", float(len(document.encode("utf-8"))))

        def contains(self, key):
            return inner.contains(key)

        def count(self):
            return inner.count()

        def clear(self):
            return inner.clear()

        def iter_keys(self):
            return inner.iter_keys()

    return TimedBackend()


def traced_run_cache(tracer: Tracer, cache_dir, backend):
    """A ``RunCache`` whose batch lookups and writes are spans."""
    from repro.experiments.persistence import RunCache

    class TracedRunCache(RunCache):
        def get_many(self, specs):
            with tracer.span("persistence.get_many", records=len(specs)):
                return super().get_many(specs)

        def put_many(self, records):
            with tracer.span("persistence.put_many", records=len(records)):
                return super().put_many(records)

    return TracedRunCache(cache_dir, backend=backend)


# ----------------------------------------------------------------- scenario
def decompose_build(config) -> Optional[Dict[str, object]]:
    """Redo ``config``'s build step by step through its public calls and time each step.

    Deploy (``deploy_uniform``), index and elect (``WsnState(...)``), thin
    (``ThinningToEnabledCount.apply``).  The result must be byte-equal to
    ``build_scenario_state`` of the same config without batteries; the direct
    build time of the full config is reported beside the sum of the steps, so
    a decomposition gone stale (a new step, a moved cost) shows as a gap.
    Returns ``None`` for configs outside the uniform, thinned shape every
    workload uses.
    """
    from repro.network.deployment import deploy_uniform
    from repro.network.failures import ThinningToEnabledCount
    from repro.network.state import WsnState
    from repro.sim.rng import derive_rng
    from repro.sim.scenario import build_scenario_state

    if config.deployment != "uniform" or config.target_enabled is None:
        return None
    start = time.perf_counter()
    grid = config.make_grid()
    arrays = deploy_uniform(
        grid, config.deployed_count, derive_rng(config.seed, "deployment"), as_arrays=True
    )
    deployed = time.perf_counter()
    state = WsnState(grid, arrays, head_policy=config.head_policy_fn)
    indexed = time.perf_counter()
    ThinningToEnabledCount(target_enabled=config.target_enabled).apply(
        state, derive_rng(config.seed, "thinning")
    )
    thinned = time.perf_counter()
    reference = build_scenario_state(
        dataclasses.replace(config, initial_energy=None, initial_energy_jitter=0.0)
    )
    identical = state.to_bytes() == reference.to_bytes()
    direct_start = time.perf_counter()
    build_scenario_state(config)
    direct = time.perf_counter() - direct_start
    return {
        "deploy_s": deployed - start,
        "index_elect_s": indexed - deployed,
        "thin_s": thinned - indexed,
        "steps_sum_s": thinned - start,
        "direct_s": direct,
        "identical": identical,
    }


def scenario_layer(decompositions: Sequence[Dict[str, object]], builds: int) -> Dict[str, float]:
    """The ``scenario.*`` metrics from decomposed builds and the program's build count."""

    def p50(key: str) -> float:
        return p50_or_zero([float(entry[key]) for entry in decompositions])

    return {
        "scenario.builds": float(builds),
        "scenario.build_p50_s": p50("direct_s"),
        "scenario.deploy_s": p50("deploy_s"),
        "scenario.index_elect_s": p50("index_elect_s"),
        "scenario.thin_s": p50("thin_s"),
        "scenario.steps_sum_s": p50("steps_sum_s"),
    }


# ------------------------------------------------------------- aggregation
def record_layers(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Engine, core and channel counts read from run records (``record_to_dict`` form)."""
    metrics = [record["metrics"] for record in records]
    initiated = sum(m["processes_initiated"] for m in metrics)
    sent = sum(m["messages_sent"] for m in metrics)
    return {
        "engine.rounds": float(sum(record["rounds_executed"] for record in records)),
        "core.moves": float(sum(m["total_moves"] for m in metrics)),
        "core.process_success_ratio": (
            sum(m["processes_converged"] for m in metrics) / initiated if initiated else 0.0
        ),
        "channel.messages_sent": float(sent),
        "channel.delivered_ratio": (
            sum(m["messages_delivered"] for m in metrics) / sent if sent else 0.0
        ),
    }


def span_layers(tracer: Tracer) -> Dict[str, float]:
    """Orchestration, engine, core, channel and persistence timings from one process's spans."""
    builds = tracer.named(BUILD_SPAN)
    simulations = tracer.named(SIMULATE_SPAN)
    copies = [span.duration for span in builds if span.attrs.get("state_cache_hit")]
    store = tracer.samples.get("persistence.store", [])
    return {
        "orchestration.specs": float(len(simulations)),
        "orchestration.build_initial_state_s": sum(span.duration for span in builds),
        "orchestration.simulate_from_s": sum(span.duration for span in simulations),
        "state_cache.copy_p50_s": p50_or_zero(copies),
        "engine.round_p50_s": p50_or_zero(tracer.samples.get("engine.round", [])),
        "engine.self_s": sum(span.self_time for span in simulations),
        "core.execute_round_s": tracer.totals.get("core.execute_round", 0.0),
        "channel.deliver_s": tracer.totals.get("channel.deliver", 0.0),
        "persistence.load_p50_s": p50_or_zero(tracer.samples.get("persistence.load", [])),
        "persistence.store_p50_s": p50_or_zero(store),
        "persistence.record_bytes_p50": p50_or_zero(
            tracer.samples.get("persistence.record_bytes", [])
        ),
        "figures.tables_csv_s": tracer.total("figures.tables_csv"),
    }


def state_cache_layer(lookups: int, hits: int, evictions: int) -> Dict[str, float]:
    """The ``state_cache`` counters (hit ratio of zero lookups is zero)."""
    return {
        "state_cache.lookups": float(lookups),
        "state_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "state_cache.evictions": float(evictions),
    }


def persistence_counts(lookups: int, hits: int) -> Dict[str, float]:
    """The ``RunCache`` lookup counters."""
    return {
        "persistence.lookups": float(lookups),
        "persistence.hit_ratio": hits / lookups if lookups else 0.0,
    }


def complete(layers: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every :data:`PER_LAYER` metric with its unit, zero where the workload has no such layer."""
    return {
        name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER
    }


def p90_or_zero(values: Sequence[float]) -> float:
    """90th percentile of a per-layer sample, or ``0.0`` when empty."""
    return percentile(values, 90) if values else 0.0
