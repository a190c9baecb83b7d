"""served-mix: an open-loop request generator against a ``repro serve`` process.

Requests go out on a fixed schedule (:data:`workloads.SERVE_RATE` per second)
whatever the server does, over at most ``nproc`` connections in flight.  Each
request is timed from its due time, so a stall also delays the requests
queued behind it.  The generator's own lateness (hand-off time minus due
time) is reported separately: a run whose generator fell behind is invalid,
not slow.  The generator times the reference loop of ``calibration.py``
whenever no request is outstanding; latencies are scaled by the square root
of the median of those references (:data:`SERVED_ELASTICITY`), and each
server start-up by references timed just before and after it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

import calibration
import checks
import workloads
from percentiles import LATENCY_METRICS, finite, p50_or_zero, percentile
from tracing import (
    complete,
    decompose_build,
    p90_or_zero,
    persistence_counts,
    record_layers,
    scenario_layer,
    state_cache_layer,
)

#: Seconds to wait for a server to print its address and answer ``/health``.
START_TIMEOUT = 60.0
#: Servers started per run; the median start-up time is ``setup_s``.
SETUP_SAMPLES = 5
#: Novel records re-executed from scratch after the timed window.
RECOMPUTE_SAMPLE = 6
#: Distinct scenarios whose build is redone step by step in a traced run.
DECOMPOSED_SCENARIOS = 12
#: A generator whose 90th-percentile lateness exceeds this fell behind its schedule.
LATE_P90_LIMIT_S = 0.025
#: Seconds the next request must be away for the generator to time a reference loop.
REFERENCE_ROOM_S = 0.03
#: Power of the calibration scale applied to served latencies.  They follow
#: the host at about half the reference loop's rate: over twenty 30-second
#: runs the fitted elasticity of the run's median latency to its median
#: reference was 0.41 for repeats and 0.79 for novel requests (sockets,
#: sqlite and JSON slow less than pure Python does).  Full scaling
#: overcorrected (repeat median spread 0.23 against 0.13 raw over ten seeds);
#: the square root kept both medians below 0.13 on two sets of ten.
SERVED_ELASTICITY = 0.5


def connections() -> int:
    """Connections in flight at most: the processors this process may run on."""
    return len(os.sched_getaffinity(0))


class Server:
    """One server process: start-up time, address, and its resource use before it stops."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], log_path: Path) -> None:
        started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        try:
            self.url = self._read_url(started)
            host, port = _address(self.url)
            while True:
                try:
                    status, _ = _request(host, port, "GET", "/health", None, timeout=5)
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - started > START_TIMEOUT:
                    raise RuntimeError("server did not answer /health in time")
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_url(self, started: float) -> str:
        remaining = START_TIMEOUT - (time.perf_counter() - started)
        ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
        line = self.process.stdout.readline().decode("utf-8", errors="replace") if ready else ""
        for token in line.split():
            if token.startswith("http://"):
                return token
        raise RuntimeError(f"server printed no address (first line: {line!r})")

    def stats(self) -> Dict[str, object]:
        """The server's ``/stats`` document."""
        host, port = _address(self.url)
        _, body = _request(host, port, "GET", "/stats", None, timeout=30)
        return json.loads(body)

    def usage(self) -> Tuple[float, float]:
        """(peak resident memory in MB, CPU seconds used so far), read from ``/proc``."""
        pid = self.process.pid
        peak_kb = 0.0
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = float(line.split()[1])
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return peak_kb / 1024.0, (int(fields[11]) + int(fields[12])) / ticks

    def stop(self) -> None:
        """Ask the server to shut down and wait for the process to end."""
        try:
            host, port = _address(self.url)
            _request(host, port, "POST", "/shutdown", None, timeout=30)
            self.process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        """End the process if it still runs, and reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def _address(url: str) -> Tuple[str, int]:
    parsed = urlparse(url)
    return parsed.hostname, parsed.port


def _request(host, port, method, path, body, timeout):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# ------------------------------------------------------------------ traffic
def _send(host: str, port: int, request: Dict[str, object], due: float) -> Dict[str, object]:
    """Send one request; latencies are measured from ``due``."""
    body = json.dumps(request["payload"]).encode("utf-8")
    outcome: Dict[str, object] = {"latency_s": math.inf, "first_round_s": math.inf}
    connection = http.client.HTTPConnection(host, port, timeout=120)
    try:
        stream = request["kind"] == "stream"
        connection.request(
            "POST",
            "/run?stream=1" if stream else "/run",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        outcome["status"] = response.status
        if response.status != 200:
            response.read()
            outcome["error"] = f"HTTP {response.status}"
            return outcome
        if not stream:
            answer = json.loads(response.read())
            outcome["latency_s"] = time.perf_counter() - due
            outcome["cached"] = answer.get("cached")
            outcome["key"] = answer.get("key")
            outcome["record"] = answer.get("record")
            return outcome
        for raw in response:
            event = json.loads(raw)
            kind = event.get("event")
            if kind == "round" and not math.isfinite(outcome["first_round_s"]):
                outcome["first_round_s"] = time.perf_counter() - due
            elif kind in ("done", "cached"):
                outcome["latency_s"] = time.perf_counter() - due
                outcome["cached"] = kind == "cached"
                outcome["key"] = event.get("key")
                outcome["record"] = event.get("record")
        if "record" not in outcome:
            outcome["error"] = "stream ended without a record"
            outcome["latency_s"] = math.inf
    except (OSError, ValueError, http.client.HTTPException) as error:
        outcome["error"] = f"{type(error).__name__}: {error}"
        outcome["latency_s"] = math.inf
    finally:
        connection.close()
    return outcome


def run_traffic(url: str, requests: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Send ``requests`` open loop; returns per-request outcomes and the generator's lateness.

    While no request is outstanding and the next is not due for
    :data:`REFERENCE_ROOM_S`, the generator times the reference loop: the
    server is idle then and the client threads are parked, so the loop
    measures the host, not the benchmark's own load.

    The first request, an untimed warm-up one, is answered before the
    schedule starts.  Its write creates the server's sqlite store, and the
    program's ``SqliteBackend`` fails a lookup that connects while that write
    creates the database (``PRAGMA journal_mode=WAL``: "database is locked");
    a served-mix run at 5 requests/s met that race once in ten.
    """
    host, port = _address(url)
    outcomes: List[Optional[Dict[str, object]]] = [None] * len(requests)
    work: "queue.Queue" = queue.Queue()
    outstanding = [0]
    settled = threading.Condition()

    def worker() -> None:
        while True:
            item = work.get()
            if item is None:
                return
            index, due = item
            outcomes[index] = _send(host, port, requests[index], due)
            with settled:
                outstanding[0] -= 1
                settled.notify()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections())]
    for thread in threads:
        thread.start()
    lateness: List[float] = []
    references: List[Tuple[float, float]] = []
    interval = 1.0 / workloads.SERVE_RATE
    outcomes[0] = _send(host, port, requests[0], time.perf_counter())
    start = time.perf_counter()
    for index in range(1, len(requests)):
        due = start + index * interval
        with settled:
            idle = settled.wait_for(
                lambda: outstanding[0] == 0,
                timeout=max(0.0, due - REFERENCE_ROOM_S - time.perf_counter()),
            )
        began = time.perf_counter()
        if idle and due - began > REFERENCE_ROOM_S:
            reference = calibration.reference_loop()
            references.append((began + reference / 2, reference))
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness.append(time.perf_counter() - due)
        with settled:
            outstanding[0] += 1
        work.put((index, due))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=600)
    window_s = time.perf_counter() - (start + workloads.WARMUP_NOVEL * interval)
    if not references:  # the server never went idle; time the host after the traffic
        references.append((time.perf_counter(), calibration.reference()))
    return {
        "outcomes": outcomes,
        "lateness": lateness,
        "references": len(references),
        "scale": calibration.scale(statistics.median(ref for _, ref in references)),
        "window_s": window_s,
    }


# ------------------------------------------------------------------ checking
def check_outcomes(
    requests: Sequence[Dict[str, object]], outcomes: Sequence[Dict[str, object]], seed: int
) -> Tuple[set, List[str]]:
    """Indices of failed or wrong requests, and the first problems found."""
    wrong, problems = set(), []
    for index, (request, outcome) in enumerate(zip(requests, outcomes)):
        if outcome is None or "error" in outcome:
            wrong.add(index)
            problems.append(f"request {index}: {outcome and outcome.get('error')}")
            continue
        if request["kind"] == "hit":
            first = outcomes[request["origin"]] or {}
            violations = checks.repeat_violations(first, outcome)
        else:
            violations = checks.record_violations(outcome["record"])
            if outcome.get("cached"):
                violations.append("novel request was answered from the store")
        if violations:
            wrong.add(index)
            problems.extend(f"request {index}: {violation}" for violation in violations[:2])
    novel = [i for i, r in enumerate(requests) if r["kind"] != "hit" and i not in wrong]
    sampler = random.Random(f"recompute:served-mix:{seed}")
    for index in sampler.sample(novel, min(RECOMPUTE_SAMPLE, len(novel))):
        if checks.recompute_differs(outcomes[index]["record"]):
            wrong.add(index)
            problems.append(f"request {index}: record differs when recomputed from scratch")
    return wrong, problems


def _start(argv, env, log_path: Path) -> Server:
    """Start a server; its ``setup_scale`` comes from reference loops around the start."""
    before = calibration.reference()
    server = Server(argv, env, log_path)
    server.setup_scale = calibration.scale((before + calibration.reference()) / 2)
    return server


def _pass(workdir: Path, requests, env, argv_for, setup_samples: int) -> Dict[str, object]:
    """Start servers, send the mix to the last one, stop it; everything one pass measures."""
    setups = []
    for sample in range(setup_samples - 1):
        probe_dir = workdir / f"probe-{sample}"
        probe_dir.mkdir(parents=True)
        probe = _start(argv_for(probe_dir, None), env, workdir / "server.log")
        setups.append((probe.setup_s, probe.setup_scale))
        probe.stop()
    store_dir = workdir / "store"
    store_dir.mkdir(parents=True)
    trace_path = workdir / "server-trace.json"
    server = _start(argv_for(store_dir, trace_path), env, workdir / "server.log")
    setups.append((server.setup_s, server.setup_scale))
    try:
        before = server.stats()
        traffic = run_traffic(server.url, requests)
        after = server.stats()
        peak_rss_mb, cpu_s = server.usage()
    finally:
        server.stop()
    traffic.update(
        setups=setups,
        peak_rss_mb=peak_rss_mb,
        cpu_s=cpu_s,
        stats_before=before,
        stats_after=after,
    )
    if trace_path.exists():
        traffic["server_trace"] = json.loads(trace_path.read_text())
    return traffic


def served_metrics(requests, traffic, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Latencies are scaled by the median reference the generator timed, to
    the power :data:`SERVED_ELASTICITY`, or taken as measured when
    ``scaled`` is false.  A novel request's latency
    runs to its complete record, streamed or not.  The throughputs are the
    delivered rates of an open loop and are never scaled.
    """
    outcomes = traffic["outcomes"]
    timed = [i for i, request in enumerate(requests) if request["timed"]]
    factor = traffic["scale"] ** SERVED_ELASTICITY if scaled else 1.0

    def latencies(sample: str) -> List[float]:
        return [
            (outcomes[i] or {}).get("latency_s", math.inf) * factor
            for i in timed
            if (requests[i]["kind"] == "hit") == (sample == "repeat")
        ]

    answered = [i for i in timed if outcomes[i] and "error" not in outcomes[i]]
    rounds = sum(
        outcomes[i]["record"]["rounds_executed"] for i in answered if requests[i]["kind"] != "hit"
    )
    metrics = {
        "setup_s": statistics.median(
            setup * (scale if scaled else 1.0) for setup, scale in traffic["setups"]
        ),
        "specs_per_s": len(answered) / traffic["window_s"],
        "rounds_per_s": rounds / traffic["window_s"],
    }
    for name, (sample, q) in LATENCY_METRICS.items():
        metrics[name] = percentile(latencies(sample), q)
    return metrics


def run(root: Path, seed: int, seconds: float, trace: bool, workdir: Path, env) -> Dict[str, object]:
    """One served-mix run: untraced end-to-end metrics, or (``trace``) per-layer metrics."""
    from repro.experiments.figures import PAPER_SPARE_VALUES

    count = int(round(seconds * workloads.SERVE_RATE))
    requests = workloads.served_mix(seed, count, PAPER_SPARE_VALUES)
    python = sys.executable

    def serve_argv(store_dir: Path, trace_path: Optional[Path]) -> List[str]:
        return [python, "-m", "repro", "serve", "--port", "0", "--cache-dir", str(store_dir)]

    def launcher_argv(store_dir: Path, trace_path: Optional[Path]) -> List[str]:
        argv = [python, str(root / "perfbench" / "serve_launcher.py"), "--cache-dir", str(store_dir)]
        return argv + ["--trace-out", str(trace_path or store_dir / "trace.json")]

    untraced = _pass(workdir / "untraced", requests, env, serve_argv, 1 if trace else SETUP_SAMPLES)
    passes = [untraced]
    if trace:
        passes.append(_pass(workdir / "traced", requests, env, launcher_argv, 1))
    failed, problems, late = set(), [], False
    for traffic in passes:
        wrong, found = check_outcomes(requests, traffic["outcomes"], seed)
        failed |= wrong
        problems.extend(found)
        late = late or percentile(traffic["lateness"], 90) > LATE_P90_LIMIT_S
    measured = passes[-1]
    outcomes = measured["outcomes"]
    timed = [i for i, request in enumerate(requests) if request["timed"]]
    novel_records = [
        outcomes[i]["record"]
        for i, request in enumerate(requests)
        if request["kind"] != "hit" and outcomes[i] and "record" in outcomes[i]
    ]
    report = {
        "attempted": len(requests) * len(passes),
        "failed": len(failed),
        "problems": problems[:5],
        "late": late,
        "generator_late_p90_s": percentile(measured["lateness"], 90),
        "generator_late_max_s": max(measured["lateness"]),
        "records_sha256": checks.records_sha256(novel_records),
        "samples": {
            "repeat": sum(1 for i in timed if requests[i]["kind"] == "hit"),
            "novel": sum(1 for i in timed if requests[i]["kind"] != "hit"),
        },
    }
    if not trace:
        report["metrics"] = {
            **served_metrics(requests, untraced),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        report["wall_clock_metrics"] = served_metrics(requests, untraced, scaled=False)
        report["host_scale"] = untraced["scale"]
        report["samples"]["references"] = untraced["references"]
        return report
    report["layers"] = complete(
        _served_layers(requests, measured, untraced, novel_records)
    )
    return report


def _served_layers(requests, traced, untraced, novel_records) -> Dict[str, float]:
    """Per-layer metrics of a traced served-mix pass."""
    server = traced.get("server_trace", {})
    outcomes = traced["outcomes"]
    timed = [i for i, request in enumerate(requests) if request["timed"]]
    layers: Dict[str, float] = dict(server.get("layers", {}))
    layers.update(record_layers(novel_records))
    cache_stats = server.get("state_cache")
    if cache_stats is not None:
        lookups = cache_stats["hits"] + cache_stats["misses"]
        layers.update(state_cache_layer(lookups, cache_stats["hits"], cache_stats["evictions"]))
    builds = cache_stats["misses"] if cache_stats is not None else len(novel_records)
    from repro.experiments.persistence import spec_from_dict

    configs = list(dict.fromkeys(spec_from_dict(r["spec"]).scenario for r in novel_records))
    decompositions = [
        entry
        for entry in (decompose_build(config) for config in configs[:DECOMPOSED_SCENARIOS])
        if entry is not None
    ]
    layers.update(scenario_layer(decompositions, builds))
    persistence = server.get("persistence", {"lookups": 0, "hits": 0})
    layers.update(persistence_counts(persistence["lookups"], persistence["hits"]))
    before = traced["stats_before"]["broker"]
    after = traced["stats_after"]["broker"]
    for name in ("submitted", "cache_hits", "dedup_hits", "executed", "failed", "rejected"):
        layers[f"broker.{name}"] = float(after[name] - before[name])
    queue_wait = server.get("queue_wait_s", [])
    layers["broker.queue_wait_p50_s"] = p50_or_zero(queue_wait)
    layers["broker.queue_wait_p90_s"] = p90_or_zero(queue_wait)
    for kind in ("hit", "miss", "stream"):
        layers[f"serve.requests.{kind}"] = float(
            sum(1 for request in requests if request["kind"] == kind)
        )
    layers["serve.http_errors"] = float(
        sum(1 for outcome in outcomes if outcome is None or "error" in outcome)
    )
    hits = [
        (outcomes[i] or {}).get("latency_s", math.inf)
        for i in timed
        if requests[i]["kind"] == "hit"
    ]
    layers["serve.hit_overhead_p50_s"] = p50_or_zero(finite(hits)) - p50_or_zero(
        server.get("load_hit_s", [])
    )
    layers["serve.hit_p90_s"] = p90_or_zero(hits)
    layers["serve.novel_p90_s"] = p90_or_zero(
        [
            (outcomes[i] or {}).get("latency_s", math.inf)
            for i in timed
            if requests[i]["kind"] != "hit"
        ]
    )
    layers["serve.generator_late_p90_s"] = percentile(traced["lateness"], 90)
    layers["serve.stream_first_round_p50_s"] = percentile(
        [
            (outcomes[i] or {}).get("first_round_s", math.inf)
            for i in timed
            if requests[i]["kind"] == "stream"
        ],
        50,
    )
    per_spec, store_s = server.get("per_spec", {}), server.get("store_s", {})
    wall = unaccounted = 0.0
    for i in timed:
        outcome = outcomes[i]
        if requests[i]["kind"] != "miss" or not outcome or outcome.get("key") not in per_spec:
            continue
        parts = per_spec[outcome["key"]]
        wall += outcome["latency_s"]
        unaccounted += outcome["latency_s"] - (
            parts["queue_wait_s"] + parts["build_s"] + parts["simulate_s"]
            + store_s.get(outcome["key"], 0.0)
        )
    layers["trace.wall_s"] = wall
    layers["trace.unaccounted_s"] = unaccounted
    layers["trace.unaccounted_frac"] = unaccounted / wall if wall else 0.0
    layers["trace.overhead_frac"] = traced["cpu_s"] / untraced["cpu_s"] - 1.0
    return layers
