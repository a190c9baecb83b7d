"""HTTP experiment service: cache-first spec/scenario/figure queries over the broker.

The server is a stdlib :class:`http.server.ThreadingHTTPServer` (no new
dependencies) whose handler threads share one
:class:`~repro.experiments.broker.ExperimentBroker` and reach the record
store (a :class:`~repro.experiments.persistence.RunCache`) only through it:

* ``GET  /health`` — liveness + uptime.
* ``GET  /stats`` — cache hit/miss counters and broker admission counters.
* ``GET  /schemes`` — the registered recovery schemes.
* ``GET  /scenarios`` — the curated catalog.
* ``GET  /scenario/<name>[?smoke=1]`` — run a catalog scenario cache-first
  through the broker and return its tabulated records.
* ``GET  /figure/<fig6|fig7|fig8>[?quick=1&trials=k]`` — the Section-5
  figure series, cache-first through the broker.  A sweep of more than
  :data:`MAX_BATCH_SPECS` specs is refused with 400 before any spec is
  built.  Both batch endpoints pass the broker as ``execute_many``'s
  executor, which admits the batch whole or answers 503 with nothing
  queued.
* ``POST /run`` — execute one spec (JSON body of at most
  :data:`MAX_BODY_BYTES`, see :func:`spec_from_request`); answered from the
  cache when stored, admitted
  through the broker otherwise (``?priority=batch`` yields to interactive
  traffic).  With ``?stream=1`` the response is newline-delimited JSON that
  carries the run's **live per-round series** — one ``round`` event per
  simulated round as it happens (via the engine's ``round_observer`` hook) —
  followed by the final record (or an ``error`` event when the run raises).
* ``POST /shutdown`` — drain and stop (the serve smoke gate uses this).

Identical concurrent ``POST /run`` requests collapse onto one simulation
(the broker's in-flight dedup), so a thundering herd of the same query costs
one run plus N-1 table lookups.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.experiments.broker import (
    BrokerQueueFull,
    ExperimentBroker,
    Priority,
)
from repro.experiments.catalog import catalog_names, load_catalog_scenario
from repro.experiments.figures import (
    PAPER_SPARE_VALUES,
    QUICK_SPARE_VALUES,
    figure6_processes_and_success,
    figure7_node_movements,
    figure8_total_distance,
    run_section5_experiment,
)
from repro.experiments.orchestration import RunSpec, build_initial_state, simulate_from
from repro.experiments.persistence import (
    make_cache,
    record_to_dict,
    run_key,
    spec_from_dict,
)
from repro.experiments.registry import available_schemes
from repro.experiments.results import ExperimentResult
from repro.experiments.scenario_files import tabulate_records
from repro.network.channel import channel_to_dict, parse_channel_spec

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8008

#: The figure endpoints the server exposes (each maps to a driver function).
FIGURE_ENDPOINTS = ("fig6", "fig7", "fig8")

#: Largest ``POST /run`` body the server accepts (1 MiB).  A spec document is
#: a few KB; a larger declared length is refused with 413 before any of the
#: body is read.
MAX_BODY_BYTES = 1 << 20

#: Admission limits on a ``POST /run`` spec, checked by
#: :func:`spec_from_request` before anything is built; a spec above one is
#: refused with 400.  They admit the paper's Section-5 tier (16x16 cells,
#: 5000 sensors) and the largest ``bench_scale`` tier (256x256 cells, ~197k
#: sensors, a build of about 0.3 s) and refuse specs whose build alone would
#: hold a handler thread: a 1000x1000 grid with 1000 sensors takes seconds.
MAX_GRID_CELLS = 256 * 256
MAX_DEPLOYED_COUNT = 200_000
MAX_ROUNDS = 100_000

#: Admission limit on a ``GET /figure`` sweep: spare values x trials x two
#: schemes.  A larger sweep is refused with 400 before any spec is built,
#: because building and looking up 40,000 specs holds a handler thread for
#: seconds.  It admits 100 trials on the paper sweep and 250 on the quick one.
MAX_BATCH_SPECS = 2000


class _BodyTooLarge(ValueError):
    """A request declared a body longer than :data:`MAX_BODY_BYTES` (HTTP 413)."""


@dataclasses.dataclass
class ServeConfig:
    """Configuration of one :class:`ExperimentServer`.

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` asks the OS for an ephemeral port (tests
        and the smoke gate use this).
    cache_dir:
        Root of the persistent run store.  ``None`` creates a private
        temporary directory — the service still dedups and caches within
        its lifetime, but forgets everything on exit.
    cache_backend:
        ``"sqlite"`` (default — the concurrent-safe choice for a shared
        long-running store) or ``"json"``.
    workers:
        Broker worker threads simulating cache misses.
    queue_limit:
        Bound on queued-but-not-running specs.  A request is admitted whole:
        one whose new specs (not cached, not already in flight) do not fit
        beside the pending ones answers HTTP 503 and queues none of them, so
        a ``/figure`` or ``/scenario`` batch with more new specs than the
        bound is always refused.
    verbose:
        Log one line per request to stderr.

    ``port``, ``workers`` and ``queue_limit`` are checked on construction
    (the last two as the broker checks them), so a bad value is refused
    before any server binds.
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    cache_dir: Optional[Path] = None
    cache_backend: str = "sqlite"
    workers: int = 2
    queue_limit: Optional[int] = 256
    verbose: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0-65535, got {self.port}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1 or None, got {self.queue_limit}")


def spec_from_request(payload: object) -> RunSpec:
    """Parse a ``POST /run`` body into a :class:`RunSpec`.

    The body is the ``spec_to_dict`` form with every field beyond
    ``scenario`` and ``scheme`` optional (an absent one takes the spec's
    default; ``seed`` defaults to the scenario seed), and ``channel`` also
    accepts the CLI's string form (``"lossy:0.2"``).  Raises ``ValueError``
    on anything the spec refuses, an unregistered scheme, or a spec above an
    admission limit (:data:`MAX_GRID_CELLS`, :data:`MAX_DEPLOYED_COUNT`,
    :data:`MAX_ROUNDS`) — the handler maps that to HTTP 400.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    body = dict(payload)
    body.pop("format_version", None)
    for field in ("scenario", "scheme"):
        if field not in body:
            raise ValueError(f"request body is missing the {field!r} field")
    if not isinstance(body["scenario"], dict):
        raise ValueError("'scenario' must be a JSON object of ScenarioConfig fields")
    channel = body.get("channel")
    if isinstance(channel, str):
        body["channel"] = channel_to_dict(parse_channel_spec(channel))
    body.setdefault("seed", body["scenario"].get("seed", 0))
    try:
        spec = spec_from_dict(body)
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed run spec: {error}") from error
    if spec.scheme not in available_schemes():
        raise ValueError(
            f"unknown scheme {spec.scheme!r}; available: {list(available_schemes())}"
        )
    scenario = spec.scenario
    for name, value, limit in (
        ("columns*rows", scenario.cell_count, MAX_GRID_CELLS),
        ("deployed_count", scenario.deployed_count, MAX_DEPLOYED_COUNT),
        ("max_rounds", spec.max_rounds or 0, MAX_ROUNDS),
    ):
        if value > limit:
            raise ValueError(f"{name} = {value} exceeds the admission limit of {limit}")
    return spec


def _run_failure(error: Exception) -> str:
    """The message a run that raised is reported with, plain or streamed."""
    return f"run failed: {type(error).__name__}: {error}"


def _result_payload(result: ExperimentResult) -> Dict[str, object]:
    """JSON form of an :class:`ExperimentResult` table."""
    return {
        "name": result.name,
        "description": result.description,
        "columns": result.columns,
        "rows": result.rows,
    }


class ExperimentServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` owning the broker and config.

    Handler threads reach the shared state through ``self.server``, and the
    record store through ``self.server.broker.cache``; the broker may be
    injected (tests do) or built from the config.  The server binds before
    it builds a broker, so an unusable address raises ``OSError`` with no
    broker thread started.
    """

    daemon_threads = True

    def __init__(
        self, config: ServeConfig, broker: Optional[ExperimentBroker] = None
    ) -> None:
        self.config = config
        self._temp_dir: Optional[tempfile.TemporaryDirectory] = None
        super().__init__((config.host, config.port), _RequestHandler)
        if broker is None:
            cache_dir = config.cache_dir
            if cache_dir is None:
                self._temp_dir = tempfile.TemporaryDirectory(prefix="repro-serve-")
                cache_dir = Path(self._temp_dir.name)
            try:
                broker = ExperimentBroker(
                    cache=make_cache(cache_dir, backend=config.cache_backend),
                    workers=config.workers,
                    queue_limit=config.queue_limit,
                )
            except BaseException:
                self.server_close()
                raise
        self.broker = broker
        self.started_monotonic = time.monotonic()

    @property
    def url(self) -> str:
        """Base URL of the bound server (after the ephemeral port resolves)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Shut down the broker and release the (possibly temporary) store.

        The store's backend closes the connections it keeps between
        requests, so a sqlite store is checkpointed and no file of it stays
        open.
        """
        self.broker.close()
        self.server_close()
        if self.broker.cache is not None:
            self.broker.cache.backend.close()
        if self._temp_dir is not None:
            self._temp_dir.cleanup()


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared broker (one thread each)."""

    server: ExperimentServer  # narrowed for type checkers

    #: Whether the current request's status line has been written.
    _response_started = False

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Per-request logging, silenced unless the server is verbose."""
        if self.server.config.verbose:
            super().log_message(format, *args)

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        """Start a response, noting that this request's status is on its way."""
        self._response_started = True
        super().send_response(code, message)

    @contextlib.contextmanager
    def _reported_failures(self) -> Iterator[None]:
        """Answer what a route raises: 503 for a full broker queue, else 500.

        Only while no response has started: a streamed ``/run`` writes its
        200 first and reports a failed run with an ``error`` event, so an
        error after that propagates instead of writing a second status line.
        """
        self._response_started = False
        try:
            yield
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client left; there is nobody to answer
        except BrokerQueueFull as error:
            self._send_error_json(503, str(error))
        except Exception as error:  # noqa: BLE001 - any other fault -> HTTP 500
            if self._response_started:
                raise
            self._send_error_json(500, f"internal error: {type(error).__name__}: {error}")

    def _send_json(self, status: int, payload: object) -> None:
        """One complete JSON response."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        """A JSON error envelope."""
        self._send_json(status, {"error": message})

    def _route(self) -> Tuple[str, List[str], Dict[str, List[str]]]:
        """Split the request target into (path, segments, query dict)."""
        parsed = urlparse(self.path)
        segments = [part for part in parsed.path.split("/") if part]
        return parsed.path, segments, parse_qs(parsed.query)

    @staticmethod
    def _flag(query: Dict[str, List[str]], name: str) -> bool:
        """Whether a query flag is present and truthy (``1``, ``true``, ``yes``)."""
        values = query.get(name, [])
        return bool(values) and values[-1].lower() in ("1", "true", "yes")

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch the read-only endpoints."""
        _, segments, query = self._route()
        with self._reported_failures():
            if segments == ["health"]:
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "uptime_seconds": round(
                            time.monotonic() - self.server.started_monotonic, 3
                        ),
                    },
                )
            elif segments == ["stats"]:
                self._handle_stats()
            elif segments == ["schemes"]:
                self._send_json(200, {"schemes": list(available_schemes())})
            elif segments == ["scenarios"]:
                self._send_json(
                    200,
                    {
                        "scenarios": [
                            {
                                "name": name,
                                "description": load_catalog_scenario(name).description,
                            }
                            for name in catalog_names()
                        ]
                    },
                )
            elif len(segments) == 2 and segments[0] == "scenario":
                self._handle_scenario(segments[1], query)
            elif len(segments) == 2 and segments[0] == "figure":
                self._handle_figure(segments[1], query)
            else:
                self._send_error_json(404, f"unknown endpoint {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Dispatch the mutating endpoints (``/run``, ``/shutdown``)."""
        _, segments, query = self._route()
        with self._reported_failures():
            if segments == ["run"]:
                self._handle_run(query)
            elif segments == ["shutdown"]:
                self._send_json(200, {"status": "shutting down"})
                threading.Thread(target=self.server.shutdown, daemon=True).start()
            else:
                self._send_error_json(404, f"unknown endpoint {self.path!r}")

    # ------------------------------------------------------------- handlers
    def _handle_stats(self) -> None:
        """``GET /stats``: cache + broker counters."""
        cache = self.server.broker.cache
        payload: Dict[str, object] = {
            "uptime_seconds": round(
                time.monotonic() - self.server.started_monotonic, 3
            ),
            "broker": self.server.broker.stats().as_dict(),
        }
        if cache is not None:
            payload["cache"] = {
                "backend": cache.backend.kind,
                "records": len(cache),
                **cache.stats.snapshot().as_dict(),
            }
        state_cache_stats = self.server.broker.state_cache_stats()
        if state_cache_stats is not None:
            payload["state_cache"] = state_cache_stats.as_dict()
        self._send_json(200, payload)

    def _read_body(self) -> object:
        """Parse the request body as JSON (raises ``ValueError`` when invalid).

        The declared length is checked before reading: a negative one would
        make ``rfile.read`` block until the client closes the connection.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise ValueError(f"Content-Length must be >= 0, got {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from error

    def _handle_run(self, query: Dict[str, List[str]]) -> None:
        """``POST /run``: one spec, cache-first, optionally streamed."""
        try:
            spec = spec_from_request(self._read_body())
        except _BodyTooLarge as error:
            self._send_error_json(413, str(error))
            return
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        priority_name = (query.get("priority") or ["interactive"])[-1].lower()
        if priority_name not in ("interactive", "batch"):
            self._send_error_json(
                400, f"unknown priority {priority_name!r}; use interactive or batch"
            )
            return
        priority = (
            Priority.INTERACTIVE if priority_name == "interactive" else Priority.BATCH
        )
        if self._flag(query, "stream"):
            self._handle_run_stream(spec)
            return
        handle = self.server.broker.submit(spec, priority=priority)
        try:
            record = handle.result()
        except Exception as error:  # noqa: BLE001 - simulation errors -> HTTP 500
            self._send_error_json(500, _run_failure(error))
            return
        self._send_json(
            200,
            {
                "key": handle.key,
                "cached": record.cached,
                "deduplicated": handle.deduplicated,
                "record": record_to_dict(record),
            },
        )

    def _handle_run_stream(self, spec: RunSpec) -> None:
        """``POST /run?stream=1``: NDJSON with live per-round series.

        A cached spec answers with one ``cached`` event (the record's
        per-round series is not part of the frozen record schema, so there
        is nothing to replay); a novel spec simulates in this handler thread
        with the engine's ``round_observer`` writing each round's sample to
        the socket as it is produced, then publishes the finished record to
        the shared cache so the *next* query is a hit.  A run that raises
        ends the stream with one ``error`` event carrying the plain ``/run``
        500 message, and nothing is cached.  A client that leaves mid-stream
        (a reset or an orderly close) only ends the writing: the first
        failed write stops all later ones, and the run still finishes and is
        cached.
        """
        key = run_key(spec)
        cache = self.server.broker.cache
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        client_gone = False

        def emit_line(payload: Dict[str, object]) -> None:
            """Write one NDJSON event and flush so it arrives live (while anyone listens)."""
            nonlocal client_gone
            if client_gone:
                return
            try:
                self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                client_gone = True

        if cache is not None:
            hit = cache.get(spec)
            if hit is not None:
                emit_line(
                    {"event": "cached", "key": key, "record": record_to_dict(hit)}
                )
                return
        emit_line({"event": "accepted", "key": key})

        def observe(round_index: int, sample: Dict[str, float]) -> None:
            """The engine's per-round hook: forward the sample to the socket."""
            emit_line({"event": "round", "round": round_index, **sample})

        # Streamed runs take the broker's path to a record (the same initial
        # state cache, the same engine set-up), so the record they publish is
        # byte-identical to a brokered one.
        try:
            record = simulate_from(
                build_initial_state(spec), spec, round_observer=observe
            )
        except Exception as error:  # noqa: BLE001 - reported to the client
            emit_line({"event": "error", "key": key, "error": _run_failure(error)})
            return
        if cache is not None:
            cache.put(record)
        emit_line({"event": "done", "key": key, "record": record_to_dict(record)})

    def _handle_scenario(self, name: str, query: Dict[str, List[str]]) -> None:
        """``GET /scenario/<name>``: run a catalog scenario through the broker."""
        try:
            scenario = load_catalog_scenario(name)
        except KeyError:
            self._send_error_json(
                404, f"unknown scenario {name!r}; see /scenarios for the catalog"
            )
            return
        if self._flag(query, "smoke"):
            scenario = scenario.smoke_variant()
        records = scenario.execute(executor=self.server.broker)
        table = tabulate_records(scenario, records)
        self._send_json(
            200,
            {
                "scenario": name,
                "cached_records": sum(1 for record in records if record.cached),
                "total_records": len(records),
                **_result_payload(table),
            },
        )

    def _handle_figure(self, name: str, query: Dict[str, List[str]]) -> None:
        """``GET /figure/<name>``: the Section-5 series behind figures 6-8."""
        if name not in FIGURE_ENDPOINTS:
            self._send_error_json(
                404, f"unknown figure {name!r}; choose from {list(FIGURE_ENDPOINTS)}"
            )
            return
        raw_trials = (query.get("trials") or ["1"])[-1]
        trials = int(raw_trials) if raw_trials.isascii() and raw_trials.isdigit() else 0
        if trials < 1:
            self._send_error_json(
                400, f"trials must be an integer >= 1, got {raw_trials!r}"
            )
            return
        spare_values = (
            QUICK_SPARE_VALUES if self._flag(query, "quick") else PAPER_SPARE_VALUES
        )
        # Two schemes, SR and AR, at every (N, trial) cell of the sweep.
        batch_specs = len(spare_values) * trials * 2
        if batch_specs > MAX_BATCH_SPECS:
            self._send_error_json(
                400,
                f"a figure sweep of {batch_specs} specs (trials = {trials}) exceeds "
                f"the admission limit of {MAX_BATCH_SPECS}",
            )
            return
        experiment = run_section5_experiment(
            spare_values=spare_values,
            trials=trials,
            executor=self.server.broker,
        )
        driver = {
            "fig6": figure6_processes_and_success,
            "fig7": figure7_node_movements,
            "fig8": figure8_total_distance,
        }[name]
        self._send_json(200, {"figure": name, **_result_payload(driver(experiment))})


def make_server(
    config: Optional[ServeConfig] = None, broker: Optional[ExperimentBroker] = None
) -> ExperimentServer:
    """Build (but do not start) an :class:`ExperimentServer`.

    Call ``serve_forever()`` on the result — typically from a dedicated
    thread — and ``close()`` when done.  ``broker`` injection is for tests
    and embedding; normally the broker and its store are built from the
    config.
    """
    return ExperimentServer(config or ServeConfig(), broker=broker)


def serve_forever(server: ExperimentServer) -> int:
    """Run a bound service until interrupted (the ``repro serve`` entry point)."""
    config = server.config
    cache = server.broker.cache
    cache_note = (
        f"{cache.backend.kind} cache at {cache.cache_dir}"
        if config.cache_dir is not None
        else f"ephemeral {cache.backend.kind} cache"
    )
    print(
        f"repro experiment service on {server.url} "
        f"({config.workers} workers, {cache_note}); Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
        snapshot = cache.stats.snapshot()
        print(
            f"served {snapshot.lookups} lookups, "
            f"{snapshot.hits} cache hits ({snapshot.hit_rate:.1%} hit rate)"
        )
    return 0


# ------------------------------------------------------------------ smoke gate
#: The catalog scenario whose smoke variant the smoke gate asks for twice.
SMOKE_SCENARIO = "paper-16x16"


def _smoke_spec_payload(seed: int = 7) -> Dict[str, object]:
    """A small fixed spec body the smoke gate queries twice."""
    return {
        "scenario": {
            "columns": 6,
            "rows": 6,
            "deployed_count": 200,
            "spare_surplus": 12,
            "seed": seed,
        },
        "scheme": "SR",
        "seed": seed,
        "max_rounds": 60,
    }


def run_serve_smoke(workers: int = 2) -> List[str]:
    """CI gate for the serving stack; returns failure messages (empty = OK).

    Starts a private server on an ephemeral port with an ephemeral sqlite
    cache, then checks the full request surface end to end: health, an
    uncached run (simulated), the identical run again (answered from the
    cache), a streamed run (one live ``round`` event per executed round,
    numbered from 0), stats consistency, the catalog listing, a catalog
    scenario's smoke variant cold and then answered from the cache (one row
    per scheme), the quick Figure-6 batch (one row per spare value), a
    figure batch with more new specs than the queue bound (503, nothing left
    pending), and clean shutdown.
    """
    from repro.serve.client import ServeClient, ServeError

    failures: List[str] = []
    config = ServeConfig(port=0, workers=workers, verbose=False)
    server = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(server.url)
    try:
        health = client.health()
        if health.get("status") != "ok":
            failures.append(f"health endpoint unhealthy: {health}")

        first = client.run(_smoke_spec_payload())
        if first.get("cached"):
            failures.append("first query of a novel spec claims to be cached")
        if "record" not in first or first["record"]["metrics"]["rounds"] < 1:
            failures.append("uncached run returned no usable record")

        second = client.run(_smoke_spec_payload())
        if not second.get("cached"):
            failures.append("repeated query was not answered from the cache")
        if second.get("record") != first.get("record"):
            failures.append("cached record differs from the simulated record")

        events = list(client.run_stream(_smoke_spec_payload(seed=11)))
        kinds = [event.get("event") for event in events]
        if kinds[:1] != ["accepted"] or kinds[-1:] != ["done"]:
            failures.append(f"stream framing wrong: {kinds[:3]}...{kinds[-1:]}")
        done = events[-1].get("record", {}) if events else {}
        executed = done.get("rounds_executed", 0)
        rounds = [event.get("round") for event in events if event.get("event") == "round"]
        if not rounds or rounds != list(range(executed)):
            failures.append(
                f"stream carried {len(rounds)} round event(s) numbered "
                f"{rounds[:1]}...{rounds[-1:]}, expected 0..{executed - 1} "
                "(the done record's rounds_executed)"
            )

        stats = client.stats()
        cache_stats = stats.get("cache", {})
        if cache_stats.get("hits", 0) < 1:
            failures.append(f"stats report no cache hit after a repeat query: {stats}")
        if stats.get("broker", {}).get("executed", 0) < 1:
            failures.append(f"stats report no executed run: {stats}")

        listed = len(client.scenarios())
        if listed != len(catalog_names()):
            failures.append(
                f"/scenarios listed {listed} entries, expected {len(catalog_names())}"
            )
        schemes = len(load_catalog_scenario(SMOKE_SCENARIO).schemes)
        for ask, cached in (("cold", 0), ("warm", schemes)):
            answer = client.scenario(SMOKE_SCENARIO, smoke=True)
            counts = (
                len(answer.get("rows", [])),
                answer.get("total_records"),
                answer.get("cached_records"),
            )
            if counts != (schemes, schemes, cached):
                failures.append(
                    f"{ask} {SMOKE_SCENARIO} smoke answered (rows, total, cached) = "
                    f"{counts}, expected {(schemes, schemes, cached)}"
                )

        rows = client.figure("fig6", quick=True).get("rows", [])
        if len(rows) != len(QUICK_SPARE_VALUES):
            failures.append(
                f"quick fig6 answered {len(rows)} rows, expected {len(QUICK_SPARE_VALUES)}"
            )

        try:
            client.figure("fig6", quick=True, trials=200)
            failures.append("a figure batch over the queue bound was admitted")
        except ServeError as error:
            if error.status != 503:
                failures.append(f"an oversized figure batch answered {error}, not 503")
        pending = client.stats().get("broker", {}).get("pending")
        if pending != 0:
            failures.append(f"a refused figure batch left {pending} specs pending")

        client.shutdown()
    except Exception as error:  # noqa: BLE001 - the gate reports, not raises
        failures.append(f"serve smoke raised {type(error).__name__}: {error}")
        server.shutdown()  # the checks stopped before asking /shutdown
    finally:
        thread.join(timeout=10)
        if thread.is_alive():
            failures.append("server thread did not shut down within 10s")
        server.close()
    return failures
