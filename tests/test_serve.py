"""Tests for the HTTP experiment service and its client.

The contracts exercised here:

* request parsing (:func:`spec_from_request`) fills defaults and rejects
  malformed bodies;
* a repeated ``/run`` query is answered from the cache with the identical
  record; concurrent identical queries collapse onto one simulation;
* ``/run?stream=1`` carries live per-round events and publishes the finished
  record so the next query is a hit, also when the client disconnects
  mid-stream (reset or orderly close): the run finishes quietly and is
  cached; a streamed run whose scheme raises ends with an ``error`` event,
  quietly, and caches nothing;
* ``/figure`` answers the table a local sweep computes, cold and warm, and
  ``/scenario/<name>`` the table a local run of the scenario computes,
  cold and then from the cache;
* error mapping: bad specs -> 400, a ``?trials=`` on ``/figure`` that is
  not an integer >= 1 -> 400, a figure sweep above ``MAX_BATCH_SPECS`` ->
  400 before any spec is built, unknown endpoints -> 404, a full broker
  queue -> 503, a figure batch with more new specs than the queue bound
  -> 503 with nothing queued or run, a negative ``Content-Length`` -> 400 and one above
  ``MAX_BODY_BYTES`` -> 413, both answered without reading a body, and a
  spec above an admission limit (grid cells, deployed nodes, round bound)
  -> 400 before anything is built, and so does a spec carrying a non-finite
  number (``1e400`` parses to ``inf``, and Python's JSON reads ``NaN``);
  any other error a handler raises -> 500 with the JSON envelope;
* the sqlite record store: a damaged stored document is answered as a
  miss, plain or streamed, and rewritten, and closing the server leaves no
  file of the store open and no WAL behind.
"""

import json
import math
import os
import socket
import sqlite3
import struct
import threading
import time
from contextlib import closing, contextmanager
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.core.protocol import MobilityController
from repro.experiments.broker import ExperimentBroker
from repro.experiments.catalog import catalog_names, load_catalog_scenario
from repro.experiments.figures import (
    QUICK_SPARE_VALUES,
    figure6_processes_and_success,
    run_section5_experiment,
)
from repro.experiments.orchestration import execute_run
from repro.experiments.persistence import record_to_dict
from repro.experiments.registry import register_scheme, unregister_scheme
from repro.experiments.scenario_files import tabulate_records
from repro.serve import ServeClient, ServeConfig, make_server, spec_from_request
from repro.serve.client import ServeError
from repro.serve.server import (
    MAX_BATCH_SPECS,
    MAX_BODY_BYTES,
    MAX_DEPLOYED_COUNT,
    MAX_GRID_CELLS,
    MAX_ROUNDS,
)
from repro.sim.engine import DEFAULT_IDLE_ROUND_LIMIT


def spec_payload(scheme: str = "SR", seed: int = 3, **overrides) -> dict:
    payload = {
        "scenario": {
            "columns": 5,
            "rows": 5,
            "deployed_count": 150,
            "spare_surplus": 8,
            "seed": seed,
        },
        "scheme": scheme,
        "seed": seed,
        "max_rounds": 40,
    }
    payload.update(overrides)
    return payload


@contextmanager
def running_server(broker=None, **config_kwargs):
    """An ephemeral-port server (and client) that is torn down afterwards."""
    config = ServeConfig(port=0, workers=config_kwargs.pop("workers", 2), **config_kwargs)
    server = make_server(config, broker=broker)
    # A short shutdown poll: teardown's shutdown() waits up to one interval.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server, ServeClient(server.url, timeout=60)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


def wait_until(predicate, timeout: float = 5.0) -> None:
    """Poll ``predicate`` every 10 ms; fail the test if it stays false."""
    pause = threading.Event()
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        pause.wait(0.01)
    pytest.fail("the server never reached the expected state")


# ------------------------------------------------------------ request parsing
def test_spec_from_request_fills_defaults():
    spec = spec_from_request({"scenario": {"seed": 9}, "scheme": "SR"})
    assert spec.scheme == "SR"
    assert spec.seed == 9  # inherited from the scenario seed
    assert spec.max_rounds is None
    assert spec.idle_round_limit == DEFAULT_IDLE_ROUND_LIMIT
    assert spec.energy is None and not spec.run_to_exhaustion
    assert spec.failures == () and spec.channel is None


def test_spec_from_request_accepts_channel_strings():
    spec = spec_from_request(spec_payload(channel="lossy:0.2"))
    assert spec.channel is not None
    assert spec.channel.kind == "lossy"
    assert dict(spec.channel.params)["drop_probability"] == pytest.approx(0.2)


@pytest.mark.parametrize(
    "body",
    [
        "not a dict",
        {},
        {"scheme": "SR"},
        {"scenario": {"seed": 1}},
        {"scenario": "not-a-dict", "scheme": "SR"},
        {"scenario": {"bogus_field": 1}, "scheme": "SR"},
    ],
)
def test_spec_from_request_rejects_malformed_bodies(body):
    with pytest.raises(ValueError):
        spec_from_request(body)


# ------------------------------------------------------------------ endpoints
def test_serve_answers_repeated_queries_from_the_cache():
    with running_server() as (server, client):
        assert client.health()["status"] == "ok"
        assert "SR" in client.schemes()
        assert any(s["name"] == "paper-16x16" for s in client.scenarios())

        first = client.run(spec_payload())
        assert not first["cached"]
        second = client.run(spec_payload())
        assert second["cached"]
        assert second["record"] == first["record"]

        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["broker"]["executed"] == 1


def test_serve_run_matches_local_execution():
    with running_server() as (server, client):
        remote = client.run(spec_payload())["record"]
    local = record_to_dict(execute_run(spec_from_request(spec_payload())))
    assert remote == local


def test_streamed_run_emits_live_rounds_then_caches():
    with running_server() as (server, client):
        events = list(client.run_stream(spec_payload(seed=11)))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "done"
        rounds = [e for e in events if e["event"] == "round"]
        assert rounds, "no live per-round events arrived"
        assert [e["round"] for e in rounds] == list(range(len(rounds)))
        assert all("holes" in e and "moves" in e for e in rounds)
        # The streamed record was published: the next stream is one cached event.
        replay = list(client.run_stream(spec_payload(seed=11)))
        assert [e["event"] for e in replay] == ["cached"]
        assert replay[0]["record"] == events[-1]["record"]


def _stream_then_disconnect(server, payload: dict, reset: bool) -> None:
    """``POST /run?stream=1``, read up to the ``accepted`` event, then leave.

    ``reset=True`` closes with an RST (``SO_LINGER`` 0), so the server's
    next write raises ``ConnectionResetError``; otherwise the close is an
    orderly FIN, after which a later write raises ``BrokenPipeError``.
    """
    host, port = server.server_address[:2]
    body = json.dumps(payload).encode("utf-8")
    request = (
        "POST /run?stream=1 HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body
    sock = socket.create_connection((host, port), timeout=5.0)
    try:
        sock.sendall(request)
        received = b""
        while b'"accepted"' not in received:
            chunk = sock.recv(4096)
            assert chunk, "the server closed the stream before accepting the run"
            received += chunk
        if reset:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        else:
            sock.shutdown(socket.SHUT_RDWR)
    finally:
        sock.close()


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "orderly"])
def test_streamed_run_is_cached_when_the_client_disconnects(reset, capsys):
    """A client that leaves mid-stream still gets its run finished and cached."""
    # Enough rounds that the server keeps writing after the client is gone.
    payload = spec_payload(
        seed=17,
        scenario={
            "columns": 10,
            "rows": 10,
            "deployed_count": 400,
            "spare_surplus": 4,
            "seed": 17,
        },
        max_rounds=200,
    )
    spec = spec_from_request(payload)
    with running_server() as (server, client):
        before = set(threading.enumerate())
        _stream_then_disconnect(server, payload, reset)
        wait_until(lambda: server.broker.cache.get(spec) is not None, timeout=30.0)
        # The handler thread finished instead of dying mid-run.
        wait_until(lambda: set(threading.enumerate()) <= before, timeout=5.0)
        answer = client.run(payload)
        assert answer["cached"] is True
        assert answer["record"] == record_to_dict(execute_run(spec))
    assert capsys.readouterr().err == ""


#: Streamed specs: SR, AR over a lossy channel, and SR-energy run to exhaustion.
STREAMED_OVERRIDES = [
    {"scheme": "SR"},
    {"scheme": "AR", "channel": "lossy:0.2"},
    {
        "scheme": "SR-energy",
        "energy": {"idle_cost_per_round": 0.5},
        "run_to_exhaustion": True,
    },
]


@pytest.mark.parametrize("overrides", STREAMED_OVERRIDES)
def test_streamed_record_matches_local_execution(overrides):
    """A streamed run publishes the record a plain ``execute_run`` computes."""
    payload = spec_payload(seed=13, **overrides)
    with running_server() as (server, client):
        events = list(client.run_stream(payload))
    assert events[-1]["event"] == "done"
    local = record_to_dict(execute_run(spec_from_request(payload)))
    assert events[-1]["record"] == local


@pytest.mark.parametrize("overrides", STREAMED_OVERRIDES)
def test_streamed_rounds_add_up_to_the_record(overrides):
    """One ``round`` event per executed round, and the samples sum to the record."""
    with running_server() as (server, client):
        events = list(client.run_stream(spec_payload(seed=13, **overrides)))
    record = events[-1]["record"]
    metrics = record["metrics"]
    rounds = [event for event in events if event["event"] == "round"]
    assert [event["round"] for event in rounds] == list(range(record["rounds_executed"]))
    assert sum(event["moves"] for event in rounds) == metrics["total_moves"]
    assert math.isclose(
        sum(event["distance"] for event in rounds), metrics["total_distance"]
    )
    last = rounds[-1]
    assert (last["holes"], last["spares"]) == (metrics["final_holes"], metrics["final_spares"])
    if metrics["energy"] is None:
        assert "energy" not in last and "depletions" not in last
    else:
        assert [event["energy"] for event in rounds] == record["energy_series"]
        assert (
            sum(event["depletions"] for event in rounds)
            == metrics["energy"]["depleted_nodes"]
        )


@pytest.fixture
def raising_scheme():
    """A registered scheme whose controller raises in its first round."""

    class Exploding(MobilityController):
        name = "EXPLODING"

        def execute_round(self, state, rng, round_index):
            raise RuntimeError("controller exploded")

    register_scheme("EXPLODING", lambda state: Exploding())
    try:
        yield "EXPLODING"
    finally:
        unregister_scheme("EXPLODING")


def test_a_streamed_run_that_raises_ends_with_an_error_event(raising_scheme, capsys):
    payload = spec_payload(scheme=raising_scheme, seed=19)
    with running_server() as (server, client):
        events = list(client.run_stream(payload))
        with pytest.raises(ServeError) as excinfo:
            client.run(payload)
        assert server.broker.cache.get(spec_from_request(payload)) is None
    assert [event["event"] for event in events] == ["accepted", "error"]
    assert events[1]["key"] == events[0]["key"]
    message = "run failed: RuntimeError: controller exploded"
    assert events[1]["error"] == message
    # The plain /run answer reports the same failure.
    assert excinfo.value.status == 500 and str(excinfo.value).endswith(message)
    assert capsys.readouterr().err == ""


def test_concurrent_identical_queries_share_one_simulation():
    """Acceptance: a thundering herd of one spec costs one simulation."""
    with running_server() as (server, client):
        results = []

        def ask():
            results.append(client.run(spec_payload(seed=21)))

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        records = [r["record"] for r in results]
        assert all(record == records[0] for record in records)
        assert server.broker.stats().executed == 1


def test_figure_answers_the_local_table_cold_and_warm():
    local = figure6_processes_and_success(
        run_section5_experiment(spare_values=QUICK_SPARE_VALUES)
    )
    with running_server() as (server, client):
        cold = client.figure("fig6", quick=True)
        warm = client.figure("fig6", quick=True)
        stats = server.broker.stats()
    assert cold == warm
    assert (cold["columns"], cold["rows"]) == (local.columns, local.rows)
    assert (stats.executed, stats.cache_hits) == (8, 8)


def test_catalog_scenario_is_answered_cold_then_from_the_cache():
    scenario = load_catalog_scenario("paper-16x16").smoke_variant()
    local = tabulate_records(scenario, scenario.execute())
    with running_server() as (server, client):
        listed = client.scenarios()
        cold = client.scenario("paper-16x16", smoke=True)
        warm = client.scenario("paper-16x16", smoke=True)
    assert [entry["name"] for entry in listed] == list(catalog_names())
    assert (cold["total_records"], cold["cached_records"]) == (2, 0)
    assert (warm["total_records"], warm["cached_records"]) == (2, 2)
    for answer in (cold, warm):
        assert (answer["columns"], answer["rows"]) == (local.columns, local.rows)


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_scenario_answers_its_local_table(name):
    """Failure schedules, energy models and channels all survive the broker."""
    scenario = load_catalog_scenario(name).smoke_variant()
    records = scenario.execute()
    local = tabulate_records(scenario, records)
    with running_server() as (server, client):
        cold = client.scenario(name, smoke=True)
        warm = client.scenario(name, smoke=True)
    assert cold["scenario"] == warm["scenario"] == name
    assert (cold["total_records"], cold["cached_records"]) == (len(records), 0)
    assert (warm["total_records"], warm["cached_records"]) == (len(records), len(records))
    for answer in (cold, warm):
        assert (answer["columns"], answer["rows"]) == (local.columns, local.rows)


# --------------------------------------------------------------- error paths
def test_an_unexpected_handler_error_answers_500(monkeypatch):
    def unreadable(name):
        raise OSError(f"catalog entry {name} is unreadable")

    monkeypatch.setattr("repro.serve.server.load_catalog_scenario", unreadable)
    with running_server() as (server, client):
        for path in ["/scenarios", "/scenario/paper-16x16"]:
            with pytest.raises(ServeError) as excinfo:
                client._call(path)
            assert excinfo.value.status == 500, path
            assert "internal error: OSError: catalog entry" in str(excinfo.value), path
        assert client.health()["status"] == "ok"


def test_a_run_after_the_broker_closed_answers_500():
    with running_server() as (server, client):
        server.broker.close()
        with pytest.raises(ServeError) as excinfo:
            client.run(spec_payload(seed=37))
        assert excinfo.value.status == 500
        assert str(excinfo.value).endswith(
            "internal error: RuntimeError: broker is shut down"
        )
        assert client.health()["status"] == "ok"


def test_malformed_spec_maps_to_400():
    with running_server() as (server, client):
        with pytest.raises(ServeError) as excinfo:
            client.run({"scheme": "SR"})
        assert excinfo.value.status == 400


def test_bad_priority_maps_to_400():
    with running_server() as (server, client):
        with pytest.raises(ServeError) as excinfo:
            client.run(spec_payload(), priority="urgent")
        assert excinfo.value.status == 400


def test_unknown_routes_map_to_404():
    with running_server() as (server, client):
        for path in ["/nope", "/scenario/not-a-scenario", "/figure/fig99"]:
            with pytest.raises(ServeError) as excinfo:
                client._call(path)
            assert excinfo.value.status == 404, path


@pytest.mark.parametrize("query", ["trials=abc", "quick=1&trials=0", "quick=1&trials=-2"])
def test_a_bad_figure_trials_value_maps_to_400(query):
    with running_server() as (server, client):
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{server.url}/figure/fig6?{query}", timeout=30)
        with closing(excinfo.value) as response:
            assert response.code == 400
            error = json.loads(response.read())["error"]
        assert error.startswith("trials must be an integer >= 1"), error
        assert client.health()["status"] == "ok"


def test_full_queue_maps_to_503():
    gate = threading.Event()

    def gated_run(spec):
        gate.wait(timeout=30)
        return execute_run(spec)

    broker = ExperimentBroker(workers=1, queue_limit=1, run_fn=gated_run)
    with running_server(broker=broker) as (server, client):
        background = []

        def ask(seed):
            thread = threading.Thread(
                target=lambda: client.run(spec_payload(seed=seed))
            )
            thread.start()
            background.append(thread)

        ask(31)  # occupies the one worker (held at the gate)
        wait_until(lambda: broker.stats().pending == 0 and broker.stats().in_flight == 1)
        ask(32)  # fills the queue exactly to its bound
        wait_until(lambda: broker.stats().pending == 1)
        with pytest.raises(ServeError) as excinfo:
            client.run(spec_payload(seed=33))
        assert excinfo.value.status == 503
        gate.set()
        for thread in background:
            thread.join(timeout=30)


def test_a_figure_batch_over_the_queue_bound_queues_and_runs_nothing():
    """1,600 new specs against the default bound of 256: 503, and no work left behind."""
    with running_server() as (server, client):
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{server.url}/figure/fig6?quick=1&trials=200", timeout=60)
        with closing(excinfo.value) as response:
            assert response.code == 503
            error = json.loads(response.read())["error"]
        assert error.startswith("broker queue is full"), error
        broker = client.stats()["broker"]
        assert broker["submitted"] == broker["pending"] == broker["in_flight"] == 0
        assert broker["rejected"] == 1
    assert server.broker.stats().executed == 0


@pytest.mark.parametrize(
    "query",
    ["trials=2000", "quick=1&trials=2000", "trials=101", "quick=1&trials=251"],
)
def test_a_figure_sweep_over_the_batch_limit_is_refused_before_any_spec(query):
    with running_server() as (server, client):
        before = client.stats()["broker"]
        started = time.perf_counter()
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{server.url}/figure/fig6?{query}", timeout=30)
        elapsed = time.perf_counter() - started
        with closing(excinfo.value) as response:
            assert response.code == 400
            error = json.loads(response.read())["error"]
        assert f"admission limit of {MAX_BATCH_SPECS}" in error, error
        assert elapsed < 0.5
        assert client.stats()["broker"] == before


def test_a_figure_sweep_at_the_batch_limit_reaches_the_queue_bound():
    """100 paper-sweep trials are 2,000 specs: admitted by the limit, refused by the queue."""
    with running_server() as (server, client):
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{server.url}/figure/fig6?trials=100", timeout=60)
        with closing(excinfo.value) as response:
            assert response.code == 503
            error = json.loads(response.read())["error"]
        assert error.startswith("broker queue is full"), error


def raw_post_run(server, content_length: str, body: bytes = b"") -> bytes:
    """Send ``POST /run`` headers declaring ``content_length``, then ``body``.

    Returns everything the server sends before closing the connection; a
    server that waits for a body the client never sends, or works on the
    request for more than a second, makes this raise ``socket.timeout``.
    """
    host, port = server.server_address[:2]
    request = (
        "POST /run HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=1.0) as sock:
        sock.sendall(request.encode("ascii") + body)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return reply
            reply += chunk


@pytest.mark.parametrize(
    "content_length, status",
    [("-1", 400), (str(MAX_BODY_BYTES + 1), 413)],
    ids=["negative", "over-limit"],
)
def test_bad_content_length_is_refused_without_reading(content_length, status):
    with running_server() as (server, client):
        before = set(threading.enumerate())
        reply = raw_post_run(server, content_length)
        status_line = reply.split(b"\r\n", 1)[0].decode("ascii")
        assert status_line.split()[1] == str(status), status_line
        assert b'"error"' in reply
        # The handler thread finished instead of waiting on the socket.
        wait_until(lambda: set(threading.enumerate()) <= before, timeout=1.0)
        assert client.health()["status"] == "ok"


def _over_limit(field: str) -> dict:
    """A small spec with ``field`` one past its admission limit."""
    payload = spec_payload()
    if field == "columns*rows":
        payload["scenario"].update(columns=MAX_GRID_CELLS + 1, rows=1)
    elif field == "deployed_count":
        payload["scenario"]["deployed_count"] = MAX_DEPLOYED_COUNT + 1
    else:
        payload["max_rounds"] = MAX_ROUNDS + 1
    return payload


@pytest.mark.parametrize(
    "field, limit",
    [
        ("columns*rows", MAX_GRID_CELLS),
        ("deployed_count", MAX_DEPLOYED_COUNT),
        ("max_rounds", MAX_ROUNDS),
    ],
)
def test_spec_over_an_admission_limit_is_refused_before_any_build(field, limit):
    with running_server() as (server, client):
        before = set(threading.enumerate())
        body = json.dumps(_over_limit(field)).encode("utf-8")
        reply = raw_post_run(server, str(len(body)), body)
        status_line = reply.split(b"\r\n", 1)[0].decode("ascii")
        assert status_line.split()[1] == "400", status_line
        message = json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]
        assert field in message and str(limit) in message
        # Refused at parsing: the broker never saw it.
        assert server.broker.stats().submitted == 0
        wait_until(lambda: set(threading.enumerate()) <= before, timeout=1.0)
        assert client.health()["status"] == "ok"


def _non_finite_body(case: str) -> bytes:
    """A small spec's JSON text with one non-finite number spliced in."""
    payload = spec_payload()
    if case == "failure-count":
        payload["failures"] = [{"round": 0, "kind": "random", "params": {"count": "@"}}]
        literal = "1e400"
    elif case == "energy-rate":
        payload["energy"] = {
            "idle_cost_per_round": "@",
            "move_cost_per_meter": 1.0,
            "message_cost": 0.01,
            "depletion_threshold": 0.0,
        }
        literal = "NaN"
    else:
        payload["scenario"]["communication_range"] = "@"
        literal = "1e400"
    return json.dumps(payload).replace('"@"', literal).encode("utf-8")


@pytest.mark.parametrize("case", ["failure-count", "energy-rate", "communication-range"])
def test_a_non_finite_number_in_a_spec_maps_to_400(case):
    with running_server() as (server, client):
        body = _non_finite_body(case)
        reply = raw_post_run(server, str(len(body)), body)
        status_line = reply.split(b"\r\n", 1)[0].decode("ascii")
        assert status_line.split()[1] == "400", status_line
        assert "finite" in json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]
        assert server.broker.stats().submitted == 0
        assert client.health()["status"] == "ok"


def test_admission_limits_admit_the_paper_tier_and_the_limits_themselves():
    paper = spec_from_request(
        {
            "scenario": {"columns": 16, "rows": 16, "deployed_count": 5000, "spare_surplus": 55},
            "scheme": "AR",
            "max_rounds": 60,
            "channel": "lossy:0.2",
        }
    )
    assert paper.scenario.cell_count == 256
    at_limits = spec_payload(max_rounds=MAX_ROUNDS)
    at_limits["scenario"].update(
        columns=MAX_GRID_CELLS // 256, rows=256, deployed_count=MAX_DEPLOYED_COUNT
    )
    spec = spec_from_request(at_limits)
    assert spec.scenario.cell_count == MAX_GRID_CELLS
    assert spec.max_rounds == MAX_ROUNDS


# --------------------------------------------------------- the sqlite record store
def _stored_document(db_path, key: str) -> str:
    """The document stored under ``key``, read on a connection of the test's own."""
    with closing(sqlite3.connect(db_path)) as connection:
        row = connection.execute(
            "SELECT document FROM run_records WHERE run_key = ?", (key,)
        ).fetchone()
    return row[0]


def _truncate_stored_document(db_path, key: str) -> str:
    """Cut the document stored under ``key`` to half its length; returns the original."""
    original = _stored_document(db_path, key)
    with closing(sqlite3.connect(db_path)) as connection:
        connection.execute(
            "UPDATE run_records SET document = ? WHERE run_key = ?",
            (original[: len(original) // 2], key),
        )
        connection.commit()
    return original


def test_a_damaged_stored_document_is_answered_as_a_miss_and_rewritten(tmp_path):
    with running_server(cache_dir=tmp_path) as (server, client):
        first = client.run(spec_payload(seed=5))
        db_path = server.broker.cache.backend.path
        original = _truncate_stored_document(db_path, first["key"])
        before = client.stats()["cache"]

        again = client.run(spec_payload(seed=5))
        assert not again["cached"]
        assert again["record"] == first["record"]
        after = client.stats()["cache"]
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert _stored_document(db_path, first["key"]) == original

        third = client.run(spec_payload(seed=5))
        assert third["cached"]
        assert third["record"] == first["record"]


def test_a_damaged_stored_document_is_streamed_as_a_miss_and_rewritten(tmp_path):
    with running_server(cache_dir=tmp_path) as (server, client):
        done = list(client.run_stream(spec_payload(seed=6)))[-1]
        db_path = server.broker.cache.backend.path
        original = _truncate_stored_document(db_path, done["key"])
        before = client.stats()["cache"]

        events = list(client.run_stream(spec_payload(seed=6)))
        assert [events[0]["event"], events[-1]["event"]] == ["accepted", "done"]
        assert events[-1]["record"] == done["record"]
        after = client.stats()["cache"]
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert _stored_document(db_path, done["key"]) == original

        replay = list(client.run_stream(spec_payload(seed=6)))
        assert [event["event"] for event in replay] == ["cached"]
        assert replay[0]["record"] == done["record"]


def _open_files_under(prefix: str) -> list:
    """Targets of this process's file descriptors that start with ``prefix``."""
    targets = []
    for fd in Path("/proc/self/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:  # closed between listing and reading
            continue
        if target.startswith(prefix):
            targets.append(target)
    return targets


def test_closing_the_server_closes_the_sqlite_store(tmp_path):
    if not Path("/proc/self/fd").is_dir():
        pytest.skip("needs /proc/self/fd to list open files")
    with running_server(cache_dir=tmp_path) as (server, client):
        client.run(spec_payload(seed=4))
        assert client.run(spec_payload(seed=4))["cached"]
        client.stats()
        db_path = server.broker.cache.backend.path.resolve()
        # Between requests the store stays open: its connections are pooled.
        assert _open_files_under(str(db_path))
    assert _open_files_under(str(db_path)) == []
    assert not Path(f"{db_path}-wal").exists()


# ------------------------------------------------------------ unusable addresses
def broker_threads() -> list:
    """Names of the live broker worker threads."""
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("broker-"))


@pytest.mark.parametrize("port", [-1, 65536, 70000])
def test_serve_config_refuses_a_port_outside_the_tcp_range(port):
    with pytest.raises(ValueError, match=f"port must be in 0-65535, got {port}"):
        ServeConfig(port=port)


def test_a_port_in_use_raises_before_any_broker_thread_starts():
    before = broker_threads()
    with closing(socket.socket()) as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        with pytest.raises(OSError):
            make_server(ServeConfig(port=port, workers=2))
    assert broker_threads() == before
