"""Grid-size scaling benchmark for the incremental state indices.

The state/engine/controller stack is supposed to make per-round recovery
cost a function of the number of holes, not of the grid size (see DESIGN.md,
"The state-index contract").  This benchmark checks that claim empirically:
it times SR recovery rounds on 16x16 through 256x256 grids (3 nodes per
cell, so the largest default scenario deploys ~197k nodes) with the *same*
number of holes punched into each, and it micro-benchmarks the hot state
queries (``hole_count``, ``spare_count``, ``vacant_cells``) the engine and
the controllers issue every round.  Since the struct-of-arrays refactor the
run also times the vectorized deployment and batch-adjacency paths per tier
(``deploy_seconds``, ``adjacency_per_edge_seconds``) and the incremental
:class:`~repro.network.adjacency.NeighborIndex` against a full rebuild.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # default run, writes BENCH_scale.json
    PYTHONPATH=src python benchmarks/bench_scale.py --full     # adds the 512x512 (~786k node) tier
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # CI smoke: guards only

The full run writes ``BENCH_scale.json`` at the repository root, seeding the
repo's perf trajectory; ``cores_available`` records the recording host's
core count.

The ``scenario_build`` section times ``build_scenario_state`` at the
paper's own tier (16x16 cells, 5000 sensors, thinned to ``m*n + N`` enabled
for every ``N`` of ``PAPER_SPARE_VALUES``), which thins before it indexes,
and requires its state byte-identical to the public three-step composition
(deploy, index + elect, ``ThinningToEnabledCount.apply``).  It also compares
the bulk ``WsnState.disable_nodes(victims)`` that runtime thinning makes
against a loop of one-element ``disable_node`` calls over the same victims,
requiring byte-identical states.

The ``simulate_from`` section times the replacement hot path the way the
Figures 6-8 sweep drives it: the sweep's SR and AR specs at the paper tier
(16x16 cells, 5000 deployed, ``PAPER_SPARE_VALUES``, 2 trials) each run
through ``simulate_from`` on a private copy of its prebuilt initial state.
It reports the median over passes of the milliseconds per spec, the
microseconds per node move, and a digest of the records.

The ``channel_overhead`` section prices the control-message channel: SR
recovery rounds run back to back with the default perfect channel and with
``channel=None`` (identical physical work), and the difference, divided by
the messages the perfect run sent, is the channel's cost per message.

The smoke run executes the smallest grid's round benchmark plus the
regression guards — query scaling (16x16 vs 64x64 at equal hole count),
batch adjacency wall-clock at 49k nodes, the per-edge adjacency ceiling on
the 256x256 tier, the channel's microseconds per message (at most
``CHANNEL_US_PER_MESSAGE_LIMIT``), build-vs-composition identity, bulk-vs-loop thinning
identity (unconditional) and speed (bulk at least
``BULK_DISABLE_SPEEDUP_FLOOR`` times faster), and the
``simulate_from`` section on a small tier, whose records must equal
``execute_run(spec, state_cache=None)`` — and exits
non-zero when any guard trips, so an accidental O(m*n) scan or a
de-vectorized hot loop fails CI long before it would be felt on the 512x512
workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.experiments.figures import PAPER_SPARE_VALUES
from repro.experiments.orchestration import build_initial_state, execute_run, simulate_from
from repro.experiments.persistence import record_to_dict
from repro.experiments.registry import make_controller
from repro.experiments.sweep import build_comparison_specs
from repro.network.adjacency import adjacency_lists, adjacency_offsets, build_edges
from repro.network.channel import DEFAULT_CHANNEL
from repro.network.deployment import deploy_per_cell, deploy_uniform
from repro.network.failures import ThinningToEnabledCount
from repro.network.node_arrays import ENABLED_CODE
from repro.network.radio import UnitDiskRadio
from repro.network.state import WsnState
from repro.sim.engine import RoundBasedEngine
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state
from repro.grid.virtual_grid import VirtualGrid, cell_side_for_range

#: (columns, rows) of the benchmarked grids; 3 nodes per cell everywhere, so
#: the largest default grid deploys 256 * 256 * 3 = 196608 sensors.
GRID_SHAPES = ((16, 16), (64, 64), (128, 128), (256, 256))
#: The ``--full`` tier: 512 * 512 * 3 = 786432 sensors, local runs only.
LARGE_GRID_SHAPE = (512, 512)
NODES_PER_CELL = 3
COMMUNICATION_RANGE = 10.0
#: Holes punched into every grid — equal across sizes so per-round cost is
#: compared at equal workload.
DEFAULT_HOLES = 32
#: Fresh holes drip-fed per round by the steady-state round benchmark.
HOLES_PER_ROUND = 8
#: Smoke-mode guard: the per-query cost ratio between a 64x64 and a 16x16
#: grid at equal hole count.  The indexed queries are O(1)/O(holes), so the
#: true ratio is ~1; an O(m*n) regression measures ~16x and trips this.
SMOKE_QUERY_RATIO_LIMIT = 5.0
#: Smoke-mode guard: generous absolute per-round budget on the 16x16 grid.
SMOKE_ROUND_SECONDS_LIMIT = 0.05
#: Guard on the messaging subsystem: microseconds the default perfect
#: channel adds per message sent (perfect-channel rounds minus the same
#: rounds with ``channel=None``, over the messages sent).  An absolute
#: per-unit bound, so it does not move when only the controllers or the
#: engine get faster, as the former perfect/None ratio did.  Set from ten
#: readings of 2.5-8.4 us on a 2-core host before the flat-cell-id hot
#: path, the worst doubled for the host's ~2x speed swings; an O(cells)
#: search per delivered message reads 78-91 us.
CHANNEL_US_PER_MESSAGE_LIMIT = 17.0
#: Guard on the vectorized batch-adjacency path: wall-clock ceiling for the
#: full adjacency build at 49k nodes (the 128x128 tier).  The pre-refactor
#: per-node implementation measured ~2.3 s here; the vectorized path is well
#: under 0.25 s, so tripping this means adjacency de-vectorized.
ADJACENCY_SECONDS_LIMIT_49K = 0.25
#: Guard on adjacency throughput: ceiling on seconds per produced edge,
#: checked on the 256x256 tier (~4.5M edges).  The vectorized path measures
#: well under 1e-7 s/edge; the old per-node code sat around 2e-6.
ADJACENCY_PER_EDGE_SECONDS_LIMIT = 5e-7
#: Guard on the batched deployment path: wall-clock ceiling for generating
#: the 512x512 deployment (~786k nodes) as arrays.
DEPLOY_SECONDS_LIMIT_786K = 2.0
#: Incremental-index microbenchmark: moves timed per tier.
INCREMENTAL_UPDATES = 200
#: Largest node count the incremental-index microbenchmark runs at; the
#: index materialises per-row neighbour arrays, which is not worth the build
#: time on the top tiers.
INCREMENTAL_MAX_NODES = 100_000
#: Smoke-mode guard: floor on how much faster one bulk ``disable_nodes``
#: call thins a paper-tier scenario than a loop of one-element calls over the
#: same victims, measured in one process.
BULK_DISABLE_SPEEDUP_FLOOR = 10.0
#: Schemes, trials and timed passes of the ``simulate_from`` section.
SIMULATE_SCHEMES = ("SR", "AR")
SIMULATE_TRIALS = 2
SIMULATE_PASSES = 5
#: The ``simulate_from`` smoke tier: small enough for CI, with holes to repair.
SMOKE_SIMULATE_CONFIG = ScenarioConfig(columns=8, rows=8, deployed_count=400, seed=3)
SMOKE_SIMULATE_SPARES = (5, 40)


def build_base_state(columns: int, rows: int, seed: int) -> WsnState:
    grid = VirtualGrid(columns, rows, cell_side_for_range(COMMUNICATION_RANGE))
    arrays = deploy_per_cell(grid, NODES_PER_CELL, derive_rng(seed, "deployment"))
    return WsnState(grid, arrays)


def bench_deploy(columns: int, rows: int, seed: int) -> dict:
    """Time the batched array-backed deployment for one tier."""
    grid = VirtualGrid(columns, rows, cell_side_for_range(COMMUNICATION_RANGE))
    start = time.perf_counter()
    arrays = deploy_per_cell(grid, NODES_PER_CELL, derive_rng(seed, "deployment"))
    elapsed = time.perf_counter() - start
    return {"seconds": round(elapsed, 6), "nodes": len(arrays)}


def punch_holes(state: WsnState, hole_count: int, rng: random.Random) -> None:
    """Disable every node of ``hole_count`` randomly chosen cells."""
    cells = rng.sample(list(state.grid.all_coords()), hole_count)
    state.disable_nodes(
        [node.node_id for coord in cells for node in state.members_of(coord)]
    )


class ScheduledCellKill:
    """Failure model that disables a precomputed list of node ids.

    The victim cells are sampled *before* the engine is timed, so the drip
    feed itself adds no grid-size-dependent work to the measured rounds.
    """

    def __init__(self, node_ids):
        self.node_ids = list(node_ids)
        self._id_array = np.asarray(self.node_ids, dtype=np.int64)

    def apply(self, state, rng):
        # One vectorized pass keeps the ids that are still enabled in this
        # state (disabled rows have a different state code).
        arrays = state.arrays
        rows = arrays.rows_of(self._id_array)
        victims = self._id_array[arrays.state[rows] == ENABLED_CODE].tolist()
        state.disable_nodes(victims)
        return victims


def build_failure_schedule(
    base: WsnState, rounds: int, holes_per_round: int, rng: random.Random
) -> dict:
    """One :class:`ScheduledCellKill` per round over disjoint random cells."""
    cells = rng.sample(list(base.grid.all_coords()), rounds * holes_per_round)
    schedule = {}
    for round_index in range(rounds):
        batch = cells[round_index * holes_per_round : (round_index + 1) * holes_per_round]
        node_ids = [
            node.node_id for coord in batch for node in base.members_of(coord)
        ]
        schedule[round_index] = ScheduledCellKill(node_ids)
    return schedule


def bench_recovery_rounds(
    base: WsnState, hole_count: int, seed: int, repeats: int, channel=DEFAULT_CHANNEL
) -> dict:
    """Steady-state per-round cost of SR recovery under a constant hole feed.

    Every round ``HOLES_PER_ROUND`` fresh holes are punched (scheduled
    failures), so every grid size executes the same number of rounds with the
    same per-round workload — the per-round figure is therefore directly
    comparable across grid sizes at equal hole count.  ``channel=None``
    measures the channel-less legacy path (the pre-channel engine), which is
    what the channel-overhead guard compares the default against.
    """
    rounds_scheduled = max(1, hole_count // HOLES_PER_ROUND)
    total_seconds = 0.0
    total_rounds = 0
    total_messages = 0
    per_round_samples = []
    for repeat in range(repeats):
        state = base.clone()
        schedule = build_failure_schedule(
            base, rounds_scheduled, HOLES_PER_ROUND, derive_rng(seed + repeat, "holes")
        )
        controller = make_controller("SR", state)
        engine = RoundBasedEngine(
            state,
            controller,
            derive_rng(seed + repeat, "controller"),
            failure_schedule=schedule,
            channel=channel,
        )
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        if result.metrics.final_holes:
            raise RuntimeError(
                f"benchmark run left {result.metrics.final_holes} holes unrepaired; "
                "the scenario is supposed to always recover"
            )
        total_seconds += elapsed
        total_rounds += result.rounds_executed
        total_messages += result.metrics.messages_sent
        per_round_samples.append(elapsed / result.rounds_executed)
    return {
        "repeats": repeats,
        "holes_per_round": HOLES_PER_ROUND,
        "rounds_total": total_rounds,
        "messages_total": total_messages,
        "seconds_total": round(total_seconds, 6),
        "per_round_seconds": round(total_seconds / total_rounds, 8),
        "per_round_seconds_median": round(statistics.median(per_round_samples), 8),
        "per_round_seconds_min": round(min(per_round_samples), 8),
    }


def bench_channel_overhead(
    base: WsnState, hole_count: int, seed: int, repeats: int
) -> dict:
    """Cost of the default perfect channel per message sent.

    Both configurations run the identical workload back to back on the same
    machine — the perfect channel is a semantic no-op, so they make the same
    moves over the same rounds — and the difference in wall time is the
    messaging subsystem's work (message construction, mailbox delivery,
    delivery handling, the sender's energy debit through the engine hook).
    Divided by the messages the perfect run sent, it is an absolute
    per-unit cost that does not scale with anything else the round does.
    The configurations are warmed up once and then measured as *adjacent
    pairs* (alternating which runs first); the reported cost is the median
    of the per-pair figures, so slow drift affects both sides of every pair
    equally and a single noisy sample cannot move the estimate.
    """
    configs = (("legacy", None), ("perfect", DEFAULT_CHANNEL))
    # A longer drip feed than the scaling benchmark uses: more rounds per
    # timed run amortises fixed noise into a stable per-round figure.
    overhead_holes = hole_count * 4
    for _, channel in configs:  # warm caches and code paths
        bench_recovery_rounds(base, overhead_holes, seed, 1, channel=channel)
    pair_us_per_message = []
    samples = {label: [] for label, _ in configs}
    messages = []
    # Garbage collection is disabled during the timed pairs (as
    # pytest-benchmark does): the channel side allocates more, so GC pauses
    # would otherwise land on one side of the comparison systematically.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for repeat in range(max(repeats, 7)):
            gc.collect()
            pair = {}
            # Alternate which configuration runs first so cache/frequency
            # effects tied to position inside a pair cancel across repeats.
            ordered = configs if repeat % 2 == 0 else tuple(reversed(configs))
            for label, channel in ordered:
                pair[label] = bench_recovery_rounds(
                    base, overhead_holes, seed + repeat, 1, channel=channel
                )
                samples[label].append(pair[label]["per_round_seconds_min"])
            sent = pair["perfect"]["messages_total"]
            messages.append(sent)
            if sent:
                extra = pair["perfect"]["seconds_total"] - pair["legacy"]["seconds_total"]
                pair_us_per_message.append(extra / sent * 1e6)
    finally:
        if gc_was_enabled:
            gc.enable()
    us_per_message = (
        statistics.median(pair_us_per_message) if pair_us_per_message else float("inf")
    )
    return {
        "per_round_seconds_no_channel": statistics.median(samples["legacy"]),
        "per_round_seconds_perfect_channel": statistics.median(samples["perfect"]),
        "messages_per_run": statistics.median(messages),
        "us_per_message": round(us_per_message, 3),
        "limit_us_per_message": CHANNEL_US_PER_MESSAGE_LIMIT,
    }


def bench_queries(state: WsnState, iterations: int = 2000) -> float:
    """Average seconds per (hole_count + spare_count + vacant_cells) round trip."""
    start = time.perf_counter()
    for _ in range(iterations):
        state.hole_count
        state.spare_count
        state.vacant_cells()
    return (time.perf_counter() - start) / iterations


def bench_adjacency(state: WsnState) -> dict:
    """Time the vectorized adjacency build over all enabled nodes.

    ``seconds`` times :func:`~repro.network.adjacency.build_edges` — the
    array edge list every at-scale consumer (the incremental index, the
    connectivity graph, this benchmark) works from.
    ``adjacency_offsets_seconds`` adds the vectorized CSR assembly
    (composite-key sort into per-node neighbour runs), and
    ``adjacency_lists_seconds`` the full id-keyed dict-of-lists view on top
    of it; the gap between the last two is pure Python int/list
    materialisation (two ints per link), inherent to the dict shape.  All
    three are best-of-two so none of them carries the one-off allocator
    costs the others shed.
    """
    arrays = state.arrays
    mask = arrays.enabled_mask()
    xs = arrays.positions[mask, 0]
    ys = arrays.positions[mask, 1]
    count = int(mask.sum())
    # Best of two: the first build pays one-off page-fault/allocator costs
    # that would otherwise dominate the per-edge figure on the big tiers.
    edge_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        left, right = build_edges(xs, ys, COMMUNICATION_RANGE)
        edge_seconds = min(edge_seconds, time.perf_counter() - start)
    edges = len(left)
    ids = arrays.node_ids[mask]
    offsets_seconds = float("inf")
    lists_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        adjacency_offsets(ids, left, right)
        offsets_seconds = min(offsets_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        adjacency_lists(ids, left, right)
        lists_seconds = min(lists_seconds, time.perf_counter() - start)
    return {
        "seconds": round(edge_seconds, 6),
        "nodes": count,
        "edges": edges,
        "per_edge_seconds": round(edge_seconds / edges, 12) if edges else 0.0,
        "adjacency_offsets_seconds": round(offsets_seconds, 6),
        "adjacency_lists_seconds": round(lists_seconds, 6),
    }


def bench_incremental_adjacency(state: WsnState, updates: int = INCREMENTAL_UPDATES) -> dict:
    """Per-update cost of the incremental NeighborIndex vs a full rebuild.

    ``updates`` random enabled rows are re-linked in place (the exact work
    ``on_move`` performs: drop incident edges, rehash the bucket, re-scan the
    3x3 bucket neighbourhood); the speedup column is the number of such
    updates one full rebuild would have paid for.
    """
    radio = UnitDiskRadio(COMMUNICATION_RANGE)
    start = time.perf_counter()
    index = state.attach_neighbor_index(radio)
    full_build = time.perf_counter() - start
    rows = np.flatnonzero(state.arrays.enabled_mask())
    rng = random.Random(1234)
    picks = [int(rows[rng.randrange(len(rows))]) for _ in range(updates)]
    start = time.perf_counter()
    for row in picks:
        index.on_move(row)
    per_update = (time.perf_counter() - start) / updates
    state.detach_neighbor_index()
    return {
        "full_build_seconds": round(full_build, 6),
        "per_update_seconds": round(per_update, 9),
        "updates": updates,
        "updates_per_rebuild": round(full_build / per_update, 1) if per_update else 0.0,
    }


def bench_scenario_build(seeds) -> dict:
    """Paper-tier ``build_scenario_state`` timings, and bulk vs one-at-a-time thinning.

    Every ``(seed, N)`` over ``PAPER_SPARE_VALUES`` is built by
    ``build_scenario_state`` (timed) and again by the public three-step
    composition it must equal byte for byte: deploy (``deploy_uniform``),
    index + elect (``WsnState``), thin (``ThinningToEnabledCount.apply``).
    The thinning victims are then disabled again, on two copies of the
    unthinned state, by one ``disable_nodes(victims)`` call and by a loop of
    one-element ``disable_node`` calls; both must equal the composition.
    Times are per-build medians.
    """
    steps = {name: [] for name in ("build", "bulk", "loop")}
    build_identical = True
    bulk_identical = True
    victim_counts = []
    for seed in seeds:
        for spare_surplus in PAPER_SPARE_VALUES:
            config = ScenarioConfig(seed=seed, spare_surplus=spare_surplus)
            started = time.perf_counter()
            built = build_scenario_state(config)
            steps["build"].append(time.perf_counter() - started)
            grid = config.make_grid()
            arrays = deploy_uniform(
                grid, config.deployed_count, derive_rng(seed, "deployment")
            )
            composed = WsnState(grid, arrays, head_policy=config.head_policy_fn)
            bulk = composed.clone()
            looped = composed.clone()
            victims = ThinningToEnabledCount(config.target_enabled).apply(
                composed, derive_rng(seed, "thinning")
            )
            bulk_started = time.perf_counter()
            bulk.disable_nodes(victims)
            steps["bulk"].append(time.perf_counter() - bulk_started)
            loop_started = time.perf_counter()
            for node_id in victims:
                looped.disable_node(node_id)
            steps["loop"].append(time.perf_counter() - loop_started)
            snapshot = composed.to_bytes()
            build_identical = build_identical and built.to_bytes() == snapshot
            bulk_identical = (
                bulk_identical and snapshot == bulk.to_bytes() == looped.to_bytes()
            )
            victim_counts.append(len(victims))
    p50 = {name: statistics.median(samples) for name, samples in steps.items()}
    paper = ScenarioConfig()
    return {
        "grid": f"{paper.columns}x{paper.rows}",
        "deployed_nodes": paper.deployed_count,
        "spare_values": list(PAPER_SPARE_VALUES),
        "seeds": list(seeds),
        "builds": len(victim_counts),
        "victims_p50": int(statistics.median(victim_counts)),
        "build_seconds_p50": round(p50["build"], 6),
        "build_equals_composition": build_identical,
        "bulk_disable_seconds_p50": round(p50["bulk"], 6),
        "loop_disable_seconds_p50": round(p50["loop"], 6),
        "bulk_vs_loop_speedup": round(p50["loop"] / p50["bulk"], 1),
        "bulk_equals_loop": bulk_identical,
    }


def build_failures(build: dict) -> list:
    """Identity failures of a ``bench_scenario_build`` report (none when both hold)."""
    failures = []
    if not build["build_equals_composition"]:
        failures.append(
            "build_scenario_state left a different state than deploy, index and "
            "ThinningToEnabledCount.apply"
        )
    if not build["bulk_equals_loop"]:
        failures.append(
            "bulk disable_nodes left a different state than the one-at-a-time "
            "loop over the same victims"
        )
    return failures


def bench_simulate_from(specs, passes: int = SIMULATE_PASSES) -> tuple:
    """``simulate_from`` per spec over ``specs``, plus the records of the first pass.

    Each spec's initial state is built once, untimed; every pass then runs
    every spec on a fresh clone of it (clones are byte-equivalent to a
    rebuild).  ``ms_per_spec_p50`` and ``us_per_move_p50`` are medians over
    the passes, and ``records_sha256`` digests the first pass's records,
    which are returned (``record_to_dict`` form) for identity checks.
    """
    initial = [build_initial_state(spec, state_cache=None) for spec in specs]
    pass_seconds = []
    records = None
    for _ in range(passes):
        states = [state.clone() for state in initial]
        gc.collect()
        start = time.perf_counter()
        run = [simulate_from(state, spec) for state, spec in zip(states, specs)]
        pass_seconds.append(time.perf_counter() - start)
        if records is None:
            records = run
    dicts = [record_to_dict(record) for record in records]
    moves = sum(record.metrics.total_moves for record in records)
    median = statistics.median(pass_seconds)
    entry = {
        "scheme": specs[0].scheme,
        "specs": len(specs),
        "passes": passes,
        "moves": moves,
        "ms_per_spec_p50": round(median / len(specs) * 1e3, 4),
        "us_per_move_p50": round(median / moves * 1e6, 3) if moves else 0.0,
        "records_sha256": hashlib.sha256(
            json.dumps(dicts, sort_keys=True).encode()
        ).hexdigest(),
    }
    return entry, dicts


def simulate_from_section(seed: int) -> dict:
    """The paper-tier ``simulate_from`` section, one entry per :data:`SIMULATE_SCHEMES`."""
    config = ScenarioConfig(seed=seed)
    schemes = {}
    for scheme in SIMULATE_SCHEMES:
        specs = build_comparison_specs(
            config, PAPER_SPARE_VALUES, schemes=(scheme,), trials=SIMULATE_TRIALS
        )
        entry, _ = bench_simulate_from(specs)
        schemes[scheme] = entry
        print(
            f"simulate_from {scheme}: {entry['specs']} specs, "
            f"p50 {entry['ms_per_spec_p50']:.3f} ms/spec, "
            f"{entry['us_per_move_p50']:.2f} us/move, records {entry['records_sha256'][:16]}"
        )
    return {
        "grid": f"{config.columns}x{config.rows}",
        "deployed_nodes": config.deployed_count,
        "spare_values": list(PAPER_SPARE_VALUES),
        "trials": SIMULATE_TRIALS,
        "seed": seed,
        "schemes": schemes,
    }


def smoke_simulate_from() -> list:
    """Small-tier ``simulate_from`` section; returns its identity failures."""
    failures = []
    for scheme in SIMULATE_SCHEMES:
        specs = build_comparison_specs(
            SMOKE_SIMULATE_CONFIG, SMOKE_SIMULATE_SPARES, schemes=(scheme,), trials=1
        )
        entry, records = bench_simulate_from(specs, passes=1)
        reference = [record_to_dict(execute_run(spec, state_cache=None)) for spec in specs]
        identical = records == reference
        print(
            f"simulate_from guard: {scheme} on "
            f"{SMOKE_SIMULATE_CONFIG.columns}x{SMOKE_SIMULATE_CONFIG.rows}, "
            f"{entry['specs']} specs, {entry['moves']} moves, "
            f"{entry['us_per_move_p50']:.2f} us/move, records equal execute_run: {identical}"
        )
        if not entry["moves"]:
            failures.append(f"the simulate_from smoke tier made no {scheme} moves")
        if not identical:
            failures.append(
                f"{scheme} records from prebuilt states through simulate_from differ "
                "from execute_run(spec, state_cache=None)"
            )
    return failures


def run_grid(columns: int, rows: int, holes: int, seed: int, repeats: int) -> dict:
    base = build_base_state(columns, rows, seed)
    rounds = bench_recovery_rounds(base, holes, seed, repeats)
    holed = base.clone()
    punch_holes(holed, holes, derive_rng(seed, "holes"))
    query_seconds = bench_queries(holed)
    entry = {
        "columns": columns,
        "rows": rows,
        "cells": columns * rows,
        "deployed_nodes": base.node_count,
        "holes": holes,
        "rounds": rounds,
        "query_seconds": round(query_seconds, 9),
        "deploy": bench_deploy(columns, rows, seed),
        "adjacency": bench_adjacency(base),
    }
    if base.node_count <= INCREMENTAL_MAX_NODES:
        entry["incremental_adjacency"] = bench_incremental_adjacency(base.clone())
    print(
        f"{columns:>4}x{rows:<4} {base.node_count:>6} nodes  "
        f"per-round {rounds['per_round_seconds'] * 1e3:8.3f} ms  "
        f"queries {query_seconds * 1e6:8.2f} us  "
        f"deploy {entry['deploy']['seconds']:6.3f} s  "
        f"adjacency {entry['adjacency']['seconds']:6.3f} s "
        f"({entry['adjacency']['per_edge_seconds'] * 1e9:6.1f} ns/edge)"
    )
    return entry


def channel_failures(channel: dict) -> list:
    """The channel-cost guard's failure messages (empty when it holds)."""
    if channel["us_per_message"] <= CHANNEL_US_PER_MESSAGE_LIMIT:
        return []
    return [
        f"the perfect channel costs {channel['us_per_message']:.2f} us per message "
        f"over channel-less rounds (limit {CHANNEL_US_PER_MESSAGE_LIMIT} us) — the "
        "messaging subsystem grew a cost not explained by traffic"
    ]


def smoke(holes: int, seed: int, repeats: int) -> int:
    """Smallest-grid benchmark + query-scaling regression guard for CI."""
    small = run_grid(16, 16, holes, seed, repeats)
    per_round = small["rounds"]["per_round_seconds"]
    failures = []
    if per_round > SMOKE_ROUND_SECONDS_LIMIT:
        failures.append(
            f"per-round cost on 16x16 is {per_round:.4f}s "
            f"(budget {SMOKE_ROUND_SECONDS_LIMIT}s)"
        )

    medium_state = build_base_state(64, 64, seed)
    punch_holes(medium_state, holes, derive_rng(seed, "holes"))
    small_state = build_base_state(16, 16, seed)
    punch_holes(small_state, holes, derive_rng(seed, "holes"))
    small_query = bench_queries(small_state)
    medium_query = bench_queries(medium_state)
    ratio = medium_query / small_query if small_query > 0 else float("inf")
    print(
        f"query scaling guard: 16x16 {small_query * 1e6:.2f} us vs "
        f"64x64 {medium_query * 1e6:.2f} us -> ratio {ratio:.2f} "
        f"(limit {SMOKE_QUERY_RATIO_LIMIT})"
    )
    if ratio > SMOKE_QUERY_RATIO_LIMIT:
        failures.append(
            f"per-round query cost grows {ratio:.2f}x from 16x16 to 64x64 at equal "
            f"hole count (limit {SMOKE_QUERY_RATIO_LIMIT}x) — an index regression "
            "re-introduced a grid-size-dependent scan"
        )

    adjacency_49k = bench_adjacency(build_base_state(128, 128, seed))
    print(
        f"adjacency guard: 128x128 ({adjacency_49k['nodes']} nodes, "
        f"{adjacency_49k['edges']} edges) built in "
        f"{adjacency_49k['seconds']:.3f} s (limit {ADJACENCY_SECONDS_LIMIT_49K})"
    )
    if adjacency_49k["seconds"] > ADJACENCY_SECONDS_LIMIT_49K:
        failures.append(
            f"batch adjacency at 49k nodes took {adjacency_49k['seconds']:.3f}s "
            f"(limit {ADJACENCY_SECONDS_LIMIT_49K}s) — the vectorized bucket path "
            "regressed toward the old per-node scan (~2.3s)"
        )

    tier_256 = bench_adjacency(build_base_state(256, 256, seed))
    print(
        f"per-edge guard: 256x256 ({tier_256['nodes']} nodes) "
        f"{tier_256['per_edge_seconds'] * 1e9:.1f} ns/edge "
        f"(limit {ADJACENCY_PER_EDGE_SECONDS_LIMIT * 1e9:.0f} ns)"
    )
    if tier_256["per_edge_seconds"] > ADJACENCY_PER_EDGE_SECONDS_LIMIT:
        failures.append(
            f"adjacency throughput on the 256x256 tier is "
            f"{tier_256['per_edge_seconds']:.2e} s/edge "
            f"(limit {ADJACENCY_PER_EDGE_SECONDS_LIMIT:.0e})"
        )

    base = build_base_state(16, 16, seed)
    channel = bench_channel_overhead(base, holes, seed, repeats)
    print(
        "channel cost guard: no-channel "
        f"{channel['per_round_seconds_no_channel'] * 1e3:.3f} ms vs perfect "
        f"{channel['per_round_seconds_perfect_channel'] * 1e3:.3f} ms per round, "
        f"{channel['messages_per_run']} messages per run "
        f"-> {channel['us_per_message']:.2f} us per message "
        f"(limit {CHANNEL_US_PER_MESSAGE_LIMIT})"
    )
    failures.extend(channel_failures(channel))

    build = bench_scenario_build(seeds=(seed,))
    print(
        f"scenario build guard: paper tier build_scenario_state p50 "
        f"{build['build_seconds_p50'] * 1e3:.2f} ms, equals the composition "
        f"{build['build_equals_composition']}; bulk disable "
        f"{build['bulk_disable_seconds_p50'] * 1e3:.2f} ms vs one-at-a-time "
        f"{build['loop_disable_seconds_p50'] * 1e3:.2f} ms -> "
        f"{build['bulk_vs_loop_speedup']}x (floor {BULK_DISABLE_SPEEDUP_FLOOR}x), "
        f"identical {build['bulk_equals_loop']}"
    )
    failures.extend(build_failures(build))
    if build["bulk_vs_loop_speedup"] < BULK_DISABLE_SPEEDUP_FLOOR:
        failures.append(
            f"bulk thinning is only {build['bulk_vs_loop_speedup']}x faster than "
            f"one-at-a-time disables (floor {BULK_DISABLE_SPEEDUP_FLOOR}x) — the "
            "bulk path lost its single pass"
        )
    failures.extend(smoke_simulate_from())
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def full(holes: int, seed: int, repeats: int, output: Path, include_large: bool) -> int:
    shapes = list(GRID_SHAPES)
    if include_large:
        shapes.append(LARGE_GRID_SHAPE)
    grids = []
    for columns, rows in shapes:
        # The top tiers run few rounds each; extra repeats only repeat the
        # (dominant, already-stable) setup cost.
        tier_repeats = repeats if columns * rows <= 128 * 128 else min(repeats, 3)
        grids.append(run_grid(columns, rows, holes, seed, tier_repeats))
    smallest, largest = grids[0], grids[-1]
    ratio = (
        largest["rounds"]["per_round_seconds"]
        / smallest["rounds"]["per_round_seconds"]
    )
    channel = bench_channel_overhead(
        build_base_state(*GRID_SHAPES[0], seed), holes, seed, repeats
    )
    build = bench_scenario_build(seeds=range(1, 4))
    simulate = simulate_from_section(seed)
    print(
        f"\npaper-tier build_scenario_state p50: "
        f"{build['build_seconds_p50'] * 1e3:.2f} ms, equals the composition "
        f"{build['build_equals_composition']}; bulk disable "
        f"{build['bulk_vs_loop_speedup']}x one-at-a-time, identical "
        f"{build['bulk_equals_loop']}"
    )
    failures = build_failures(build) + channel_failures(channel)
    if include_large:
        large = grids[-1]
        if large["deploy"]["seconds"] > DEPLOY_SECONDS_LIMIT_786K:
            failures.append(
                f"deploying the {LARGE_GRID_SHAPE[0]}x{LARGE_GRID_SHAPE[1]} tier "
                f"({large['deploy']['nodes']} nodes) took "
                f"{large['deploy']['seconds']:.2f}s (limit {DEPLOY_SECONDS_LIMIT_786K}s)"
            )
        if large["adjacency"]["per_edge_seconds"] > ADJACENCY_PER_EDGE_SECONDS_LIMIT:
            failures.append(
                f"adjacency throughput on the largest tier is "
                f"{large['adjacency']['per_edge_seconds']:.2e} s/edge "
                f"(limit {ADJACENCY_PER_EDGE_SECONDS_LIMIT:.0e})"
            )
    report = {
        "benchmark": "bench_scale",
        "description": (
            "SR recovery per-round cost and state-query cost at equal hole "
            "count across grid sizes; per_round_ratio_largest_vs_smallest ~2x "
            "or less means round cost is grid-size independent, "
            "channel_overhead.us_per_message is what the default perfect "
            "control-message channel adds per message sent (perfect-channel "
            "rounds minus channel-less rounds, median over adjacent pairs; "
            f"guarded at <= {CHANNEL_US_PER_MESSAGE_LIMIT} us), "
            "the per-tier deploy/adjacency columns track the "
            "vectorized struct-of-arrays paths (per-edge seconds are the "
            "throughput of the batch adjacency build), scenario_build times "
            "build_scenario_state at the paper tier (16x16, 5000 deployed, "
            "thinned over PAPER_SPARE_VALUES), requires it byte-identical to "
            "deploy + WsnState + ThinningToEnabledCount.apply, and times one "
            "bulk disable_nodes call against a loop of one-element "
            "disable_node calls over the same victims (byte-identity "
            "required), simulate_from times the "
            "Figures 6-8 sweep's SR and AR specs at the paper tier on prebuilt "
            "initial states (median over passes of ms per spec and us per move, "
            "plus a records digest)"
        ),
        "cores_available": os.cpu_count(),
        "scheme": "SR",
        "nodes_per_cell": NODES_PER_CELL,
        "communication_range": COMMUNICATION_RANGE,
        "holes": holes,
        "seed": seed,
        "grids": grids,
        "per_round_ratio_largest_vs_smallest": round(ratio, 3),
        "query_ratio_largest_vs_smallest": round(
            largest["query_seconds"] / smallest["query_seconds"], 3
        ),
        "channel_overhead": channel,
        "scenario_build": build,
        "simulate_from": simulate,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    largest_label = f"{shapes[-1][0]}x{shapes[-1][1]}"
    print(f"\nper-round cost {largest_label} vs 16x16: {ratio:.2f}x")
    print(
        f"perfect-channel cost: {channel['us_per_message']:.2f} us per message "
        f"(limit {CHANNEL_US_PER_MESSAGE_LIMIT})"
    )
    print(f"[written to {output}]")
    for failure in failures:
        print(f"BENCH FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: smallest grid only, plus the regression guards",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help=(
            "include the 512x512 (~786k node) tier in the report; local runs "
            "only — it needs a few GB of RAM and a couple of minutes"
        ),
    )
    parser.add_argument("--holes", type=int, default=DEFAULT_HOLES)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument(
        "--repeats", type=int, default=10, help="independent recovery runs per grid"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_scale.json",
        help="where the full run writes its JSON report",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.holes, args.seed, args.repeats)
    return full(args.holes, args.seed, args.repeats, args.output, args.full)


if __name__ == "__main__":
    sys.exit(main())
