"""Seeded workload generators: every input the benchmark sends is a pure function of its seed.

The program under test never sees the benchmark seed; it only receives the
scenario configs and request bodies generated here.  Nothing in this module
imports ``repro``, so the generators (and their tests) stay cheap to import.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence

#: figure-sweep: trials per sweep iteration (``figures --trials``).
SWEEP_TRIALS = 2

#: lifetime: trials per ``run_lifetime_experiment`` call (4 schemes each).
LIFETIME_TRIALS = 4

#: served-mix: open-loop arrival rate (requests per second, fixed spacing).
#: Novel specs then keep under a fifth of the server's interpreter busy on
#: a 2-core shared host at its usual speed.  At 10 requests/s, the host's
#: half-speed phases drove that share towards one: the backlog grew, and the
#: medians of three runs in ten rose ten- to fifty-fold (repeat median
#: 36-240 ms).
SERVE_RATE = 5.0
#: served-mix: class counts per block of 20 requests (55 / 35 / 10 %).
MIX_COUNTS = {"hit": 11, "miss": 7, "stream": 2}
MIX_BLOCK = sum(MIX_COUNTS.values())
#: A repeat draws only from novel specs issued at least this many novel
#: requests earlier, so the spec is stored rather than still in flight.
REPEAT_MIN_AGE = 15
#: Untimed novel requests sent before the timed window.  With twice the
#: minimum age, the first timed repeat already chooses among 15 stored specs,
#: so the timed mix keeps its declared shares from its first request on and
#: early repeats do not pile onto a handful of specs.
WARMUP_NOVEL = 2 * REPEAT_MIN_AGE
#: Scenario build seeds of served-mix (x 10 spare counts = 40 scenarios, five
#: times the state cache's 8 slots).  They are the same on every benchmark
#: seed: the service answers questions about one fixed set of deployments,
#: and the benchmark seed picks the order, the controller seeds and the
#: repeats, and the work of a run stays the same from seed to seed.
SERVE_SCENARIO_SEEDS = (1, 2, 3, 4)
#: One novel spec in this many runs over the lossy channel (a quarter).
SERVE_LOSSY_EVERY = 4
SERVE_LOSSY_CHANNEL = "lossy:0.2"
SERVE_MAX_ROUNDS = 60
SERVE_SCHEMES = ("SR", "AR")
PAPER_TIER = {"columns": 16, "rows": 16, "deployed_count": 5000}


def _seed_stream(label: str, seed: int) -> Iterator[int]:
    """Endless stream of scenario master seeds for one workload and seed."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def sweep_seeds(seed: int) -> Iterator[int]:
    """``ScenarioConfig.seed`` of each figure-sweep iteration, in order."""
    return _seed_stream("figure-sweep", seed)


def lifetime_seeds(seed: int) -> Iterator[int]:
    """``LIFETIME_CONFIG.with_seed`` argument of each lifetime iteration, in order."""
    return _seed_stream("lifetime", seed)


def _balanced(rng: random.Random, items: Sequence[object], count: int) -> List[object]:
    """``count`` draws from ``items`` in shuffled order, each item as equally often as can be.

    Full rounds hold every item once; the rest are items spread evenly
    through ``items``' order.  A run's mix (how many specs of each scenario,
    scheme and channel) is then the same on every seed; only its order and
    pairings change.  With independent draws, or rounds cut off where the
    run ends, the simulated rounds of a run spread by 0.09-0.19 (quartile
    distance over median) across ten seeds; balanced, by 0.07.
    """
    rounds, rest = divmod(count, len(items))
    drawn = list(items) * rounds + [
        items[(2 * i + 1) * len(items) // (2 * rest)] for i in range(rest)
    ]
    rng.shuffle(drawn)
    return drawn


def _class_sequence(rng: random.Random, count: int) -> List[str]:
    """Request classes in shuffled blocks of :data:`MIX_BLOCK`, exact shares per full block."""
    classes: List[str] = []
    while len(classes) < count:
        block = [kind for kind, n in MIX_COUNTS.items() for _ in range(n)]
        rng.shuffle(block)
        classes.extend(block)
    return classes[:count]


def served_mix(seed: int, count: int, spare_values: List[int]) -> List[Dict[str, object]]:
    """The served-mix request sequence, pure in ``seed``.

    :data:`WARMUP_NOVEL` untimed novel ``POST /run`` requests come first,
    then ``count`` timed requests whose classes follow shuffled blocks of
    :data:`MIX_BLOCK`, so every full block has exactly the declared shares
    (a partial last block has the shares of its shuffled prefix).

    Each entry is ``{"kind": "hit"|"miss"|"stream", "timed": bool,
    "payload": <POST /run body>, "origin": <index of the novel request a hit
    repeats, or None>}``.
    """
    rng = random.Random(f"served-mix:{seed}")
    classes = ["miss"] * WARMUP_NOVEL + _class_sequence(rng, count)
    scenarios, schemes, lossy = [], [], []
    for novel_count in (WARMUP_NOVEL, sum(kind != "hit" for kind in classes[WARMUP_NOVEL:])):
        scenarios += _balanced(
            rng, [(spare, seed) for spare in spare_values for seed in SERVE_SCENARIO_SEEDS], novel_count
        )
        schemes += _balanced(rng, SERVE_SCHEMES, novel_count)
        lossy += _balanced(rng, [True] + [False] * (SERVE_LOSSY_EVERY - 1), novel_count)
    used_controller_seeds = set()
    novel: List[int] = []  # request indices of novel specs, in issue order
    requests: List[Dict[str, object]] = []
    for index, kind in enumerate(classes):
        timed = index >= WARMUP_NOVEL
        if kind == "hit":
            origin = novel[rng.randrange(len(novel) - REPEAT_MIN_AGE)]
            requests.append(
                {
                    "kind": "hit",
                    "timed": timed,
                    "payload": requests[origin]["payload"],
                    "origin": origin,
                }
            )
            continue
        controller_seed = rng.randrange(1, 2**31)
        while controller_seed in used_controller_seeds:
            controller_seed = rng.randrange(1, 2**31)
        used_controller_seeds.add(controller_seed)
        spare, scenario_seed = scenarios[len(novel)]
        payload: Dict[str, object] = {
            "scenario": {**PAPER_TIER, "spare_surplus": spare, "seed": scenario_seed},
            "scheme": schemes[len(novel)],
            "seed": controller_seed,
            "max_rounds": SERVE_MAX_ROUNDS,
        }
        if lossy[len(novel)]:
            payload["channel"] = SERVE_LOSSY_CHANNEL
        novel.append(index)
        requests.append({"kind": kind, "timed": timed, "payload": payload, "origin": None})
    return requests
