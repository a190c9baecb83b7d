"""The workload generators are pure in their seed and keep their declared shapes."""

import itertools
from collections import Counter

import pytest

import workloads

SPARES = [10, 25, 55, 100, 200, 300, 400, 600, 800, 1000]


def _take(stream, count):
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("generator", [workloads.sweep_seeds, workloads.lifetime_seeds])
def test_closed_loop_seed_streams_are_pure_in_seed(generator):
    assert _take(generator(5), 8) == _take(generator(5), 8)
    assert _take(generator(5), 8) != _take(generator(6), 8)


def test_sweep_and_lifetime_streams_differ():
    assert _take(workloads.sweep_seeds(5), 4) != _take(workloads.lifetime_seeds(5), 4)


def test_served_mix_is_pure_in_seed():
    assert workloads.served_mix(3, 100, SPARES) == workloads.served_mix(3, 100, SPARES)
    assert workloads.served_mix(3, 100, SPARES) != workloads.served_mix(4, 100, SPARES)


@pytest.mark.parametrize("count", [20, 300])
def test_served_mix_realizes_the_declared_shares_on_full_blocks(count):
    requests = workloads.served_mix(9, count, SPARES)
    timed = [request for request in requests if request["timed"]]
    assert len(timed) == count
    shares = Counter(request["kind"] for request in timed)
    blocks = count // workloads.MIX_BLOCK
    assert shares == {kind: n * blocks for kind, n in workloads.MIX_COUNTS.items()}


@pytest.mark.parametrize("count", [1, 7, 33])
def test_served_mix_short_sequences_keep_block_prefix_shares(count):
    requests = workloads.served_mix(11, count, SPARES)
    timed = [request["kind"] for request in requests if request["timed"]]
    assert len(timed) == count
    full, rest = divmod(count, workloads.MIX_BLOCK)
    shares = Counter(timed)
    for kind, per_block in workloads.MIX_COUNTS.items():
        assert per_block * full <= shares[kind] <= per_block * (full + 1)
    assert sum(shares.values()) == full * workloads.MIX_BLOCK + rest


def test_served_mix_warm_up_is_untimed_and_novel():
    requests = workloads.served_mix(2, 40, SPARES)
    warm_up = requests[: workloads.WARMUP_NOVEL]
    assert all(not request["timed"] and request["kind"] == "miss" for request in warm_up)
    assert all(request["timed"] for request in requests[workloads.WARMUP_NOVEL :])


def test_served_mix_repeats_only_old_novel_specs():
    requests = workloads.served_mix(5, 300, SPARES)
    novel_before = []
    count = 0
    for request in requests:
        novel_before.append(count)
        if request["kind"] != "hit":
            count += 1
    for index, request in enumerate(requests):
        if request["kind"] != "hit":
            continue
        origin = request["origin"]
        assert requests[origin]["kind"] != "hit"
        assert request["payload"] == requests[origin]["payload"]
        assert novel_before[index] - novel_before[origin] >= workloads.REPEAT_MIN_AGE


def test_served_mix_novel_specs_are_distinct_and_paper_tier():
    requests = workloads.served_mix(8, 300, SPARES)
    novel = [request["payload"] for request in requests if request["kind"] != "hit"]
    assert len({payload["seed"] for payload in novel}) == len(novel)
    scenarios = {
        (payload["scenario"]["spare_surplus"], payload["scenario"]["seed"]) for payload in novel
    }
    assert {seed for _, seed in scenarios} == set(workloads.SERVE_SCENARIO_SEEDS)
    for payload in novel:
        assert payload["scenario"]["columns"] == 16
        assert payload["scenario"]["deployed_count"] == 5000
        assert payload["scenario"]["spare_surplus"] in SPARES
        assert payload["scheme"] in workloads.SERVE_SCHEMES
        assert payload["max_rounds"] == workloads.SERVE_MAX_ROUNDS


def _spread(counter, items):
    counts = [counter[item] for item in items]
    return max(counts) - min(counts)


@pytest.mark.parametrize("seed", [12, 13])
def test_served_mix_novel_specs_are_balanced_in_warm_up_and_timed_window(seed):
    requests = workloads.served_mix(seed, 150, SPARES)
    for timed in (False, True):
        novel = [r["payload"] for r in requests if r["kind"] != "hit" and r["timed"] == timed]
        spares = Counter(payload["scenario"]["spare_surplus"] for payload in novel)
        assert _spread(spares, SPARES) <= 1
        schemes = Counter(payload["scheme"] for payload in novel)
        assert _spread(schemes, workloads.SERVE_SCHEMES) <= 1
        lossy = sum(payload.get("channel") == workloads.SERVE_LOSSY_CHANNEL for payload in novel)
        assert abs(lossy - len(novel) / workloads.SERVE_LOSSY_EVERY) <= 1


def test_served_mix_timed_spare_counts_are_the_same_on_every_seed():
    def spare_counts(seed):
        requests = workloads.served_mix(seed, 140, SPARES)  # whole blocks: same novel count
        return Counter(
            r["payload"]["scenario"]["spare_surplus"]
            for r in requests
            if r["kind"] != "hit" and r["timed"]
        )

    assert spare_counts(1) == spare_counts(2) == spare_counts(3)
