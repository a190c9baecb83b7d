"""Unit tests for run metrics and the seeded RNG helpers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import MobilityController, RoundOutcome
from repro.grid.virtual_grid import GridCoord
from repro.sim.metrics import RunMetrics, collect_metrics, snapshot_state
from repro.sim.rng import derive_rng, draw_uniforms, sample_indices, spawn_seeds

from helpers import make_hole


def make_metrics(**overrides):
    values = dict(
        scheme="SR",
        rounds=5,
        processes_initiated=4,
        processes_converged=3,
        processes_failed=1,
        redundant_processes=0,
        success_rate=0.75,
        total_moves=9,
        total_distance=42.0,
        messages_sent=2,
        initial_holes=4,
        final_holes=1,
        initial_spares=10,
        final_spares=6,
        initial_enabled=50,
        cell_coverage_before=0.8,
        cell_coverage_after=0.95,
    )
    values.update(overrides)
    return RunMetrics(**values)


class TestRunMetrics:
    def test_derived_properties(self):
        metrics = make_metrics()
        assert metrics.repaired_holes == 3
        assert not metrics.coverage_restored
        assert metrics.moves_per_repaired_hole == pytest.approx(3.0)
        assert metrics.distance_per_repaired_hole == pytest.approx(14.0)

    def test_no_repairs_edge_case(self):
        metrics = make_metrics(final_holes=4)
        assert metrics.repaired_holes == 0
        assert metrics.moves_per_repaired_hole == 0.0

    def test_as_dict_round_trip(self):
        data = make_metrics().as_dict()
        assert data["scheme"] == "SR"
        assert data["repaired_holes"] == 3
        assert set(data) >= {"total_moves", "total_distance", "success_rate"}


class TestSnapshotAndCollect:
    def test_snapshot(self, dense_state):
        make_hole(dense_state, GridCoord(0, 0))
        snapshot = snapshot_state(dense_state)
        assert snapshot.holes == 1
        assert snapshot.enabled == dense_state.enabled_count
        assert snapshot.cell_coverage == pytest.approx(19 / 20)

    def test_collect_metrics_uses_controller_aggregates(self, dense_state):
        class FakeController(MobilityController):
            name = "fake"

            def execute_round(self, state, rng, round_index):
                return RoundOutcome(round_index=round_index)

        controller = FakeController()
        process = controller._start_process(GridCoord(0, 0), GridCoord(0, 1), 0)
        process.mark_converged(1)
        snapshot = snapshot_state(dense_state)
        metrics = collect_metrics(controller, dense_state, snapshot, rounds=3, messages_sent=5)
        assert metrics.scheme == "fake"
        assert metrics.processes_initiated == 1
        assert metrics.success_rate == 1.0
        assert metrics.messages_sent == 5
        assert metrics.rounds == 3


class TestRng:
    def test_derive_rng_is_deterministic(self):
        a = derive_rng(42, "deployment")
        b = derive_rng(42, "deployment")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_by_label(self):
        a = derive_rng(42, "deployment")
        b = derive_rng(42, "controller")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert derive_rng(1, "x").random() != derive_rng(2, "x").random()

    def test_spawn_seeds(self):
        seeds = spawn_seeds(7, 5)
        assert len(seeds) == 5
        assert len(set(seeds)) == 5
        assert spawn_seeds(7, 5) == seeds
        assert spawn_seeds(8, 5) != seeds

    def test_spawn_seeds_invalid_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(7, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        count=st.one_of(
            st.sampled_from([0, 1, 311, 312, 313, 623, 624, 625, 1247, 1248, 1249, 10_000]),
            st.integers(min_value=0, max_value=10_000),
        ),
        # Words drawn first, so pairs also start at odd word offsets and
        # straddle the generator's 624-word refills.
        skip=st.one_of(st.sampled_from([0, 1, 623]), st.integers(min_value=0, max_value=1300)),
    )
    def test_draw_uniforms_equals_the_per_draw_loop(self, seed, count, skip):
        bulk, looped = random.Random(seed), random.Random(seed)
        for generator in (bulk, looped):
            for _ in range(skip):
                generator.getrandbits(32)
        draws = draw_uniforms(bulk, count)
        expected = [looped.random() for _ in range(count)]
        assert draws.dtype.name == "float64" and draws.shape == (count,)
        assert draws.tolist() == expected
        assert draws.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert bulk.getstate() == looped.getstate()


def cpython_setsize(k):
    """The size at which ``random.sample`` switches from its pool to its set."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def assert_sample_matches(seed, n, k):
    bulk, reference = random.Random(seed), random.Random(seed)
    assert sample_indices(bulk, n, k) == reference.sample(range(n), k), (seed, n, k)
    assert bulk.getstate() == reference.getstate(), (seed, n, k)


class TestSampleIndices:
    """``sample_indices`` is CPython's ``random.sample`` over ``range(n)``."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 100, 300, 5000])
    def test_equals_cpython_sample(self, n):
        for k in sorted({k for k in (0, 1, 5, 6, n // 2, n - 1, n) if 0 <= k <= n}):
            for seed in range(12):
                assert_sample_matches(seed, n, k)

    @pytest.mark.parametrize("k", [3744, 4000, 4367, 4734])
    def test_equals_cpython_sample_at_the_paper_tier(self, k):
        # The Section-5 thinning draw: 5000 deployed, 256 + N kept.
        assert cpython_setsize(k) > 5000  # the pool branch
        for seed in range(8):
            assert_sample_matches(seed, 5000, k)

    @pytest.mark.parametrize("k", [1, 5, 6, 7, 22, 100])
    def test_branch_boundary(self, k):
        # n == setsize keeps the pool; one more switches to the set.
        for n in (cpython_setsize(k), cpython_setsize(k) + 1):
            for seed in range(10):
                assert_sample_matches(seed, n, k)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        n=st.integers(min_value=0, max_value=3000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        skip=st.integers(min_value=0, max_value=700),
    )
    def test_equals_cpython_sample_from_any_state(self, seed, n, fraction, skip):
        k = int(n * fraction)
        bulk, reference = random.Random(seed), random.Random(seed)
        for generator in (bulk, reference):
            for _ in range(skip):
                generator.getrandbits(32)
        assert sample_indices(bulk, n, k) == reference.sample(range(n), k)
        assert bulk.getstate() == reference.getstate()

    @pytest.mark.parametrize("n, k", [(10, -1), (10, 11), (0, 1)])
    def test_k_outside_the_population_is_a_value_error(self, n, k):
        with pytest.raises(ValueError):
            random.Random(1).sample(range(n), k)
        rng = random.Random(1)
        before = rng.getstate()
        with pytest.raises(ValueError):
            sample_indices(rng, n, k)
        assert rng.getstate() == before

    def test_only_an_exact_random_is_accepted(self):
        class Fixed(random.Random):
            def random(self):
                return 0.5

        with pytest.raises(TypeError):
            sample_indices(Fixed(1), 10, 3)
        with pytest.raises(TypeError):
            draw_uniforms(Fixed(1), 3)
