"""Scaling by the reference loop turns wall time into nominal time and touches nothing else."""

import pytest

import calibration
import run
import served_mix


def _iteration(wall, scale):
    return {
        "wall_s": wall,
        "scale": scale,
        "specs": 4,
        "rounds": 100,
        "novel_s": [wall / 2],
        "repeat_s": [wall / 4, wall / 4],
    }


def test_scale_is_nominal_over_reference():
    assert calibration.reference_loop() > 0
    assert calibration.scale(calibration.REFERENCE_NOMINAL_S) == 1.0
    assert calibration.scale(2 * calibration.REFERENCE_NOMINAL_S) == 0.5


def test_closed_loop_metrics_scale_each_iteration():
    # The same work on a host at half speed, measured at half speed, reads the same.
    fast = [_iteration(1.0, 1.0), _iteration(1.0, 1.0)]
    slow = [_iteration(2.0, 0.5), _iteration(2.0, 0.5)]
    assert run.closed_loop_metrics(slow) == pytest.approx(run.closed_loop_metrics(fast))
    raw = run.closed_loop_metrics(slow, scaled=False)
    assert raw["specs_per_s"] == pytest.approx(2.0)
    assert raw["novel_p50_s"] == pytest.approx(1.0)


def test_closed_loop_metrics_skip_failed_iterations():
    assert run.closed_loop_metrics([None, _iteration(1.0, 1.0)]) == run.closed_loop_metrics(
        [_iteration(1.0, 1.0)]
    )


def test_served_metrics_scale_latencies_not_delivered_rates():
    requests = [{"kind": kind, "timed": True} for kind in ("hit", "miss", "stream")]
    outcomes = [
        {"latency_s": 0.004},
        {"latency_s": 0.08, "record": {"rounds_executed": 10}},
        {"latency_s": 0.1, "record": {"rounds_executed": 20}},
    ]
    # A scale of 0.25 becomes a latency factor of 0.5 (SERVED_ELASTICITY).
    traffic = {"outcomes": outcomes, "scale": 0.25, "window_s": 1.0, "setups": [(0.6, 0.5)]}
    scaled = served_mix.served_metrics(requests, traffic)
    raw = served_mix.served_metrics(requests, traffic, scaled=False)
    assert scaled["repeat_p50_s"] == pytest.approx(0.002)
    assert raw["novel_p50_s"] == 0.08
    streamed_only = served_mix.served_metrics(requests[::2], traffic | {"outcomes": outcomes[::2]})
    assert streamed_only["novel_p50_s"] == pytest.approx(0.05)  # streamed requests are novel
    assert scaled["specs_per_s"] == raw["specs_per_s"] == 3.0
    assert scaled["rounds_per_s"] == 30.0
    assert scaled["setup_s"] == pytest.approx(0.3)
