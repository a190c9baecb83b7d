"""The pinned run specs of the seed-identity golden test.

These specs cover every code path the struct-of-arrays refactor and the
flat-cell-id hot path touch: uniform and per-cell deployments, thinning,
scheduled failures, energy physics with jittered batteries
(run-to-exhaustion), a lossy channel under SR and AR, both paper schemes,
the dual-path construction of an odd-by-odd grid, SR-shortcut, the
energy-aware AR variant, and a non-default head policy.
``record_to_dict`` flattens a
:class:`~repro.experiments.orchestration.RunRecord` into plain JSON types
with full float precision, so the fixture comparison is bit-for-bit.

Regenerate the fixture (only when the simulation *semantics* intentionally
change) with::

    PYTHONPATH=src:tests python -m golden_specs

which rewrites ``tests/data/golden_seed_identity.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.lifetime import LIFETIME_CONFIG, build_lifetime_specs
from repro.experiments.orchestration import RunRecord, RunSpec, execute_run
from repro.network.channel import ChannelModel
from repro.network.energy import EnergyModel
from repro.network.failures import FailureEvent
from repro.sim.scenario import ScenarioConfig

FIXTURE_PATH = Path(__file__).resolve().parent / "data" / "golden_seed_identity.json"

#: The paper-baseline deployment of Section 5 (5000 sensors, 16x16 grid).
_PAPER = ScenarioConfig(
    columns=16, rows=16, deployed_count=5000, spare_surplus=20, seed=2008
)

GOLDEN_SPECS = {
    "paper-sr": RunSpec(scenario=_PAPER, scheme="SR", seed=11),
    "paper-ar": RunSpec(scenario=_PAPER, scheme="AR", seed=11),
    "paper-sr-sparse": RunSpec(
        scenario=_PAPER.with_spare_surplus(2), scheme="SR", seed=13
    ),
    "per-cell-dynamic-failures": RunSpec(
        scenario=ScenarioConfig(
            columns=12,
            rows=12,
            deployed_count=12 * 12 * 3,
            deployment="per_cell",
            seed=77,
        ),
        scheme="SR",
        seed=5,
        failures=(
            FailureEvent.with_params(1, "targeted_cells", cells=[[2, 2], [9, 4]]),
            FailureEvent.with_params(3, "random", count=6),
            FailureEvent.with_params(
                5, "region_jamming", box=[10.0, 10.0, 25.0, 25.0]
            ),
        ),
    ),
    "lifetime-energy": RunSpec(
        scenario=ScenarioConfig(
            columns=8,
            rows=8,
            deployed_count=8 * 8 * 3,
            deployment="per_cell",
            seed=42,
            initial_energy=60.0,
            initial_energy_jitter=0.3,
        ),
        scheme="SR-energy",
        seed=9,
        max_rounds=400,
        energy=EnergyModel(idle_cost_per_round=0.75, depletion_threshold=0.5),
        run_to_exhaustion=True,
    ),
    "lossy-channel": RunSpec(
        scenario=ScenarioConfig(
            columns=10, rows=10, deployed_count=700, spare_surplus=8, seed=31
        ),
        scheme="SR",
        seed=17,
        channel=ChannelModel.with_params("lossy", drop_probability=0.2),
    ),
    # An odd-by-odd grid takes the dual-path construction.  The targeted
    # failures empty C=(0, 1), A=(0, 0), D=(1, 0) and B=(1, 1), and the
    # chain cell after D, so the run takes every rule of Algorithm 2: A or B
    # vacant, D vacant as an original hole and by a cascade (to A and to B),
    # and C vacant (to A and up the chain).
    "dual-path-sr": RunSpec(
        scenario=ScenarioConfig(
            columns=7, rows=9, deployed_count=400, spare_surplus=14, seed=25
        ),
        scheme="SR",
        seed=3,
        failures=(
            FailureEvent.with_params(1, "targeted_cells", cells=[[0, 1], [2, 0]]),
            FailureEvent.with_params(4, "targeted_cells", cells=[[0, 0], [1, 0]]),
            FailureEvent.with_params(7, "targeted_cells", cells=[[1, 1], [0, 1]]),
            FailureEvent.with_params(10, "random", count=12),
        ),
    ),
    "lossy-channel-ar": RunSpec(
        scenario=ScenarioConfig(
            columns=10, rows=10, deployed_count=700, spare_surplus=8, seed=31
        ),
        scheme="AR",
        seed=17,
        channel=ChannelModel.with_params("lossy", drop_probability=0.2),
    ),
    "lifetime-ar-energy": build_lifetime_specs(LIFETIME_CONFIG, schemes=("AR-energy",))[0],
    "paper-sr-shortcut": RunSpec(
        scenario=_PAPER.with_spare_surplus(10), scheme="SR-shortcut", seed=19
    ),
    "paper-sr-highest-energy": RunSpec(
        scenario=ScenarioConfig(
            columns=16,
            rows=16,
            deployed_count=5000,
            spare_surplus=20,
            seed=2008,
            initial_energy=100.0,
            initial_energy_jitter=0.3,
            head_policy="highest_energy",
        ),
        scheme="SR",
        seed=11,
    ),
}


def record_to_dict(record: RunRecord) -> dict:
    """Flatten a run record to plain JSON types, keeping full float precision."""
    payload = dict(record.metrics.as_dict())
    summary = record.metrics.energy
    if summary is not None:
        payload.update(
            {
                "energy_enabled_nodes": summary.enabled_nodes,
                "energy_total": summary.total_energy,
                "energy_mean": summary.mean_energy,
                "energy_min": summary.min_energy,
                "energy_max": summary.max_energy,
                "energy_head_mean": summary.head_mean_energy,
                "energy_spare_mean": summary.spare_mean_energy,
                "energy_initial_total": summary.initial_energy_total,
            }
        )
    payload.update(
        {
            "rounds_executed": record.rounds_executed,
            "stalled": record.stalled,
            "exhausted": record.exhausted,
            "energy_series": list(record.energy_series),
        }
    )
    return payload


def generate() -> dict:
    """Execute every golden spec and return ``{name: flattened record}``."""
    return {name: record_to_dict(execute_run(spec)) for name, spec in GOLDEN_SPECS.items()}


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
