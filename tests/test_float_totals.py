"""A record's float totals are added left to right, whatever ``sum()`` does.

From Python 3.12 the builtin ``sum()`` compensates float addition (Neumaier
summation), where 3.9 to 3.11 add left to right.  A record's distance total
must not depend on which of them computed it: the golden fixture was written
by a left-to-right ``sum()``, and a record stored under one interpreter must
be the record another computes under the same run key.  These tests run on
any interpreter: they patch ``builtins.sum`` with a Python model of 3.12's
``sum()`` and require the paper-tier records to stay the fixture's.
"""

from __future__ import annotations

import builtins
import json
import math

import pytest

from golden_specs import FIXTURE_PATH, GOLDEN_SPECS, record_to_dict
from repro.core.protocol import ReplacementProcess
from repro.experiments.orchestration import execute_run
from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord
from repro.network.mobility import MoveRecord


def compensated_sum(values, start=0):
    """A model of Python 3.12's builtin ``sum()``.

    Ints add exactly; a float added to a float total is compensated
    (Neumaier), and the compensation is added at the end when it is nonzero
    and finite.
    """
    total = start
    compensation = 0.0
    for value in values:
        if type(total) is float and type(value) is float:
            added = total + value
            if abs(total) >= abs(value):
                compensation += (total - added) + value
            else:
                compensation += (value - added) + total
            total = added
        else:
            total = total + value
    if type(total) is float and compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_the_model_compensates_float_totals_and_keeps_ints_exact():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([2**60, 1, -(2**60)]) == 1
    assert compensated_sum([]) == 0 and type(compensated_sum([])) is int


@pytest.mark.parametrize("name", ["paper-sr", "paper-ar", "paper-vf"])
def test_records_stay_the_fixtures_under_a_compensating_sum(name, monkeypatch):
    expected = json.loads(FIXTURE_PATH.read_text())[name]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    record = execute_run(GOLDEN_SPECS[name], state_cache=None)
    fresh = json.loads(json.dumps(record_to_dict(record)))
    monkeypatch.undo()
    mismatched = sorted(
        key for key in set(fresh) | set(expected) if fresh.get(key) != expected.get(key)
    )
    assert not mismatched, ", ".join(
        f"{key}: {expected.get(key)!r} -> {fresh.get(key)!r}" for key in mismatched
    )


def test_a_process_adds_its_move_distances_left_to_right():
    process = ReplacementProcess(
        process_id=0,
        origin_cell=GridCoord(0, 0),
        initiator_cell=GridCoord(1, 0),
        started_round=0,
    )
    assert process.total_distance == 0 and type(process.total_distance) is int
    for round_index in range(10):
        process.moves.append(
            MoveRecord(
                7,
                GridCoord(1, 0),
                GridCoord(0, 0),
                Point(1.5, 0.5),
                Point(1.4, 0.5),
                0.1,
                round_index,
                0,
            )
        )
    assert process.total_distance == 0.9999999999999999
