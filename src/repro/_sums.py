"""Left-to-right float totals, the same on every Python.

From 3.12 the builtin ``sum()`` compensates float addition (Neumaier
summation), where 3.9 to 3.11 add left to right, so one list of floats can
total differently in its last bit on the two.  A record stored under one
interpreter must be the record another computes under the same run key, so
every float total in a record or a figure table is added left to right:
:func:`sequential_sum` for Python iterables, and the energy totals with a
``cumsum`` over their arrays (:mod:`repro.network.energy`).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, Union


def sequential_sum(values: Iterable[float]) -> Union[int, float]:
    """``values`` added left to right to the int ``0``, as ``sum()`` adds before 3.12.

    An empty iterable totals the int ``0``, as ``sum()`` does, so a run
    without moves still records ``0``.
    """
    return reduce(add, values, 0)
