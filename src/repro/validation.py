"""Field checks shared by the frozen configuration records.

A run spec arrives from JSON, TOML or Python, so a field declared ``float``
may hold an integer with 400 digits and one declared ``int`` may hold
``2.5``, ``"5"`` or ``True``.  :func:`finite_float` and :func:`checked_int`
turn each into a :class:`ValueError` that names the field, when the record
is built, instead of an ``OverflowError`` or ``TypeError`` deep inside a run.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional


def finite_float(value: object, name: str) -> float:
    """``value`` as a finite ``float``, or :class:`ValueError` naming ``name``.

    Any real number but ``bool`` is accepted, numpy scalars included; nan,
    infinities and integers too large for a float are refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def checked_int(value: object, name: str, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int`` of at least ``minimum``, or :class:`ValueError` naming ``name``.

    Python and numpy integers are accepted; ``bool``, floats (even whole
    ones) and strings are refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    number = int(value)
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number
