"""Seeded random-number helpers.

Every stochastic component of the simulator (deployment, failure injection,
controller tie-breaking, movement targets) takes an explicit
:class:`random.Random` so that experiments are reproducible from a single
scenario seed.  The helpers here derive independent streams from that seed in
a stable, documented way.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import List

import numpy as np


def derive_rng(seed: int, label: str) -> random.Random:
    """A :class:`random.Random` derived deterministically from ``(seed, label)``.

    Using a label (e.g. ``"deployment"`` or ``"controller"``) keeps the
    streams of the different simulation stages independent: changing how many
    random numbers one stage consumes does not perturb the others.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def draw_uniforms(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws of ``rng.random()``, in order, as a ``float64`` array.

    Equal to ``[rng.random() for _ in range(count)]`` value for value, and
    ``rng`` ends in the same state: the same C calls run in the same order,
    driven from C by ``starmap`` instead of one Python frame per draw.
    ``numpy.random`` is deliberately not used (it is a different stream, and
    importing it costs about 11 ms and 6 MB of resident memory).
    """
    return np.fromiter(
        itertools.starmap(rng.random, itertools.repeat((), count)), np.float64, count
    )


def spawn_seeds(seed: int, count: int, label: str = "trial") -> List[int]:
    """Derive ``count`` independent trial seeds from a master seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = derive_rng(seed, f"spawn:{label}")
    return [rng.randrange(2**63) for _ in range(count)]
