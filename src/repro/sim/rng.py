"""Seeded random-number helpers.

Every stochastic component of the simulator (deployment, failure injection,
controller tie-breaking, movement targets) takes an explicit
:class:`random.Random` so that experiments are reproducible from a single
scenario seed.  The helpers here derive independent streams from that seed in
a stable, documented way.

The two bulk helpers, :func:`draw_uniforms` and :func:`sample_indices`, give
exactly the numbers ``rng.random()`` and ``rng.sample`` give, and leave
``rng`` in the same state, but take the generator's 32-bit Mersenne Twister
outputs ("words") many at a time: ``rng.getrandbits(32 * w)`` returns the
next ``w`` words, least significant first, and the helpers derive from them
what CPython derives from one word or one pair at a time.  They accept only
an exact :class:`random.Random` (a subclass may redefine the draws they
replicate).  ``numpy.random`` is deliberately not used: it is a different
stream, and importing it costs about 11 ms and 6 MB of resident memory.
"""

from __future__ import annotations

import hashlib
import math
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


def _require_random(rng: random.Random) -> None:
    """Refuse anything but an exact :class:`random.Random`."""
    if type(rng) is not random.Random:
        raise TypeError(
            f"expected an exact random.Random, got {type(rng).__name__}: the bulk "
            "draws replicate random.Random's own methods"
        )


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit outputs of ``rng``'s generator, in order."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4"
    )


def draw_uniforms(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws of ``rng.random()``, in order, as a ``float64`` array.

    Equal to ``[rng.random() for _ in range(count)]`` bit for bit, and
    ``rng`` ends in the same state.  ``random()`` forms each double from two
    words ``(a, b)`` as ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``; every
    step is exact in ``float64``, so the vectorized form rounds nowhere.
    """
    _require_random(rng)
    pairs = _words(rng, 2 * count).reshape(count, 2)
    return ((pairs[:, 0] >> 5) * 67108864.0 + (pairs[:, 1] >> 6)) * (
        1.0 / 9007199254740992.0
    )


def sample_indices(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``: equal in value and in order, and ``rng`` ends in the same state.

    CPython draws each pick with ``_randbelow(m)``: the top
    ``m.bit_length()`` bits of one word, redrawn while they are ``>= m``.
    It keeps a pool of the unpicked values when a ``k``-set would be larger
    (``n <= 21 + 4 ** ceil(log(3k, 4))`` for ``k > 5``, ``n <= 21``
    otherwise) and a set of the picks otherwise; so does this.  Each batch
    takes only as many words as picks remain, and every pick consumes at
    least one word, so no word is drawn that ``rng.sample`` would not draw.
    ``n`` must be below ``2**32`` (one word per ``_randbelow`` attempt).
    """
    _require_random(rng)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    if n >= 2**32:
        raise ValueError(f"population must be smaller than 2**32, got {n}")
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        return _pool_sample(rng, n, k)
    return _set_sample(rng, n, k)


def _pool_sample(rng: random.Random, n: int, k: int) -> List[int]:
    """The pool branch: swap each pick behind the unpicked ``pool[:m]``."""
    pool = list(range(n))
    m, stop = n, n - k
    while m > stop:
        bits = m.bit_length()
        # No more words than picks left at this bit length, so every word of
        # the batch is shifted the way its ``_randbelow`` call shifts it.
        batch = min(m - stop, m - (1 << (bits - 1)) + 1)
        for r in (_words(rng, batch) >> (32 - bits)).tolist():
            if r < m:
                m -= 1
                pool[r], pool[m] = pool[m], pool[r]
    # The picks sit behind the unpicked values, the first pick last.
    return pool[stop:][::-1]


def _set_sample(rng: random.Random, n: int, k: int) -> List[int]:
    """The set branch: redraw a value already picked."""
    shift = 32 - n.bit_length()
    selected = set()
    result: List[int] = []
    while len(result) < k:
        for r in (_words(rng, k - len(result)) >> shift).tolist():
            if r < n and r not in selected:
                selected.add(r)
                result.append(r)
    return result


def spawn_seeds(seed: int, count: int, label: str = "trial") -> List[int]:
    """Derive ``count`` independent trial seeds from a master seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = derive_rng(seed, f"spawn:{label}")
    return [rng.randrange(2**63) for _ in range(count)]
