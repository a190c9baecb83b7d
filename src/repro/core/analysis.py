"""Analytical cost model of a single replacement (Theorem 2 and Corollary 2).

Theorem 2 of the paper gives the expected number of node movements ``M`` of a
converged replacement process when ``N`` spare nodes are uniformly
distributed over the ``L`` cells of the Hamilton path deduced from the
directed Hamilton cycle:

.. math::

    M = \\sum_{i=1}^{L} i \\cdot P(i)

where ``P(i)`` (Equation 1) is the probability that the nearest spare along
the path is exactly ``i`` hops upstream of the hole.  The equation simplifies
to ``P(i) = ((L-i+1)/L)^N - ((L-i)/L)^N``, which telescopes to the convenient
closed form ``M = sum_{j=1..L} (j/L)^N`` used by :func:`expected_movements`.

Corollary 2 states that the same expression with ``L = m*n - 2`` applies to
the dual-path construction for odd-by-odd grids.

Section 4 further estimates the *distance* of each hop as ``1.08 * r`` on
average (a move targets the central ``r/2 x r/2`` area of the destination
cell, so a hop covers between ``r/4`` and ``sqrt(58)/4 * r``), which yields
the total-moving-distance estimates of Figure 5.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.grid.virtual_grid import AVERAGE_MOVE_FACTOR, move_distance_bounds


def _validate(spares: int, path_length: int) -> None:
    if path_length < 1:
        raise ValueError(f"path_length must be >= 1, got {path_length}")
    if spares < 0:
        raise ValueError(f"spares must be >= 0, got {spares}")


def movement_distribution(spares: int, path_length: int) -> np.ndarray:
    """``P(i)`` for ``i = 1 .. L`` (Equation 1 of the paper).

    ``P(i)`` is the probability that the nearest spare node along the
    Hamilton path is exactly ``i`` hops away from the vacant cell, assuming
    the ``spares`` nodes are placed in the ``path_length`` cells uniformly and
    independently.  The returned array has ``path_length`` entries and sums to
    1 whenever ``spares >= 1``; with no spares the whole mass sits on ``i=L``
    (the cascade walks the entire path without converging).
    """
    _validate(spares, path_length)
    length = path_length
    i = np.arange(1, length + 1, dtype=float)
    upper = ((length - i + 1.0) / length) ** spares
    lower = ((length - i) / length) ** spares
    distribution = upper - lower
    # The paper's Equation (1) defines P(L) as the bare prefix product (the
    # probability that no spare sits in the first L-1 cells): with N = 0 the
    # whole mass therefore lands on i = L — the cascade walks the entire path.
    distribution[-1] = upper[-1]
    return distribution


def expected_movements(spares: int, path_length: int) -> float:
    """``M`` — expected node movements of a single replacement (Theorem 2).

    Uses the telescoped closed form ``M = sum_{j=1..L} (j/L)^N`` which is
    algebraically identical to ``sum i * P(i)`` but numerically more robust
    for large grids.
    """
    _validate(spares, path_length)
    j = np.arange(1, path_length + 1, dtype=float)
    return float(np.sum((j / path_length) ** spares))


def expected_movements_dual_path(spares: int, columns: int, rows: int) -> float:
    """Corollary 2: expected movements in an odd-by-odd grid with the dual-path cycle."""
    if columns < 3 or rows < 3 or columns % 2 == 0 or rows % 2 == 0:
        raise ValueError(
            f"dual-path analysis applies to odd-by-odd grids of at least 3x3, got {columns}x{rows}"
        )
    return expected_movements(spares, columns * rows - 2)


def expected_total_distance(
    spares: int, path_length: int, cell_size: float
) -> float:
    """Expected total moving distance of one replacement (the Figure 5 estimate).

    The paper multiplies the expected number of hops by the average per-hop
    distance ``1.08 * r``.
    """
    if cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    return AVERAGE_MOVE_FACTOR * cell_size * expected_movements(spares, path_length)


def hop_distance_statistics(cell_size: float) -> Tuple[float, float, float]:
    """(min, average, max) per-hop distance for a given cell size (Section 4)."""
    low, high = move_distance_bounds(cell_size)
    return low, AVERAGE_MOVE_FACTOR * cell_size, high


def movements_series(
    spare_values: Iterable[int], path_length: int
) -> List[Tuple[int, float]]:
    """``(N, M)`` pairs for a sweep over spare counts — the data behind Figure 3."""
    return [(n, expected_movements(n, path_length)) for n in spare_values]


def distance_series(
    spare_values: Iterable[int], path_length: int, cell_size: float
) -> List[Tuple[int, float]]:
    """``(N, distance)`` pairs for a sweep over spare counts — the data behind Figure 5."""
    return [
        (n, expected_total_distance(n, path_length, cell_size)) for n in spare_values
    ]


def expected_network_movements(
    holes: int, spares: int, path_length: int
) -> float:
    """Expected total movements to repair ``holes`` simultaneous holes.

    The paper's Figure 7(b) multiplies the single-replacement expectation by
    the number of holes; interactions between concurrent cascades are ignored
    (they are second-order for the uniform workload of Section 5).
    """
    if holes < 0:
        raise ValueError(f"holes must be >= 0, got {holes}")
    return holes * expected_movements(spares, path_length)


def expected_network_distance(
    holes: int, spares: int, path_length: int, cell_size: float
) -> float:
    """Expected total moving distance to repair ``holes`` holes (Figure 8(b))."""
    if holes < 0:
        raise ValueError(f"holes must be >= 0, got {holes}")
    return holes * expected_total_distance(spares, path_length, cell_size)


def spares_for_expected_movements(
    path_length: int, target_movements: float = 2.0
) -> int:
    """Smallest spare count whose expected movements do not exceed ``target_movements``.

    Dividing the result by the number of grid cells gives the minimum enabled
    density the paper quotes ("when the density of enabled nodes is kept above
    1.68 per grid, the number of node movements can still be controlled to 2
    in the 16x16 grid system"), to be compared against the density of 4 per
    grid required by the balancing baselines.
    """
    if target_movements < 1.0:
        raise ValueError("target_movements below 1 is unattainable: every replacement moves at least once")
    low, high = 0, 1
    while expected_movements(high, path_length) > target_movements:
        high *= 2
        if high > 10**9:  # pragma: no cover - defensive guard
            raise RuntimeError("failed to bracket the spare count")
    while low < high:
        mid = (low + high) // 2
        if expected_movements(mid, path_length) <= target_movements:
            high = mid
        else:
            low = mid + 1
    return low


def minimum_density_for_expected_movements(
    columns: int, rows: int, target_movements: float = 2.0
) -> float:
    """Minimum enabled-node density (nodes per cell) for the target expected movements.

    Density is ``(cells + spares) / cells`` — one head per cell plus the
    spares required by :func:`spares_for_expected_movements`.
    """
    cells = columns * rows
    if cells < 2:
        raise ValueError("the grid must have at least 2 cells")
    path_length = cells - 1 if (cells % 2 == 0) else cells - 2
    spares = spares_for_expected_movements(path_length, target_movements)
    return (cells + spares) / cells


def convergence_probability_within(
    spares: int, path_length: int, hops: int
) -> float:
    """Probability that a replacement converges within ``hops`` movements.

    ``sum_{i<=hops} P(i)`` — useful for tail analyses and the property-based
    tests of the analytical model.
    """
    _validate(spares, path_length)
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    hops = min(hops, path_length)
    if hops == 0:
        return 0.0
    distribution = movement_distribution(spares, path_length)
    return float(np.sum(distribution[:hops]))
