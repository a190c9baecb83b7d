"""Deployment generators.

The paper's experiments deploy a large number of sensors uniformly at random
over the surveillance area (Section 5: 5000 sensors over a 16x16 grid of
4.4721 m cells).  Besides the uniform deployment this module offers a few
other generators that are useful for unit tests, examples, and the extension
baselines: exact per-cell deployment, head-only deployment, and clustered
(hot-spot) deployment.

Every generator returns a :class:`~repro.network.node_arrays.NodeArrays`
store with consecutive ids from ``start_id``, ready for
:class:`~repro.network.state.WsnState`.  The two hot generators
(:func:`deploy_uniform`, :func:`deploy_per_cell`) are batched: the RNG
draws happen in one :func:`~repro.sim.rng.draw_uniforms` call (in exactly
the historical per-node order, so seeds reproduce bit-for-bit) and the
affine transform to world coordinates is a vectorized numpy expression.
The three small generators draw point by point.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.grid.geometry import Point
from repro.grid.virtual_grid import GridCoord, VirtualGrid, random_point_in_box
from repro.network.node_arrays import NodeArrays
from repro.sim.rng import draw_uniforms


def _consecutive_ids(start_id: int, count: int) -> np.ndarray:
    """``count`` node ids counting up from ``start_id``."""
    return np.arange(start_id, start_id + count, dtype=np.int64)


def _from_points(points: List[Point], start_id: int) -> NodeArrays:
    """A fresh population at ``points``, with consecutive ids from ``start_id``."""
    return NodeArrays.from_positions(
        _consecutive_ids(start_id, len(points)),
        [point.x for point in points],
        [point.y for point in points],
    )


def _draw_unit_pairs(count: int, rng: random.Random) -> np.ndarray:
    """``count`` (x, y) unit draws, in the historical per-node draw order."""
    return draw_uniforms(rng, 2 * count).reshape(-1, 2)


def deploy_uniform(
    grid: VirtualGrid,
    count: int,
    rng: random.Random,
    start_id: int = 0,
    as_arrays: bool = True,
) -> NodeArrays:
    """Deploy ``count`` nodes uniformly at random over the surveillance area.

    This is the workload of Section 5 of the paper.  The result is always a
    :class:`NodeArrays` store; ``as_arrays`` accepts only ``True``, for
    callers that still pass it.
    """
    if not as_arrays:
        raise ValueError(
            "deploy_uniform always returns a NodeArrays store; as_arrays=False "
            "is not supported"
        )
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    bounds = grid.bounds
    draws = _draw_unit_pairs(count, rng)
    xs = bounds.min_x + draws[:, 0] * bounds.width
    ys = bounds.min_y + draws[:, 1] * bounds.height
    return NodeArrays.from_positions(_consecutive_ids(start_id, count), xs, ys)


def deploy_per_cell(
    grid: VirtualGrid,
    nodes_per_cell: int,
    rng: random.Random,
    start_id: int = 0,
) -> NodeArrays:
    """Deploy exactly ``nodes_per_cell`` nodes uniformly inside every cell.

    Useful for tests that need a deterministic occupancy pattern, and for the
    comparison with the grid-balancing baselines which assume a minimum
    density per cell.
    """
    if nodes_per_cell < 0:
        raise ValueError(f"nodes_per_cell must be non-negative, got {nodes_per_cell}")
    count = grid.cell_count * nodes_per_cell
    draws = _draw_unit_pairs(count, rng)
    # Per-node cell corners, in the same row-major cell enumeration order as
    # the historical per-cell loop.  The min/width expressions reproduce
    # ``grid.cell_bounds(coord)`` exactly (min + size, then max - min), so the
    # resulting float64 coordinates are bit-identical to the per-cell loop.
    coords = grid.coord_list()
    cell_x = np.repeat(
        np.fromiter((c.x for c in coords), dtype=np.float64, count=len(coords)),
        nodes_per_cell,
    )
    cell_y = np.repeat(
        np.fromiter((c.y for c in coords), dtype=np.float64, count=len(coords)),
        nodes_per_cell,
    )
    size = grid.cell_size
    min_x = grid.origin.x + cell_x * size
    min_y = grid.origin.y + cell_y * size
    width = (min_x + size) - min_x
    height = (min_y + size) - min_y
    xs = min_x + draws[:, 0] * width
    ys = min_y + draws[:, 1] * height
    return NodeArrays.from_positions(_consecutive_ids(start_id, count), xs, ys)


def deploy_grid_heads(
    grid: VirtualGrid,
    rng: Optional[random.Random] = None,
    start_id: int = 0,
    jitter: bool = False,
) -> NodeArrays:
    """Deploy exactly one node per cell, at the centre (or jittered around it).

    Produces a fully covered network with zero spares — the minimal
    configuration in which every cell has a head.
    """
    points: List[Point] = []
    for coord in grid.all_coords():
        position = grid.cell_center(coord)
        if jitter:
            if rng is None:
                raise ValueError("jitter=True requires an rng")
            position = random_point_in_box(grid.central_area(coord), rng)
        points.append(position)
    return _from_points(points, start_id)


def deploy_per_cell_counts(
    grid: VirtualGrid,
    counts: Dict[GridCoord, int],
    rng: random.Random,
    start_id: int = 0,
) -> NodeArrays:
    """Deploy an explicit number of nodes in each listed cell.

    Cells not present in ``counts`` receive no node, which makes it easy to
    construct scenarios with a prescribed pattern of holes and spares.
    """
    points: List[Point] = []
    for coord, count in sorted(counts.items(), key=lambda item: item[0].as_tuple()):
        grid.validate_coord(coord)
        if count < 0:
            raise ValueError(f"count for cell {coord.as_tuple()} must be non-negative")
        cell_bounds = grid.cell_bounds(coord)
        points.extend(random_point_in_box(cell_bounds, rng) for _ in range(count))
    return _from_points(points, start_id)


def deploy_clustered(
    grid: VirtualGrid,
    count: int,
    cluster_centers: Sequence[Point],
    spread: float,
    rng: random.Random,
    start_id: int = 0,
) -> NodeArrays:
    """Deploy nodes around hot-spot cluster centres (Gaussian spread).

    Models the non-uniform densities produced by air-dropped deployments or
    by attacks that herd nodes together; positions are clamped to the
    surveillance area.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not cluster_centers:
        raise ValueError("deploy_clustered requires at least one cluster centre")
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    bounds = grid.bounds
    points: List[Point] = []
    for _ in range(count):
        center = cluster_centers[rng.randrange(len(cluster_centers))]
        raw = Point(rng.gauss(center.x, spread), rng.gauss(center.y, spread))
        points.append(bounds.clamp(raw))
    return _from_points(points, start_id)
