"""Vectorized radio-neighbourhood construction and incremental maintenance.

Two layers live here:

* :func:`build_edges` — the batch path.  Nodes are hashed into square
  buckets of side ``R`` (two in-range nodes always land in the same or an
  adjacent bucket), every unordered bucket pair is expanded into its
  candidate node pairs **fully vectorized** (no per-node Python loop), and a
  single distance computation filters them down to real links.  Memory is
  bounded by processing candidate pairs in chunks.  The edge list is
  assembled into per-node neighbourhoods by :func:`adjacency_offsets`
  (CSR-shaped, pure array work) with :func:`adjacency_lists` as the
  dict-of-lists view on top.
* :class:`NeighborIndex` — the incremental path.  It stores the per-node
  neighbour sets (as small sorted numpy row arrays) plus the bucket
  membership, and updates only the edges incident to a touched node's 3x3
  bucket neighbourhood on ``move_node`` / ``disable_nodes`` / ``enable_node``.
  :meth:`NeighborIndex.check_consistency` is the oracle: a from-scratch
  :func:`build_edges` rebuild must agree exactly.

Both layers use the same in-range predicate as the historical per-node code
(``dx*dx + dy*dy <= R*R + 1e-9``), so results are identical to the old
``UnitDiskRadio.adjacency`` output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

#: Same slack the historical per-node implementation applied to ``R**2``.
RANGE_SLACK_SQ = 1e-9

#: Upper bound on candidate pairs materialised at once by :func:`build_edges`.
DEFAULT_CHUNK_PAIRS = 4_000_000

#: Forward bucket offsets: each unordered bucket pair is visited once — the
#: bucket itself plus four "forward" neighbours; the remaining directions are
#: covered when the neighbouring bucket takes its turn.
_FORWARD_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))


def _expand_block_pairs(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cartesian products of variable-size index blocks, concatenated.

    For each block pair ``p`` the output contains every combination of
    ``starts_a[p] + i`` (``i < counts_a[p]``) with ``starts_b[p] + j``
    (``j < counts_b[p]``), flattened over all pairs.
    """
    totals = counts_a * counts_b
    grand_total = int(totals.sum())
    if grand_total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pair_of = np.repeat(np.arange(len(totals)), totals)
    offsets = np.arange(grand_total, dtype=np.int64) - np.repeat(
        np.cumsum(totals) - totals, totals
    )
    quotient, remainder = np.divmod(offsets, counts_b[pair_of])
    left = starts_a[pair_of] + quotient
    right = starts_b[pair_of] + remainder
    return left, right


def build_edges(
    xs: np.ndarray,
    ys: np.ndarray,
    communication_range: float,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, np.ndarray]:
    """All in-range unordered index pairs over positions ``(xs, ys)``.

    Returns ``(left, right)`` arrays of indices into ``xs``/``ys`` with one
    entry per link (each unordered pair appears exactly once).  Candidate
    pairs are produced per bucket-pair block and filtered in chunks of at
    most ``chunk_pairs`` so peak memory stays bounded on huge deployments.
    """
    count = len(xs)
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    inverse = 1.0 / communication_range
    bucket_x = np.floor(xs * inverse).astype(np.int64)
    bucket_y = np.floor(ys * inverse).astype(np.int64)
    bucket_x -= bucket_x.min()
    bucket_y -= bucket_y.min()
    # Unique scalar key per bucket; width leaves room for the +1 x-offsets so
    # neighbouring keys never collide across rows.
    width = int(bucket_x.max()) + 3
    keys = bucket_y * width + bucket_x

    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    unique_keys, starts = np.unique(sorted_keys, return_index=True)
    counts = np.diff(np.append(starts, count))
    # Work in bucket-sorted coordinate space: candidate indices then gather
    # from contiguous arrays, and only the (much smaller) filtered result is
    # mapped back through ``order``.
    xs_sorted = np.ascontiguousarray(xs[order])
    ys_sorted = np.ascontiguousarray(ys[order])

    limit_sq = communication_range * communication_range + RANGE_SLACK_SQ
    left_parts: List[np.ndarray] = []
    right_parts: List[np.ndarray] = []

    for offset_x, offset_y in _FORWARD_OFFSETS:
        self_pair = offset_x == 0 and offset_y == 0
        if self_pair:
            bucket_a = np.flatnonzero(counts > 1)
            bucket_b = bucket_a
        else:
            delta = offset_y * width + offset_x
            targets = unique_keys + delta
            positions = np.searchsorted(unique_keys, targets)
            positions_clipped = np.minimum(positions, len(unique_keys) - 1)
            found = unique_keys[positions_clipped] == targets
            bucket_a = np.flatnonzero(found)
            bucket_b = positions_clipped[found]
        if len(bucket_a) == 0:
            continue
        # Chunk over bucket-pair blocks so candidate pairs stay bounded.
        block_totals = counts[bucket_a] * counts[bucket_b]
        block_cum = np.cumsum(block_totals)
        chunk_start = 0
        while chunk_start < len(bucket_a):
            consumed = block_cum[chunk_start - 1] if chunk_start else 0
            chunk_end = int(
                np.searchsorted(block_cum, consumed + chunk_pairs, side="left") + 1
            )
            chunk_end = min(chunk_end, len(bucket_a))
            a_slice = bucket_a[chunk_start:chunk_end]
            b_slice = bucket_b[chunk_start:chunk_end]
            cand_left, cand_right = _expand_block_pairs(
                starts[a_slice], counts[a_slice], starts[b_slice], counts[b_slice]
            )
            if self_pair:
                keep = cand_left < cand_right
                cand_left = cand_left[keep]
                cand_right = cand_right[keep]
            dx = xs_sorted[cand_left] - xs_sorted[cand_right]
            dy = ys_sorted[cand_left] - ys_sorted[cand_right]
            close = dx * dx + dy * dy <= limit_sq
            left_parts.append(order[cand_left[close]])
            right_parts.append(order[cand_right[close]])
            chunk_start = chunk_end

    if not left_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(left_parts), np.concatenate(right_parts)


def adjacency_offsets(
    ids: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-shaped adjacency ``(offsets, neighbour_ids)`` from an edge list.

    Entry ``i`` of ``ids`` owns ``neighbour_ids[offsets[i]:offsets[i + 1]]``
    — its neighbours' ids in ascending order.  The assembly is pure array
    work (one composite-key sort plus gathers), so this is the form to use
    when the consumer can index instead of needing Python lists; the
    dict-of-lists view of :func:`adjacency_lists` costs 3-5x more purely in
    materialising two Python ints per link.
    """
    count = len(ids)
    ids64 = np.asarray(ids, dtype=np.int64)
    sources = np.concatenate((left, right))
    targets = np.concatenate((right, left))
    if np.all(np.diff(ids64) > 0):
        # Ids already ascending: index order is id order, no rank indirection.
        secondary = targets
    else:
        # Rank of each index when ordered by id, so one composite sort key
        # yields neighbour runs already sorted by neighbour id.
        rank = np.empty(count, dtype=np.int64)
        rank[np.argsort(ids64)] = np.arange(count)
        secondary = rank[targets]
    keys = sources * count + secondary
    if count * count <= np.iinfo(np.int32).max:
        # Sorting the narrower key is measurably faster on the big tiers.
        keys = keys.astype(np.int32)
    order = np.argsort(keys)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=count), out=offsets[1:])
    return offsets, ids64[targets[order]]


def adjacency_lists(
    ids: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Dict[int, List[int]]:
    """Adjacency dict ``{id: sorted neighbour ids}`` from an edge list.

    ``left``/``right`` index into ``ids``; every id in ``ids`` gets an entry
    (possibly empty), matching the historical ``UnitDiskRadio.adjacency``
    output shape.  The array assembly is :func:`adjacency_offsets`; what
    remains here is only the conversion to Python ints and lists, kept at
    C level (one bulk ``tolist`` plus ``map``-driven slicing — measured
    against a ``np.split``/per-chunk-``tolist`` variant, which loses 2x on
    its per-chunk view and conversion overhead).
    """
    offsets, flat = adjacency_offsets(ids, left, right)
    neighbour_ids = flat.tolist()
    bounds = offsets.tolist()
    return dict(
        zip(
            np.asarray(ids, dtype=np.int64).tolist(),
            map(neighbour_ids.__getitem__, map(slice, bounds, bounds[1:])),
        )
    )


class NeighborIndex:
    """Incrementally maintained radio neighbourhoods over a ``WsnState``.

    The index holds, for every **enabled** node row, a sorted numpy array of
    neighbouring rows, plus the bucket membership used to localise updates.
    :class:`~repro.network.state.WsnState` calls :meth:`on_move` /
    :meth:`on_disable` / :meth:`on_enable` from its mutation paths, so a
    query (:meth:`neighbours_of`, :meth:`as_dict`) never triggers a rebuild;
    per-update cost is O(degree) small-array operations confined to the 3x3
    bucket neighbourhood of the touched node.
    """

    def __init__(self, state, radio) -> None:
        self._state = state
        self._radio = radio
        self._range = float(radio.communication_range)
        self._limit_sq = self._range * self._range + RANGE_SLACK_SQ
        arrays = state.arrays
        count = len(arrays)
        self._neighbours: List[Optional[np.ndarray]] = [None] * count
        self._bucket_x = np.zeros(count, dtype=np.int64)
        self._bucket_y = np.zeros(count, dtype=np.int64)
        self._buckets: Dict[Tuple[int, int], Set[int]] = {}
        self._rebuild()

    # ------------------------------------------------------------------ build
    def _bucket_key_of(self, row: int) -> Tuple[int, int]:
        positions = self._state.arrays.positions
        inverse = 1.0 / self._range
        return (
            int(np.floor(positions[row, 0] * inverse)),
            int(np.floor(positions[row, 1] * inverse)),
        )

    def _rebuild(self) -> None:
        """Populate neighbour arrays and buckets from scratch (vectorized)."""
        arrays = self._state.arrays
        mask = arrays.enabled_mask()
        rows = np.flatnonzero(mask)
        empty = np.empty(0, dtype=np.int64)
        self._neighbours = [None] * len(arrays)
        for row in rows.tolist():
            self._neighbours[row] = empty
        self._buckets = {}
        if len(rows) == 0:
            return
        xs = arrays.positions[rows, 0]
        ys = arrays.positions[rows, 1]
        inverse = 1.0 / self._range
        bucket_x = np.floor(xs * inverse).astype(np.int64)
        bucket_y = np.floor(ys * inverse).astype(np.int64)
        self._bucket_x[rows] = bucket_x
        self._bucket_y[rows] = bucket_y
        rows_list = rows.tolist()
        for index, key in enumerate(zip(bucket_x.tolist(), bucket_y.tolist())):
            self._buckets.setdefault(key, set()).add(rows_list[index])
        left_local, right_local = build_edges(xs, ys, self._range)
        left = rows[left_local]
        right = rows[right_local]
        sources = np.concatenate((left, right))
        targets = np.concatenate((right, left))
        order = np.argsort(sources * np.int64(len(arrays)) + targets)
        sorted_targets = targets[order]
        degrees = np.bincount(sources, minlength=len(arrays))
        boundaries = np.cumsum(degrees)
        cursor = 0
        for row in rows.tolist():
            end = int(boundaries[row])
            if end > cursor:
                self._neighbours[row] = sorted_targets[cursor:end]
            cursor = end

    # ---------------------------------------------------------------- queries
    @property
    def radio(self):
        """The radio model this index was built for."""
        return self._radio

    def degree(self, node_id: int) -> int:
        """Number of enabled nodes in range of ``node_id``."""
        row = self._state.arrays.row_of(node_id)
        neighbours = self._neighbours[row]
        return 0 if neighbours is None else len(neighbours)

    def neighbours_of(self, node_id: int) -> List[int]:
        """Sorted ids of the enabled nodes in range of ``node_id``."""
        arrays = self._state.arrays
        row = arrays.row_of(node_id)
        neighbours = self._neighbours[row]
        if neighbours is None or len(neighbours) == 0:
            return []
        ids = arrays.node_ids[neighbours]
        ids.sort()
        return ids.tolist()

    def edge_count(self) -> int:
        """Number of undirected links currently indexed."""
        total = sum(
            len(neighbours)
            for neighbours in self._neighbours
            if neighbours is not None
        )
        return total // 2

    def as_dict(self) -> Dict[int, List[int]]:
        """Snapshot ``{id: sorted neighbour ids}`` over the enabled nodes."""
        arrays = self._state.arrays
        node_ids = arrays.node_ids
        result: Dict[int, List[int]] = {}
        for row in np.flatnonzero(arrays.enabled_mask()).tolist():
            neighbours = self._neighbours[row]
            if neighbours is None or len(neighbours) == 0:
                result[int(node_ids[row])] = []
            else:
                ids = node_ids[neighbours]
                ids.sort()
                result[int(node_ids[row])] = ids.tolist()
        return result

    # ---------------------------------------------------------------- updates
    def _drop_edges_of(self, row: int) -> None:
        neighbours = self._neighbours[row]
        if neighbours is None:
            return
        for other in neighbours.tolist():
            arr = self._neighbours[other]
            position = int(np.searchsorted(arr, row))
            self._neighbours[other] = np.delete(arr, position)

    def _find_neighbours(self, row: int, key: Tuple[int, int]) -> np.ndarray:
        """In-range enabled rows around bucket ``key``, excluding ``row``."""
        candidates: List[int] = []
        buckets = self._buckets
        key_x, key_y = key
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                members = buckets.get((key_x + dx, key_y + dy))
                if members:
                    candidates.extend(members)
        if not candidates:
            return np.empty(0, dtype=np.int64)
        cand = np.array(candidates, dtype=np.int64)
        cand = cand[cand != row]
        if len(cand) == 0:
            return cand
        positions = self._state.arrays.positions
        dx = positions[cand, 0] - positions[row, 0]
        dy = positions[cand, 1] - positions[row, 1]
        close = cand[dx * dx + dy * dy <= self._limit_sq]
        close.sort()
        return close

    def _add_edges_of(self, row: int, neighbours: np.ndarray) -> None:
        self._neighbours[row] = neighbours
        for other in neighbours.tolist():
            arr = self._neighbours[other]
            position = int(np.searchsorted(arr, row))
            self._neighbours[other] = np.insert(arr, position, row)

    def on_move(self, row: int) -> None:
        """Re-link ``row`` after its position changed (state calls this)."""
        self._drop_edges_of(row)
        old_key = (int(self._bucket_x[row]), int(self._bucket_y[row]))
        new_key = self._bucket_key_of(row)
        if new_key != old_key:
            members = self._buckets.get(old_key)
            if members is not None:
                members.discard(row)
                if not members:
                    del self._buckets[old_key]
            self._buckets.setdefault(new_key, set()).add(row)
            self._bucket_x[row], self._bucket_y[row] = new_key
        self._add_edges_of(row, self._find_neighbours(row, new_key))

    def on_disable(self, row: int) -> None:
        """Remove ``row`` from the index after it was disabled."""
        self._drop_edges_of(row)
        self._neighbours[row] = None
        key = (int(self._bucket_x[row]), int(self._bucket_y[row]))
        members = self._buckets.get(key)
        if members is not None:
            members.discard(row)
            if not members:
                del self._buckets[key]

    def on_enable(self, row: int) -> None:
        """Insert ``row`` into the index after it was re-enabled."""
        key = self._bucket_key_of(row)
        self._buckets.setdefault(key, set()).add(row)
        self._bucket_x[row], self._bucket_y[row] = key
        self._add_edges_of(row, self._find_neighbours(row, key))

    # ----------------------------------------------------------------- oracle
    def check_consistency(self) -> None:
        """Raise :class:`AssertionError` if the index differs from a full rebuild.

        This is the incremental-adjacency oracle: neighbourhoods and bucket
        membership are recomputed from scratch from the current arrays and
        compared entry-by-entry.
        """
        arrays = self._state.arrays
        mask = arrays.enabled_mask()
        rows = np.flatnonzero(mask)
        expected: Dict[int, Set[int]] = {row: set() for row in rows.tolist()}
        if len(rows):
            left_local, right_local = build_edges(
                arrays.positions[rows, 0], arrays.positions[rows, 1], self._range
            )
            for a, b in zip(rows[left_local].tolist(), rows[right_local].tolist()):
                expected[a].add(b)
                expected[b].add(a)
        for row in range(len(arrays)):
            neighbours = self._neighbours[row]
            if row not in expected:
                assert neighbours is None, (
                    f"disabled row {row} still has indexed neighbours"
                )
                continue
            actual = set() if neighbours is None else set(neighbours.tolist())
            assert actual == expected[row], (
                f"neighbour set of row {row} is {sorted(actual)}, "
                f"rebuild says {sorted(expected[row])}"
            )
            assert neighbours is None or np.all(np.diff(neighbours) > 0), (
                f"neighbour array of row {row} is not strictly sorted"
            )
        indexed_rows = {
            row for members in self._buckets.values() for row in members
        }
        assert indexed_rows == set(expected), (
            "bucket membership disagrees with the enabled rows: "
            f"{sorted(indexed_rows)} vs {sorted(expected)}"
        )
        for key, members in self._buckets.items():
            assert members, f"bucket {key} is empty but still present"
            for row in members:
                assert self._bucket_key_of(row) == key, (
                    f"row {row} indexed under bucket {key} but its position "
                    f"hashes to {self._bucket_key_of(row)}"
                )
