"""Single-pass batch eps-neighborhood construction in CSR form.

This is the data layout the vectorized DBSCAN engine runs on: one call
produces, for *all* points at once, the concatenated eps-neighborhoods
``indices[indptr[i]:indptr[i+1]]`` (ascending, self-inclusive — matching
``NH(p, eps)`` of the paper).  Two strategies share the interface:

* **dense** — for small snapshots, one ``n x n`` squared-distance matrix;
  a single numpy pass beats any index below ~100 points.
* **grid** — points are binned into cells of side ``eps`` (keys built with
  ``np.lexsort``-equivalent stable ordering), then the 3x3 cell stencil is
  expanded for every point simultaneously: per-point candidate ranges come
  from ``np.searchsorted`` over the occupied-cell table, are materialized
  with a vectorized concatenated-``arange`` construction, and filtered by
  one batched distance computation.

Both emit identical CSR arrays; the crossover is ``DENSE_THRESHOLD``
(measured on uniform clouds; the timings sit beside the constant).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Snapshot size at or below which the dense all-pairs path wins over the
#: grid-stencil path (measured on uniform clouds: dense 114us vs grid
#: 131us at n=128, dense 502us vs grid 212us at n=192).
DENSE_THRESHOLD = 140

_EMPTY_INDPTR = np.zeros(1, dtype=np.int64)
_EMPTY_INDICES = np.empty(0, dtype=np.int64)


def build_neighbor_csr(
    xs: np.ndarray, ys: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR eps-neighborhoods of every point: ``(indptr, indices)``.

    ``indices[indptr[i]:indptr[i+1]]`` lists, in ascending order, all ``j``
    with ``d(p_i, p_j) <= eps`` — including ``i`` itself.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have identical shapes")
    n = len(xs)
    if n == 0:
        return _EMPTY_INDPTR, _EMPTY_INDICES
    if n <= DENSE_THRESHOLD:
        return _dense_csr(xs, ys, eps)
    return _grid_csr(xs, ys, eps)


def _dense_csr(
    xs: np.ndarray, ys: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    adjacent = dx * dx + dy * dy <= eps * eps
    rows, cols = np.nonzero(adjacent)
    indptr = np.zeros(len(xs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(xs)), out=indptr[1:])
    return indptr, cols.astype(np.int64, copy=False)


def _grid_csr(
    xs: np.ndarray, ys: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    n = len(xs)
    # Cell coordinates, shifted so the 3x3 stencil never goes negative.
    cx = np.floor(xs / eps).astype(np.int64)
    cy = np.floor(ys / eps).astype(np.int64)
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    width = int(cy.max()) + 2
    if int(cx.max()) + 2 > (2**62) // width:
        # Packed keys would overflow int64 (astronomically fine grids);
        # the dense path is slow but always correct.
        return _dense_csr(xs, ys, eps)

    keys = cx * width + cy
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    cell_keys, cell_starts = np.unique(sorted_keys, return_index=True)
    cell_ends = np.append(cell_starts[1:], n).astype(np.int64)
    cell_starts = cell_starts.astype(np.int64)

    # Expand the 3x3 stencil for all points at once: locate each of the
    # nine neighbor cells of every point in the occupied-cell table.
    stencil = np.array(
        [dx * width + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
        dtype=np.int64,
    )
    neighbor_keys = keys[:, None] + stencil[None, :]
    pos = np.searchsorted(cell_keys, neighbor_keys)
    pos_clipped = np.minimum(pos, len(cell_keys) - 1)
    occupied = cell_keys[pos_clipped] == neighbor_keys
    starts = np.where(occupied, cell_starts[pos_clipped], 0)
    lengths = np.where(occupied, cell_ends[pos_clipped] - starts, 0)

    # Candidate lists, materialized as one concatenated arange: for every
    # (point, stencil cell) range [start, start+length) emit its positions
    # in the cell-sorted order, then map back through ``order``.
    flat_starts = starts.ravel()
    flat_lengths = lengths.ravel()
    nonempty = flat_lengths > 0
    range_starts = flat_starts[nonempty]
    range_lengths = flat_lengths[nonempty]
    total = int(range_lengths.sum())
    if total == 0:  # pragma: no cover - every point sees its own cell
        return np.zeros(n + 1, dtype=np.int64), _EMPTY_INDICES
    steps = np.ones(total, dtype=np.int64)
    steps[0] = range_starts[0]
    boundaries = np.cumsum(range_lengths)[:-1]
    steps[boundaries] = range_starts[1:] - (
        range_starts[:-1] + range_lengths[:-1] - 1
    )
    candidate_pos = np.cumsum(steps)
    candidates = order[candidate_pos]

    # One batched distance pass over every (query, candidate) pair.
    queries = np.repeat(np.arange(n, dtype=np.int64), lengths.sum(axis=1))
    ddx = xs[queries] - xs[candidates]
    ddy = ys[queries] - ys[candidates]
    within = ddx * ddx + ddy * ddy <= eps * eps
    rows = queries[within]
    cols = candidates[within]
    # CSR with ascending column order inside each row.
    csr_order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[csr_order]


def csr_degrees(indptr: np.ndarray) -> np.ndarray:
    """Neighborhood sizes ``|NH(p_i, eps)|`` from a CSR index pointer."""
    return np.diff(indptr)
