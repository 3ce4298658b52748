"""Neighbor-search indexes used by DBSCAN.

Every index answers range queries: "which points lie within ``eps`` of point
``i``?".  Distances are Euclidean and neighborhoods *include* the query point
itself, matching the paper's ``NH(p, eps) = {q | d(p, q) <= eps}``.
"""

from __future__ import annotations

from typing import List

import numpy as np


class BruteForceIndex:
    """O(n) range queries by full distance computation.

    The reference implementation every other index is tested against; also
    the fastest choice for tiny snapshots (vectorised numpy beats index
    overhead below a few dozen points).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self._xs = np.asarray(xs, dtype=np.float64)
        self._ys = np.asarray(ys, dtype=np.float64)
        if self._xs.shape != self._ys.shape:
            raise ValueError("xs and ys must have identical shapes")

    def __len__(self) -> int:
        return len(self._xs)

    def neighbors(self, i: int, eps: float) -> np.ndarray:
        dx = self._xs - self._xs[i]
        dy = self._ys - self._ys[i]
        mask = dx * dx + dy * dy <= eps * eps
        return np.flatnonzero(mask)


def pairwise_neighbor_lists(
    xs: np.ndarray, ys: np.ndarray, eps: float
) -> List[np.ndarray]:
    """All-pairs neighborhoods in one vectorised pass (test helper)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    within = dx * dx + dy * dy <= eps * eps
    return [np.flatnonzero(row) for row in within]
