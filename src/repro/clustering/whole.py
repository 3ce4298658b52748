"""Exact vectorized test: does a fixed object set form one cluster per tick?

HWMT, extension and validation keep asking the same question of a
candidate object set ``O``: does Definition-2 DBSCAN over the points of
``O`` at tick ``t`` return exactly ``{O}``?  The answer is almost always
"yes, unchanged", so asking it one :func:`cluster_snapshot` call per tick
spends the time on per-call dispatch, not on clustering.
:func:`one_cluster_ticks` answers it for many ticks in one numpy pass.

With adjacency ``dx*dx + dy*dy <= eps*eps`` (the expression the CSR and
tiny clustering paths use) and self-inclusive degrees, ``cluster_snapshot``
returns exactly the whole set iff

* there are at least ``m`` points,
* every non-core point is adjacent to a core point, and
* the core points are connected,

because a cluster that holds every point holds every core, and a core
belongs to one cluster only.  Both conditions together say that every
point is reachable from the first core by steps that leave core points
only, which a boolean transitive closure (repeated squaring of that step
matrix) answers.
"""

from __future__ import annotations

import numpy as np

from .dbscan import cluster_snapshot

#: Most (tick, point, point) cells one chunk materialises.  Bounds the
#: kernel's temporaries (a few arrays of at most 8 bytes per cell) and the
#: largest set it vectorizes: above ``sqrt(CELL_BUDGET)`` (90) points one
#: ``cluster_snapshot`` per tick is used instead.  Measured on a 2-vCPU
#: guest, one tick of the closure cost 0.28 ms against 0.36 ms per tick
#: at 100 points, and 11.8 ms against 0.48 ms at 128.
CELL_BUDGET = 1 << 13


def one_cluster_ticks(
    xs: np.ndarray, ys: np.ndarray, eps: float, m: int
) -> np.ndarray:
    """Per tick, whether DBSCAN over the points is one cluster of them all.

    ``xs`` and ``ys`` are ``(T, n)`` arrays: the positions of the same
    ``n`` objects at ``T`` ticks.  Entry ``t`` of the result equals
    ``cluster_snapshot(range(n), xs[t], ys[t], eps, m) ==
    [frozenset(range(n))]``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be (ticks, points) arrays of one shape")
    ticks, n = xs.shape
    if n == 0 or n < m:
        return np.zeros(ticks, dtype=bool)
    if n * n > CELL_BUDGET:
        everyone = [frozenset(range(n))]
        return np.array(
            [
                cluster_snapshot(range(n), xs[t], ys[t], eps, m) == everyone
                for t in range(ticks)
            ],
            dtype=bool,
        )
    step = CELL_BUDGET // (n * n)
    if ticks <= step:
        return _one_cluster_chunk(xs, ys, eps, m)
    return np.concatenate(
        [
            _one_cluster_chunk(xs[lo : lo + step], ys[lo : lo + step], eps, m)
            for lo in range(0, ticks, step)
        ]
    )


def _one_cluster_chunk(
    xs: np.ndarray, ys: np.ndarray, eps: float, m: int
) -> np.ndarray:
    ticks, n = xs.shape
    dx = xs[:, :, None] - xs[:, None, :]
    dy = ys[:, :, None] - ys[:, None, :]
    dx *= dx
    dy *= dy
    dx += dy
    adjacent = dx <= eps * eps
    if adjacent.all():  # every pair within eps: all core (n >= m), one cluster
        return np.ones(ticks, dtype=bool)
    core = adjacent.sum(axis=2) >= m
    # Steps leave core points only: point j is reachable from core i when a
    # chain of adjacent cores leads from i to a core adjacent to j.
    steps = (adjacent & core[:, :, None]).astype(np.float32)
    reach = 1  # path length the closure covers so far
    while reach < n - 1:
        steps = np.minimum(steps @ steps, 1.0)
        reach *= 2
    # The first core reaches every point iff the cores are connected and
    # every other point is adjacent to one of them.  A tick without cores
    # reads row 0, which is empty.
    first = core.argmax(axis=1)
    return steps[np.arange(ticks), first].min(axis=1) > 0
