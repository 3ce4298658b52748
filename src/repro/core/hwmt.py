"""Hop-Window Mining Tree (Algorithm 2) and its ordering.

The HWMT is a binary tree over a window's interior timestamps with the
middle timestamp at the root; levels are processed root-first, which means
the *farthest-apart* timestamps are clustered first.  Objects that are only
coincidentally together at adjacent ticks are unlikely to be together at
distant ticks, so this order empties the candidate set as early as possible.
Candidates that die at the root cost exactly one tick of reads; each root
survivor then prefetches the rest of its window in one batched fetch (the
scalar oracle path keeps the original fetch-per-tick behaviour, where a
dying window never reads its remaining ticks).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..clustering import cluster_snapshot, one_cluster_ticks
from .bench_points import HopWindow
from .bitset import ObjectInterner
from .enginemode import use_scalar
from .params import ConvoyQuery
from .source import (
    Snapshot,
    TrajectorySource,
    fetch_points_for_many,
    select_sorted_rows,
)
from .stats import MiningStats
from .types import Cluster, Convoy, TimeInterval, Timestamp


def hwmt_order(left: Timestamp, right: Timestamp) -> List[Timestamp]:
    """Level-order (BFS) midpoint-first ordering of the open interval.

    ``left`` and ``right`` are *exclusive* bounds (the window's benchmark
    points, already clustered).  Each node is the floor-midpoint of its
    open sub-interval; within a level, timestamps run left to right, as in
    Figure 4 of the paper.
    """
    order: List[Timestamp] = []
    queue = deque([(left, right)])
    while queue:
        lo, hi = queue.popleft()
        if hi - lo <= 1:
            continue  # empty open interval
        mid = (lo + hi) // 2
        order.append(mid)
        queue.append((lo, mid))
        queue.append((mid, hi))
    return order


def recluster(
    source: TrajectorySource,
    t: Timestamp,
    objects: Cluster,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
    phase: str = "hwmt",
) -> List[Cluster]:
    """DBSCAN over the points of ``objects`` at tick ``t`` (the paper's
    ``reCluster``): validates togetherness of a candidate at one timestamp."""
    return cluster_rows(source.points_for(t, sorted(objects)), query, stats, phase)


def cluster_rows(
    rows: Snapshot,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
    phase: str = "hwmt",
) -> List[Cluster]:
    """:func:`recluster` over rows already fetched; counts them as used."""
    oids, xs, ys = rows
    if stats is not None:
        stats.add_points(phase, len(oids))
    if len(oids) < query.m:
        return []
    return cluster_snapshot(oids, xs, ys, query.eps, query.m)


def whole_run(
    source: TrajectorySource,
    ticks: Sequence[Timestamp],
    objects: Cluster,
    query: ConvoyQuery,
) -> Tuple[int, List[Snapshot]]:
    """How many leading ``ticks`` keep ``objects`` one whole cluster.

    The rows of ``objects`` at every tick are fetched in one batched call
    and returned with the count, one snapshot per tick in the order given.
    A tick missing any member ends the run; the ticks before it are tested
    in one :func:`one_cluster_ticks` call, which answers, tick by tick,
    exactly what ``recluster(...) == [objects]`` would.  Nothing is
    counted as used: the caller counts what it examines.
    """
    rows = fetch_points_for_many(source, ticks, sorted(objects))
    snapshots = [rows[int(t)] for t in ticks]
    n = len(objects)
    present = 0
    for oids, _, _ in snapshots:
        if len(oids) != n:
            break
        present += 1
    if not present:
        return 0, snapshots
    xs = np.concatenate([snapshots[i][1] for i in range(present)])
    ys = np.concatenate([snapshots[i][2] for i in range(present)])
    whole = one_cluster_ticks(
        xs.reshape(present, n), ys.reshape(present, n), query.eps, query.m
    )
    failed = np.flatnonzero(~whole)
    return (int(failed[0]) if failed.size else present), snapshots


def mine_hop_window(
    source: TrajectorySource,
    window: HopWindow,
    candidates: Sequence[Cluster],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """1st-order spanning candidate convoys of one hop window.

    Starting from the window's candidate clusters, re-cluster at each HWMT
    timestamp; candidates shrink or split monotonically.  Survivors of all
    interior timestamps span the window and get lifespan ``[left, right]``.
    Survivor deduplication runs on interned bitset masks — one int hash per
    cluster instead of a frozenset hash.

    Point access is two-phase: the root (midpoint) timestamp is probed with
    a per-tick fetch — most candidates die there and cost nothing more —
    and each survivor then prefetches the remaining interior timestamps
    with a single batched ``points_for_many`` call (one fetch per window
    per candidate instead of one per tick).  Each survivor's whole window
    is then tested in one :func:`whole_run` call; only windows where some
    survivor splits run the per-tick frontier loop.
    """
    if not candidates:
        return []
    # In scalar oracle mode, run the original per-tick loop deduping on the
    # frozensets themselves, so the differential tests pit the original
    # path against the interner + prefetch machinery.
    if use_scalar():
        return _mine_hop_window_scalar(source, window, candidates, query, stats)
    order = hwmt_order(window.left, window.right)
    interval = TimeInterval(window.left, window.right)
    if not order:
        return [Convoy(cluster, interval) for cluster in candidates]
    interner = ObjectInterner()
    root, rest = order[0], order[1:]
    surviving: List[Cluster] = []
    seen = set()
    for candidate in candidates:
        for cluster in recluster(source, root, candidate, query, stats):
            key = interner.mask_of(cluster)
            if key not in seen:
                seen.add(key)
                surviving.append(cluster)
    if not surviving or not rest:
        return [Convoy(cluster, interval) for cluster in surviving]
    frontier: List[_Entry] = []
    for cluster in surviving:
        run, snapshots = whole_run(source, rest, cluster, query)
        frontier.append((cluster, snapshots, run))
    if all(run == len(rest) for _, _, run in frontier):
        if stats is not None:
            stats.add_points("hwmt", len(rest) * sum(map(len, surviving)))
    else:
        surviving = _split_frontier(frontier, len(rest), interner, query, stats)
    return [Convoy(cluster, interval) for cluster in surviving]


#: A frontier entry of :func:`_split_frontier`: the cluster, its window's
#: prefetched rows (one snapshot per interior tick) and how many leading
#: ticks it is known to stay whole for.
_Entry = Tuple[Cluster, List[Snapshot], int]


def _split_frontier(
    frontier: List[_Entry],
    ticks: int,
    interner: ObjectInterner,
    query: ConvoyQuery,
    stats: Optional[MiningStats],
) -> List[Cluster]:
    """The per-tick frontier loop, for a window where some survivor splits.

    Entries still inside their whole run pass a tick unchanged without
    clustering; the rest re-cluster their rows of the tick (a run that has
    ended stays ended for the entries it splits into).  Order and
    per-tick deduplication are those of a loop that re-clusters every
    entry, so the survivors and their order are too.
    """
    for i in range(ticks):
        next_frontier: List[_Entry] = []
        seen = set()
        for cluster, snapshots, run in frontier:
            if i < run:
                if stats is not None:
                    stats.add_points("hwmt", len(cluster))
                subs = [cluster]
            else:
                wanted = np.asarray(sorted(cluster), dtype=np.int64)
                rows = select_sorted_rows(*snapshots[i], wanted)
                subs = cluster_rows(rows, query, stats)
            for sub in subs:
                key = interner.mask_of(sub)
                if key not in seen:
                    seen.add(key)
                    next_frontier.append((sub, snapshots, run))
        if not next_frontier:
            return []
        frontier = next_frontier
    return [cluster for cluster, _, _ in frontier]


def _mine_hop_window_scalar(
    source: TrajectorySource,
    window: HopWindow,
    candidates: Sequence[Cluster],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """Original per-tick fetch loop (the oracle path)."""
    surviving: List[Cluster] = list(candidates)
    for t in hwmt_order(window.left, window.right):
        next_surviving: List[Cluster] = []
        seen = set()
        for candidate in surviving:
            for cluster in recluster(source, t, candidate, query, stats):
                if cluster not in seen:
                    seen.add(cluster)
                    next_surviving.append(cluster)
        if not next_surviving:
            return []
        surviving = next_surviving
    interval = TimeInterval(window.left, window.right)
    return [Convoy(cluster, interval) for cluster in surviving]
