"""Extending maximal spanning convoys to their true lifespans (§4.5).

Spanning convoys have benchmark-aligned lifespans; their true starts and
ends lie inside the neighbouring hop windows (Lemmas 7 and 8).  Extension
re-clusters tick by tick (a lone frontier convoy tests ``hop`` ticks per
call): first to the right (Algorithm 3), then the right-closed results to
the left.  During right extension a convoy that fails the minimum length
is *kept* — it may still reach length ``k`` by growing left; the ``k``
filter is applied only after left extension.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .enginemode import use_scalar
from .hwmt import cluster_rows, recluster, whole_run
from .params import ConvoyQuery
from .source import TrajectorySource
from .stats import MiningStats
from .types import (
    Cluster,
    Convoy,
    TimeInterval,
    Timestamp,
    cached_mask,
    update_maximal,
)


def extend_right(
    source: TrajectorySource,
    convoys: Sequence[Convoy],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """Extend each convoy forward until re-clustering fails (Algorithm 3)."""
    results: List[Convoy] = []
    for convoy in convoys:
        ticks = range(convoy.end + 1, source.end_time + 1)
        _extend(
            source, convoy, ticks, query, results, stats, "extend_right",
            forward=True,
        )
    return results


def extend_left(
    source: TrajectorySource,
    convoys: Sequence[Convoy],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """Extend each right-closed convoy backward, then apply the k filter."""
    results: List[Convoy] = []
    for convoy in convoys:
        ticks = range(convoy.start - 1, source.start_time - 1, -1)
        _extend(
            source, convoy, ticks, query, results, stats, "extend_left",
            forward=False,
        )
    return [c for c in results if c.duration >= query.k]


def _extend(
    source: TrajectorySource,
    convoy: Convoy,
    ticks: range,
    query: ConvoyQuery,
    results: List[Convoy],
    stats: Optional[MiningStats],
    phase: str,
    *,
    forward: bool,
) -> None:
    """Step one convoy's frontier through ``ticks``, closing into ``results``.

    A single-convoy frontier fetches the next ``query.hop`` ticks in one
    batched call and fast-forwards over the leading ticks that keep it
    whole (:func:`whole_run`); only the first tick that does not, clustered
    from the rows already fetched, goes through :func:`_advance`.  Rows
    past that tick are dropped unread and uncounted.  Multi-convoy
    frontiers, and every frontier on the scalar oracle path, advance one
    re-clustered tick at a time.
    """
    frontier = [convoy]
    i = 0
    while frontier and i < len(ticks):
        if len(frontier) > 1 or use_scalar():
            t = ticks[i]
            frontier = _advance(
                ((c, recluster(source, t, c.objects, query, stats, phase))
                 for c in frontier),
                t, results, forward=forward,
            )
            i += 1
            continue
        (current,) = frontier
        ahead = ticks[i : i + query.hop]
        run, snapshots = whole_run(source, ahead, current.objects, query)
        if run:
            if stats is not None:
                stats.add_points(phase, run * current.size)
            reached = ahead[run - 1]
            interval = (
                TimeInterval(current.start, reached)
                if forward
                else TimeInterval(reached, current.end)
            )
            current = Convoy(current.objects, interval)
            frontier = [current]
            i += run
        if run < len(ahead):
            clusters = cluster_rows(snapshots[run], query, stats, phase)
            frontier = _advance(
                [(current, clusters)], ahead[run], results, forward=forward
            )
            i += 1
    for survivor in frontier:
        update_maximal(results, survivor)


def _advance(
    steps: Iterable[Tuple[Convoy, List[Cluster]]],
    t: Timestamp,
    results: List[Convoy],
    *,
    forward: bool,
) -> List[Convoy]:
    """One extension step: each frontier convoy with its clusters at ``t``.

    Convoys that do not survive in their current shape are closed into
    ``results`` (Algorithm 3, lines 7-13); every resulting cluster becomes
    a frontier convoy with the extended lifespan.  Frontier deduplication
    keys on cached bitset masks (one int hash per cluster); the scalar
    oracle keeps the frozenset keys.
    """
    key_of = (lambda cluster: cluster) if use_scalar() else cached_mask
    next_frontier: Dict[Tuple[object, Timestamp], Convoy] = {}
    for convoy, clusters in steps:
        if not clusters:
            update_maximal(results, convoy)
            continue
        if forward:
            interval = TimeInterval(convoy.start, t)
            anchor = convoy.start
        else:
            interval = TimeInterval(t, convoy.end)
            anchor = convoy.end
        for cluster in clusters:
            key = (key_of(cluster), anchor)
            if key not in next_frontier:
                next_frontier[key] = Convoy(cluster, interval)
        if convoy.objects not in clusters:
            update_maximal(results, convoy)
    return list(next_frontier.values())
