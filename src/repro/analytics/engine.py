"""``ConvoyAnalytics`` — the analytic query surface over a convoy index.

Sits beside :class:`~repro.service.query.ConvoyQueryEngine`: the point
lookups answer *which convoys*, this engine answers *how the fleet
behaves in aggregate* — windowed counts and durations, top-k rankings
per region or per window, who co-travels with whom, and how a convoy
relates to its predecessors and successors.

All aggregate queries read the incrementally maintained
:class:`~repro.analytics.summary.SummaryStore` (attached to the index as
a mutation listener and bootstrapped from a snapshot on construction);
they never materialise ``Convoy`` objects or scan the raw index.  The
exception is :meth:`lineage`, which is a graph query over a handful of
candidate convoys and reads them from the index directly.

Every analytic is timed into ``repro_analytics_query_seconds{kind}`` and
wrapped in a trace span; a scrape-time collector exports the summary row
count and the running maintenance cost.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..extensions.evolving import stage_link
from ..obs import METRICS, TRACER
from ..service.index import BBox, ConvoyIndex, _retry_copy
from .summary import Agg, Cell, SummaryStore
from .windows import WindowSpec

#: Metrics a convoy can be ranked by in ``top_k``.
TOP_K_METRICS = ("duration", "size")

#: Aggregates a region grouping can be ranked by.
REGION_METRICS = (
    "count", "total_duration", "max_duration", "total_size", "max_size",
)

#: Aggregates an object grouping can be ranked by.
OBJECT_METRICS = ("total_duration", "convoys", "max_duration")

#: Bound on the number of stage chains ``lineage`` will enumerate.
_MAX_CHAINS = 256

_ANALYTIC_SECONDS = METRICS.histogram(
    "repro_analytics_query_seconds",
    "Analytic query latency per kind.",
    ["kind"],
)
_ANALYTIC_TIMERS = {
    kind: _ANALYTIC_SECONDS.labels(kind)
    for kind in (
        "windowed", "top_k", "group_by_region", "group_by_object",
        "co_travel", "lineage",
    )
}


def _collect_analytics(engine: "ConvoyAnalytics"):
    store = engine.summary
    stats = store.stats
    return [
        ("repro_analytics_summary_rows", "gauge",
         "Materialized per-end-tick summary rows.", (),
         float(store.row_count)),
        ("repro_analytics_tracked_convoys", "gauge",
         "Convoys currently covered by the summaries.", (),
         float(store.convoy_count)),
        ("repro_analytics_cotravel_edges", "gauge",
         "Edges in the co-travel graph.", (),
         float(store.graph.edge_count)),
        ("repro_analytics_maintenance_adds_total", "counter",
         "Summary maintenance events.", (), float(stats.adds)),
        ("repro_analytics_maintenance_evictions_total", "counter",
         "Summary maintenance events.", (), float(stats.evictions)),
        ("repro_analytics_maintenance_seconds_total", "counter",
         "Time spent keeping the summaries fresh.", (), float(stats.seconds)),
    ]


# -- result rows (wire-ready via as_dict) -------------------------------------


@dataclass(frozen=True)
class WindowRow:
    """Aggregates over the convoys that closed inside one window."""

    start: int
    end: int  # inclusive last end-tick the window covers
    count: int
    total_duration: int
    max_duration: int
    mean_duration: float
    total_size: int
    max_size: int
    mean_size: float
    extent: Optional[BBox]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start, "end": self.end, "count": self.count,
            "total_duration": self.total_duration,
            "max_duration": self.max_duration,
            "mean_duration": self.mean_duration,
            "total_size": self.total_size, "max_size": self.max_size,
            "mean_size": self.mean_size,
            "extent": None if self.extent is None else list(self.extent),
        }


@dataclass(frozen=True)
class TopConvoyRow:
    """One ranked convoy inside its ``(window, cell)`` group."""

    rank: int
    cid: int
    metric: int
    start: int
    end: int
    size: int
    duration: int
    window: Optional[Tuple[int, int]]  # inclusive span, None when unwindowed
    cell: Optional[Cell]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank, "cid": self.cid, "metric": self.metric,
            "start": self.start, "end": self.end, "size": self.size,
            "duration": self.duration,
            "window": None if self.window is None else list(self.window),
            "cell": None if self.cell is None else list(self.cell),
        }


@dataclass(frozen=True)
class RegionRow:
    """Ranked aggregates of one region cell."""

    rank: int
    cell: Cell
    count: int
    total_duration: int
    max_duration: int
    total_size: int
    max_size: int
    extent: Optional[BBox]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank, "cell": list(self.cell), "count": self.count,
            "total_duration": self.total_duration,
            "max_duration": self.max_duration,
            "total_size": self.total_size, "max_size": self.max_size,
            "extent": None if self.extent is None else list(self.extent),
        }


@dataclass(frozen=True)
class ObjectRow:
    """Ranked per-object aggregates over every convoy it travelled in."""

    rank: int
    oid: int
    convoys: int
    total_duration: int
    max_duration: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank, "oid": self.oid, "convoys": self.convoys,
            "total_duration": self.total_duration,
            "max_duration": self.max_duration,
        }


@dataclass(frozen=True)
class LineageStage:
    """One convoy in a lineage answer, with its overlap to the target."""

    cid: int
    start: int
    end: int
    size: int
    shared: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cid": self.cid, "start": self.start, "end": self.end,
            "size": self.size, "shared": self.shared,
        }


@dataclass(frozen=True)
class Lineage:
    """Merge/split neighborhood of one convoy in the stage graph."""

    cid: int
    start: int
    end: int
    size: int
    min_common: int
    parents: Tuple[LineageStage, ...]
    children: Tuple[LineageStage, ...]
    chains: Tuple[Tuple[int, ...], ...]
    stages: Tuple[LineageStage, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cid": self.cid, "start": self.start, "end": self.end,
            "size": self.size, "min_common": self.min_common,
            "parents": [s.as_dict() for s in self.parents],
            "children": [s.as_dict() for s in self.children],
            "chains": [list(chain) for chain in self.chains],
            "stages": [s.as_dict() for s in self.stages],
        }


def _group_sort_key(gkey: Tuple[Optional[int], Optional[Cell]]):
    window, cell = gkey
    return (
        window is not None, window if window is not None else 0,
        cell is not None, cell if cell is not None else (0, 0),
    )


class ConvoyAnalytics:
    """Analytic queries over one :class:`ConvoyIndex`, summary-backed.

    Construction attaches a :class:`SummaryStore` to the index as a
    mutation listener, bootstraps it from a point-in-time snapshot, then
    reconciles: a record evicted *during* the bootstrap scan is dropped
    again afterwards, so the summaries equal the live maximal set even
    when a writer keeps feeding throughout.

    ``region_cell_size`` fixes the region lattice; leave it ``None`` to
    let the first bboxed convoy choose (see :class:`SummaryStore`).
    """

    def __init__(
        self,
        index: ConvoyIndex,
        region_cell_size: Optional[float] = None,
    ):
        self._index = index
        self._store = SummaryStore(region_cell_size)
        index.add_listener(self._store)
        with TRACER.span("analytics.bootstrap"):
            for record in index.records():
                self._store.on_add(record)
            for cid in list(self._store.stats_by_cid):
                if index.get(cid) is None:
                    self._store.discard(cid)
        METRICS.register_object_collector(self, _collect_analytics)

    # -- introspection -------------------------------------------------------

    @property
    def summary(self) -> SummaryStore:
        return self._store

    @property
    def region_cell_size(self) -> Optional[float]:
        return self._store.region_cell_size

    # -- windowed aggregation ------------------------------------------------

    def windowed(
        self,
        width: int,
        step: Optional[int] = None,
        origin: int = 0,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[WindowRow]:
        """Per-window aggregates over convoy end-times.

        Tumbling by default; pass ``step`` for sliding windows.
        ``start``/``end`` restrict the convoy end-ticks considered
        (inclusive).  Only non-empty windows are returned, ordered by
        window start.
        """
        spec = WindowSpec.of(width, step, origin)
        return self._timed("windowed", lambda: self._windowed(
            spec, start, end
        ))

    def _windowed(
        self, spec: WindowSpec, start: Optional[int], end: Optional[int]
    ) -> List[WindowRow]:
        merged: Dict[int, Agg] = {}
        for tick, bucket in self._bucket_range(start, end):
            for j in spec.indices_of(tick):
                agg = merged.get(j)
                if agg is None:
                    agg = merged[j] = Agg()
                agg.merge(bucket.agg)
        rows = []
        for j in sorted(merged):
            agg = merged[j]
            w_start, w_end = spec.span(j)
            rows.append(WindowRow(
                start=w_start, end=w_end, count=agg.count,
                total_duration=agg.sum_duration,
                max_duration=agg.max_duration,
                mean_duration=agg.sum_duration / agg.count,
                total_size=agg.sum_size, max_size=agg.max_size,
                mean_size=agg.sum_size / agg.count,
                extent=agg.extent,
            ))
        return rows

    # -- top-k ---------------------------------------------------------------

    def top_k(
        self,
        k: int,
        by: str = "duration",
        group: str = "none",
        width: Optional[int] = None,
        step: Optional[int] = None,
        origin: int = 0,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TopConvoyRow]:
        """The ``k`` highest-ranked convoys, optionally per window / cell.

        ``by`` picks the metric (:data:`TOP_K_METRICS`).  ``group`` is
        ``"none"`` (one global ranking) or ``"region"`` (one ranking per
        region cell; bbox-less convoys have no cell and are excluded).
        ``width`` additionally splits rankings per window.  Memory stays
        bounded at ``k`` entries per live group (min-heap selection).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if by not in TOP_K_METRICS:
            raise ValueError(f"by must be one of {list(TOP_K_METRICS)}, got {by!r}")
        if group not in ("none", "region"):
            raise ValueError(f"group must be 'none' or 'region', got {group!r}")
        spec = None if width is None else WindowSpec.of(width, step, origin)
        return self._timed("top_k", lambda: self._top_k(
            int(k), by, group, spec, start, end
        ))

    def _top_k(
        self,
        k: int,
        by: str,
        group: str,
        spec: Optional[WindowSpec],
        start: Optional[int],
        end: Optional[int],
    ) -> List[TopConvoyRow]:
        by_region = group == "region"
        metric_of = (
            (lambda s: s.duration) if by == "duration" else (lambda s: s.size)
        )
        heaps: Dict[Tuple[Optional[int], Optional[Cell]], list] = {}
        for tick, bucket in self._bucket_range(start, end):
            windows: Sequence[Optional[int]] = (
                (None,) if spec is None else spec.indices_of(tick)
            )
            for stat in _retry_copy(lambda: list(bucket.entries.values())):
                if by_region and stat.cell is None:
                    continue
                # Key orders by metric desc then cid asc when negated,
                # so heap[0] is always the weakest entry of the group.
                key = (metric_of(stat), -stat.cid)
                for j in windows:
                    gkey = (j, stat.cell if by_region else None)
                    heap = heaps.get(gkey)
                    if heap is None:
                        heap = heaps[gkey] = []
                    if len(heap) < k:
                        heapq.heappush(heap, (key, stat))
                    elif key > heap[0][0]:
                        heapq.heapreplace(heap, (key, stat))
        rows: List[TopConvoyRow] = []
        for gkey in sorted(heaps, key=_group_sort_key):
            j, cell = gkey
            window = None if j is None or spec is None else spec.span(j)
            ranked = sorted(heaps[gkey], key=lambda kv: kv[0], reverse=True)
            for rank, (key, stat) in enumerate(ranked, start=1):
                rows.append(TopConvoyRow(
                    rank=rank, cid=stat.cid, metric=key[0],
                    start=stat.start, end=stat.end, size=stat.size,
                    duration=stat.duration, window=window, cell=cell,
                ))
        return rows

    # -- group-by ------------------------------------------------------------

    def group_by_region(
        self,
        by: str = "count",
        k: Optional[int] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[RegionRow]:
        """Per-region-cell aggregates, ranked by ``by`` descending.

        Reads the per-cell sub-aggregates of the summary buckets;
        convoys without a bbox belong to no cell and are not counted.
        """
        if by not in REGION_METRICS:
            raise ValueError(
                f"by must be one of {list(REGION_METRICS)}, got {by!r}"
            )
        return self._timed("group_by_region", lambda: self._group_by_region(
            by, k, start, end
        ))

    def _group_by_region(
        self, by: str, k: Optional[int], start: Optional[int], end: Optional[int]
    ) -> List[RegionRow]:
        merged: Dict[Cell, Agg] = {}
        for _tick, bucket in self._bucket_range(start, end):
            for cell, cell_agg in _retry_copy(
                lambda: list(bucket.by_cell.items())
            ):
                agg = merged.get(cell)
                if agg is None:
                    agg = merged[cell] = Agg()
                agg.merge(cell_agg)
        metric = _REGION_METRIC_OF[by]
        ranked = sorted(
            merged.items(), key=lambda item: (-metric(item[1]), item[0])
        )
        if k is not None:
            ranked = ranked[: int(k)]
        return [
            RegionRow(
                rank=rank, cell=cell, count=agg.count,
                total_duration=agg.sum_duration,
                max_duration=agg.max_duration,
                total_size=agg.sum_size, max_size=agg.max_size,
                extent=agg.extent,
            )
            for rank, (cell, agg) in enumerate(ranked, start=1)
        ]

    def group_by_object(
        self, by: str = "total_duration", k: Optional[int] = None
    ) -> List[ObjectRow]:
        """Per-object aggregates over the full history, ranked descending."""
        if by not in OBJECT_METRICS:
            raise ValueError(
                f"by must be one of {list(OBJECT_METRICS)}, got {by!r}"
            )
        return self._timed("group_by_object", lambda: self._group_by_object(
            by, k
        ))

    def _group_by_object(self, by: str, k: Optional[int]) -> List[ObjectRow]:
        metric = _OBJECT_METRIC_OF[by]
        items = _retry_copy(lambda: list(self._store.objects.items()))
        ranked = sorted(items, key=lambda item: (-metric(item[1]), item[0]))
        if k is not None:
            ranked = ranked[: int(k)]
        return [
            ObjectRow(
                rank=rank, oid=oid, convoys=agg.convoys,
                total_duration=agg.total_duration,
                max_duration=agg.max_duration,
            )
            for rank, (oid, agg) in enumerate(ranked, start=1)
        ]

    # -- co-travel graph -----------------------------------------------------

    def co_travel_neighbors(
        self, oid: int, k: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Objects that shared convoys with ``oid``: ``(other, ticks)``."""
        return self._timed(
            "co_travel", lambda: self._store.graph.neighbors(int(oid), k)
        )

    def co_travel_pairs(self, k: int = 10) -> List[Tuple[int, int, int]]:
        """The ``k`` heaviest co-travel pairs ``(a, b, ticks)``."""
        return self._timed("co_travel", lambda: self._store.graph.top_pairs(k))

    def co_travel_components(self, min_weight: int = 1) -> List[List[int]]:
        """Travel communities: components over edges >= ``min_weight``."""
        return self._timed(
            "co_travel", lambda: self._store.graph.components(int(min_weight))
        )

    # -- lineage -------------------------------------------------------------

    def lineage(
        self, cid: int, min_common: int = 1, depth: int = 8
    ) -> Lineage:
        """Merge/split lineage of one stored convoy.

        Uses the evolving-convoy stage relation
        (:func:`~repro.extensions.evolving.stage_link`): convoy ``v``
        follows ``u`` when it starts during (or right after) ``u``,
        outlives it, and shares at least ``min_common`` members.
        Candidate stages are narrowed through the index's inverted
        object map, so only the convoy's actual neighborhood is read.
        Returns direct parents/children plus the maximal stage chains
        through the convoy (up to ``depth`` hops each way, capped at
        %d chains).
        """ % _MAX_CHAINS
        return self._timed("lineage", lambda: self._lineage(
            int(cid), int(min_common), int(depth)
        ))

    def _lineage(self, cid: int, min_common: int, depth: int) -> Lineage:
        index = self._index
        target = index.get(cid)
        if target is None:
            raise KeyError(f"no stored convoy with id {cid}")
        if min_common < 1:
            raise ValueError(f"min_common must be >= 1, got {min_common}")

        def related(node_cid: int) -> Set[int]:
            record = index.get(node_cid)
            if record is None:
                return set()
            ids: Set[int] = set()
            for oid in record.convoy.objects:
                ids.update(index.ids_of_object(oid))
            ids.discard(node_cid)
            return ids

        def expand(roots: Set[int], parents_of: bool) -> Dict[int, List[int]]:
            """Edges toward predecessors (or successors) up to ``depth``."""
            edges: Dict[int, List[int]] = {}
            frontier = set(roots)
            seen = set(roots)
            for _ in range(depth):
                nxt: Set[int] = set()
                for node in frontier:
                    node_convoy = index.get(node).convoy
                    links = []
                    for other in related(node):
                        other_record = index.get(other)
                        if other_record is None:
                            continue
                        u, v = (
                            (other_record.convoy, node_convoy) if parents_of
                            else (node_convoy, other_record.convoy)
                        )
                        if stage_link(u, v, min_common):
                            links.append(other)
                            if other not in seen:
                                seen.add(other)
                                nxt.add(other)
                    edges[node] = sorted(links)
                if not nxt:
                    break
                frontier = nxt
            return edges

        up = expand({cid}, parents_of=True)
        down = expand({cid}, parents_of=False)

        def paths(edges: Dict[int, List[int]], node: int) -> List[Tuple[int, ...]]:
            """Maximal paths away from ``node`` (excluding it), DFS."""
            out: List[Tuple[int, ...]] = []
            stack: List[Tuple[int, Tuple[int, ...]]] = [(node, ())]
            while stack and len(out) < _MAX_CHAINS:
                current, path = stack.pop()
                nexts = [
                    n for n in edges.get(current, []) if n not in path
                ]
                if not nexts:
                    out.append(path)
                    continue
                for n in reversed(nexts):
                    stack.append((n, path + (n,)))
            return out

        chains: List[Tuple[int, ...]] = []
        for prefix in paths(up, cid):
            for suffix in paths(down, cid):
                chains.append(tuple(reversed(prefix)) + (cid,) + suffix)
                if len(chains) >= _MAX_CHAINS:
                    break
            if len(chains) >= _MAX_CHAINS:
                break
        chains.sort()

        def stage_of(other_cid: int) -> LineageStage:
            convoy = index.get(other_cid).convoy
            return LineageStage(
                cid=other_cid, start=convoy.start, end=convoy.end,
                size=convoy.size,
                shared=len(convoy.objects & target.convoy.objects),
            )

        stage_ids = sorted({n for chain in chains for n in chain} - {cid})
        return Lineage(
            cid=cid, start=target.convoy.start, end=target.convoy.end,
            size=target.convoy.size, min_common=min_common,
            parents=tuple(stage_of(n) for n in up.get(cid, [])),
            children=tuple(stage_of(n) for n in down.get(cid, [])),
            chains=tuple(chains),
            stages=tuple(stage_of(n) for n in stage_ids),
        )

    # -- plumbing ------------------------------------------------------------

    def _bucket_range(self, start: Optional[int], end: Optional[int]):
        items = _retry_copy(lambda: list(self._store.buckets.items()))
        # Filter before sorting: a range-restricted query over a long
        # history touches a handful of buckets, so the sort should pay
        # for those, not for every bucket ever materialized.
        if start is not None or end is not None:
            items = [
                (tick, bucket) for tick, bucket in items
                if (start is None or tick >= start)
                and (end is None or tick <= end)
            ]
        items.sort(key=lambda item: item[0])
        return items

    def _timed(self, kind: str, run):
        with TRACER.span("analytics." + kind):
            if not _ANALYTIC_SECONDS.enabled:
                return run()
            started = time.perf_counter()
            result = run()
            _ANALYTIC_TIMERS[kind].observe(time.perf_counter() - started)
            return result


_REGION_METRIC_OF = {
    "count": lambda a: a.count,
    "total_duration": lambda a: a.sum_duration,
    "max_duration": lambda a: a.max_duration,
    "total_size": lambda a: a.sum_size,
    "max_size": lambda a: a.max_size,
}

_OBJECT_METRIC_OF = {
    "total_duration": lambda a: a.total_duration,
    "convoys": lambda a: a.convoys,
    "max_duration": lambda a: a.max_duration,
}
