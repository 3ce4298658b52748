"""Brute-force recomputation oracles for every analytic query.

Each function recomputes one :class:`~repro.analytics.engine.ConvoyAnalytics`
query from scratch over a raw record list — no summaries, no incremental
state — and returns the *same row types in the same order*.  They serve
two masters:

* the property tests (``tests/test_analytics_equivalence.py``) assert
  ``engine.query(...) == brute_query(index.records(), ...)`` across
  datasets and parameters, proving the incremental maintenance exact;
* the ``query`` workload of ``benchmarks/bench/`` gates the windowed
  and top-k answers it samples on the same equality.

Pass ``cell_size=engine.region_cell_size`` so both sides quantize
regions over the same lattice.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..service.index import BBox, IndexedConvoy
from .engine import (
    OBJECT_METRICS,
    REGION_METRICS,
    TOP_K_METRICS,
    ObjectRow,
    RegionRow,
    TopConvoyRow,
    WindowRow,
    _group_sort_key,
)
from .summary import Cell
from .windows import WindowSpec


def _cell(bbox: Optional[BBox], cell_size: Optional[float]) -> Optional[Cell]:
    if bbox is None or cell_size is None:
        return None
    return (
        math.floor((bbox[0] + bbox[2]) / 2.0 / cell_size),
        math.floor((bbox[1] + bbox[3]) / 2.0 / cell_size),
    )


def _union(extent: Optional[BBox], bbox: Optional[BBox]) -> Optional[BBox]:
    if bbox is None:
        return extent
    if extent is None:
        return bbox
    return (
        min(extent[0], bbox[0]), min(extent[1], bbox[1]),
        max(extent[2], bbox[2]), max(extent[3], bbox[3]),
    )


def _in_range(
    record: IndexedConvoy, start: Optional[int], end: Optional[int]
) -> bool:
    tick = record.convoy.end
    if start is not None and tick < start:
        return False
    if end is not None and tick > end:
        return False
    return True


def brute_windowed(
    records: Sequence[IndexedConvoy],
    width: int,
    step: Optional[int] = None,
    origin: int = 0,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> List[WindowRow]:
    spec = WindowSpec.of(width, step, origin)
    per_window: Dict[int, List[IndexedConvoy]] = defaultdict(list)
    for record in records:
        if _in_range(record, start, end):
            for j in spec.indices_of(record.convoy.end):
                per_window[j].append(record)
    rows = []
    for j in sorted(per_window):
        group = per_window[j]
        durations = [r.convoy.duration for r in group]
        sizes = [r.convoy.size for r in group]
        extent: Optional[BBox] = None
        for record in group:
            extent = _union(extent, record.bbox)
        w_start, w_end = spec.span(j)
        rows.append(WindowRow(
            start=w_start, end=w_end, count=len(group),
            total_duration=sum(durations), max_duration=max(durations),
            mean_duration=sum(durations) / len(group),
            total_size=sum(sizes), max_size=max(sizes),
            mean_size=sum(sizes) / len(group),
            extent=extent,
        ))
    return rows


def brute_top_k(
    records: Sequence[IndexedConvoy],
    cell_size: Optional[float],
    k: int,
    by: str = "duration",
    group: str = "none",
    width: Optional[int] = None,
    step: Optional[int] = None,
    origin: int = 0,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> List[TopConvoyRow]:
    assert by in TOP_K_METRICS and group in ("none", "region")
    spec = None if width is None else WindowSpec.of(width, step, origin)
    by_region = group == "region"
    groups: Dict[Tuple[Optional[int], Optional[Cell]], list] = defaultdict(list)
    for record in records:
        if not _in_range(record, start, end):
            continue
        convoy = record.convoy
        cell = _cell(record.bbox, cell_size)
        if by_region and cell is None:
            continue
        metric = convoy.duration if by == "duration" else convoy.size
        windows: Sequence[Optional[int]] = (
            (None,) if spec is None else spec.indices_of(convoy.end)
        )
        for j in windows:
            groups[(j, cell if by_region else None)].append((metric, record))
    rows: List[TopConvoyRow] = []
    for gkey in sorted(groups, key=_group_sort_key):
        j, cell = gkey
        window = None if j is None or spec is None else spec.span(j)
        ranked = sorted(
            groups[gkey], key=lambda mr: (-mr[0], mr[1].convoy_id)
        )[: int(k)]
        for rank, (metric, record) in enumerate(ranked, start=1):
            convoy = record.convoy
            rows.append(TopConvoyRow(
                rank=rank, cid=record.convoy_id, metric=metric,
                start=convoy.start, end=convoy.end, size=convoy.size,
                duration=convoy.duration, window=window, cell=cell,
            ))
    return rows


def brute_group_by_region(
    records: Sequence[IndexedConvoy],
    cell_size: Optional[float],
    by: str = "count",
    k: Optional[int] = None,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> List[RegionRow]:
    assert by in REGION_METRICS
    per_cell: Dict[Cell, List[IndexedConvoy]] = defaultdict(list)
    for record in records:
        cell = _cell(record.bbox, cell_size)
        if cell is not None and _in_range(record, start, end):
            per_cell[cell].append(record)
    aggregates = {}
    for cell, group in per_cell.items():
        durations = [r.convoy.duration for r in group]
        sizes = [r.convoy.size for r in group]
        extent: Optional[BBox] = None
        for record in group:
            extent = _union(extent, record.bbox)
        aggregates[cell] = {
            "count": len(group),
            "total_duration": sum(durations), "max_duration": max(durations),
            "total_size": sum(sizes), "max_size": max(sizes),
            "extent": extent,
        }
    ranked = sorted(
        aggregates.items(), key=lambda item: (-item[1][by], item[0])
    )
    if k is not None:
        ranked = ranked[: int(k)]
    return [
        RegionRow(rank=rank, cell=cell, **agg)
        for rank, (cell, agg) in enumerate(ranked, start=1)
    ]


def brute_group_by_object(
    records: Sequence[IndexedConvoy],
    by: str = "total_duration",
    k: Optional[int] = None,
) -> List[ObjectRow]:
    assert by in OBJECT_METRICS
    per_object: Dict[int, List[int]] = defaultdict(list)
    for record in records:
        for oid in record.convoy.objects:
            per_object[oid].append(record.convoy.duration)
    aggregates = {
        oid: {
            "convoys": len(durations),
            "total_duration": sum(durations),
            "max_duration": max(durations),
        }
        for oid, durations in per_object.items()
    }
    ranked = sorted(
        aggregates.items(), key=lambda item: (-item[1][by], item[0])
    )
    if k is not None:
        ranked = ranked[: int(k)]
    return [
        ObjectRow(rank=rank, oid=oid, **agg)
        for rank, (oid, agg) in enumerate(ranked, start=1)
    ]


def brute_co_travel_weights(
    records: Sequence[IndexedConvoy],
) -> Dict[Tuple[int, int], int]:
    """Pair weights ``{(a, b): ticks}`` with ``a < b``, from scratch."""
    weights: Dict[Tuple[int, int], int] = defaultdict(int)
    for record in records:
        for a, b in combinations(sorted(record.convoy.objects), 2):
            weights[(a, b)] += record.convoy.duration
    return dict(weights)


def brute_co_travel_pairs(
    records: Sequence[IndexedConvoy], k: int
) -> List[Tuple[int, int, int]]:
    weights = brute_co_travel_weights(records)
    edges = [(a, b, w) for (a, b), w in weights.items()]
    edges.sort(key=lambda edge: (-edge[2], edge[0], edge[1]))
    return edges[: int(k)]


def brute_co_travel_neighbors(
    records: Sequence[IndexedConvoy], oid: int, k: Optional[int] = None
) -> List[Tuple[int, int]]:
    weights = brute_co_travel_weights(records)
    items = []
    for (a, b), w in weights.items():
        if a == oid:
            items.append((b, w))
        elif b == oid:
            items.append((a, w))
    items.sort(key=lambda item: (-item[1], item[0]))
    return items if k is None else items[: int(k)]


def brute_co_travel_components(
    records: Sequence[IndexedConvoy], min_weight: int = 1
) -> List[List[int]]:
    weights = brute_co_travel_weights(records)
    adjacency: Dict[int, List[int]] = defaultdict(list)
    nodes = set()
    for (a, b), w in weights.items():
        nodes.update((a, b))
        if w >= min_weight:
            adjacency[a].append(b)
            adjacency[b].append(a)
    components = []
    seen = set()
    for node in sorted(nodes):
        if node in seen:
            continue
        component = []
        stack = [node]
        seen.add(node)
        while stack:
            current = stack.pop()
            component.append(current)
            for other in adjacency[current]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        components.append(sorted(component))
    return sorted(components, key=lambda c: (-len(c), c))
