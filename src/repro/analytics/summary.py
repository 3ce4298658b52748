"""Materialized convoy summaries: the rows analytics read instead of the index.

The store keeps three incrementally maintained structures, updated from
:class:`~repro.service.index.ConvoyIndex` mutation events:

* **per-end-tick buckets** — every convoy ending at tick ``t`` lands in
  bucket ``t``, which carries running aggregates (count, sum/max of
  duration and size, bbox extent union) plus per-region-cell
  sub-aggregates and the raw per-convoy stat rows.  Any tumbling or
  sliding window is a composition of whole buckets (window membership is
  a pure function of the end tick — see
  :mod:`repro.analytics.windows`), so windowed queries touch buckets,
  never ``Convoy`` objects;
* **per-object aggregates** — convoy count and total/max duration per
  member, for group-by-object ranking;
* **the co-travel graph** (:class:`~repro.analytics.cotravel.CoTravelGraph`).

``on_add``/``on_evict`` make the store an index *listener*: eviction is
not an edge case but the heart of the contract — ``update_maximal``
routinely replaces stored convoys with larger arrivals, and the
summaries must track the surviving maximal set exactly (the equivalence
tests recompute everything brute-force and assert identity).
``on_add`` is idempotent per convoy id, so a listener attached just
before a bootstrap scan can't double-count records added in between.

Region cells are an unbounded integer lattice over the bbox *center*
(``floor(c / cell_size)`` per axis) — no domain bounds needed, stable as
the fleet grows.  The cell size freezes on first use: pass one
explicitly for reproducible grouping, or let the first bboxed convoy
pick ``max(width, height, 1.0)`` of its own box.

Maintenance cost per closed convoy: O(1) bucket/object updates plus the
O(size²) co-travel pair loop; an eviction additionally recomputes its
bucket's aggregates (one scan of that bucket's rows).  The running cost
is exported by the engine's metrics collector.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..service.index import BBox, IndexedConvoy
from .cotravel import CoTravelGraph

Cell = Tuple[int, int]


class ConvoyStat(NamedTuple):
    """The summary row of one stored convoy (no ``Convoy`` reference)."""

    cid: int
    start: int
    end: int
    size: int
    duration: int
    cell: Optional[Cell]
    bbox: Optional[BBox]


def _union(extent: Optional[BBox], bbox: Optional[BBox]) -> Optional[BBox]:
    if bbox is None:
        return extent
    if extent is None:
        return bbox
    return (
        min(extent[0], bbox[0]), min(extent[1], bbox[1]),
        max(extent[2], bbox[2]), max(extent[3], bbox[3]),
    )


class Agg:
    """Running count/sum/max aggregates over a set of stat rows."""

    __slots__ = (
        "count", "sum_duration", "max_duration", "sum_size", "max_size",
        "extent",
    )

    def __init__(self) -> None:
        self.count = 0
        self.sum_duration = 0
        self.max_duration = 0
        self.sum_size = 0
        self.max_size = 0
        self.extent: Optional[BBox] = None

    def add(self, stat: ConvoyStat) -> None:
        self.count += 1
        self.sum_duration += stat.duration
        self.sum_size += stat.size
        if stat.duration > self.max_duration:
            self.max_duration = stat.duration
        if stat.size > self.max_size:
            self.max_size = stat.size
        self.extent = _union(self.extent, stat.bbox)

    def merge(self, other: "Agg") -> None:
        self.count += other.count
        self.sum_duration += other.sum_duration
        self.sum_size += other.sum_size
        if other.max_duration > self.max_duration:
            self.max_duration = other.max_duration
        if other.max_size > self.max_size:
            self.max_size = other.max_size
        self.extent = _union(self.extent, other.extent)


class _Bucket:
    """Summary row for one end tick: aggregates + per-cell sub-aggregates."""

    __slots__ = ("entries", "agg", "by_cell")

    def __init__(self) -> None:
        self.entries: Dict[int, ConvoyStat] = {}
        self.agg = Agg()
        self.by_cell: Dict[Cell, Agg] = {}

    def add(self, stat: ConvoyStat) -> None:
        self.entries[stat.cid] = stat
        self.agg.add(stat)
        if stat.cell is not None:
            cell_agg = self.by_cell.get(stat.cell)
            if cell_agg is None:
                cell_agg = self.by_cell[stat.cell] = Agg()
            cell_agg.add(stat)

    def remove(self, cid: int) -> None:
        # Max/extent aggregates don't subtract; evictions are rare next
        # to adds, so one rebuild scan of this bucket's rows is cheap.
        del self.entries[cid]
        self.agg = Agg()
        self.by_cell = {}
        for stat in self.entries.values():
            self.agg.add(stat)
            if stat.cell is not None:
                cell_agg = self.by_cell.get(stat.cell)
                if cell_agg is None:
                    cell_agg = self.by_cell[stat.cell] = Agg()
                cell_agg.add(stat)


class _ObjectAgg:
    __slots__ = ("convoys", "total_duration", "max_duration")

    def __init__(self) -> None:
        self.convoys = 0
        self.total_duration = 0
        self.max_duration = 0


@dataclass
class MaintenanceStats:
    """Running cost of keeping the summaries fresh."""

    adds: int = 0
    evictions: int = 0
    seconds: float = 0.0


class SummaryStore:
    """Incrementally maintained summary rows over one convoy index."""

    def __init__(self, region_cell_size: Optional[float] = None):
        if region_cell_size is not None and region_cell_size <= 0:
            raise ValueError(
                f"region_cell_size must be > 0, got {region_cell_size}"
            )
        self.region_cell_size = region_cell_size
        self.buckets: Dict[int, _Bucket] = {}
        self.stats_by_cid: Dict[int, ConvoyStat] = {}
        self.objects: Dict[int, _ObjectAgg] = {}
        self.graph = CoTravelGraph()
        self.stats = MaintenanceStats()
        # Reverse maps over *surviving* convoys: member tuples per cid
        # (for pair/object teardown on evict) and cid sets per object
        # (so an evicted max_duration can be recomputed without the index).
        self._members: Dict[int, Tuple[int, ...]] = {}
        self._by_object: Dict[int, Set[int]] = {}

    # -- index listener protocol ---------------------------------------------

    def on_add(self, record: IndexedConvoy) -> None:
        if record.convoy_id in self.stats_by_cid:
            return  # bootstrap overlap: already counted
        started = time.perf_counter()
        stat = self._stat_of(record)
        self.stats_by_cid[stat.cid] = stat
        bucket = self.buckets.get(stat.end)
        if bucket is None:
            bucket = self.buckets[stat.end] = _Bucket()
        bucket.add(stat)
        members = tuple(sorted(record.convoy.objects))
        self._members[stat.cid] = members
        for oid in members:
            agg = self.objects.get(oid)
            if agg is None:
                agg = self.objects[oid] = _ObjectAgg()
            agg.convoys += 1
            agg.total_duration += stat.duration
            if stat.duration > agg.max_duration:
                agg.max_duration = stat.duration
            self._by_object.setdefault(oid, set()).add(stat.cid)
        self.graph.add_convoy(members, stat.duration)
        self.stats.adds += 1
        self.stats.seconds += time.perf_counter() - started

    def on_evict(self, record: IndexedConvoy) -> None:
        self.discard(record.convoy_id)

    def discard(self, cid: int) -> None:
        """Forget one convoy id (eviction path; unknown ids are a no-op)."""
        stat = self.stats_by_cid.pop(cid, None)
        if stat is None:
            return  # never tracked (attached after this record came and went)
        started = time.perf_counter()
        bucket = self.buckets[stat.end]
        bucket.remove(stat.cid)
        if not bucket.entries:
            del self.buckets[stat.end]
        members = self._members.pop(stat.cid)
        for oid in members:
            ids = self._by_object[oid]
            ids.discard(stat.cid)
            agg = self.objects[oid]
            agg.convoys -= 1
            agg.total_duration -= stat.duration
            if agg.convoys == 0:
                del self.objects[oid]
                del self._by_object[oid]
            elif stat.duration == agg.max_duration:
                agg.max_duration = max(
                    self.stats_by_cid[other].duration for other in ids
                )
        self.graph.remove_convoy(members, stat.duration)
        self.stats.evictions += 1
        self.stats.seconds += time.perf_counter() - started

    # -- derived -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Materialized summary rows (end-tick buckets) currently held."""
        return len(self.buckets)

    @property
    def convoy_count(self) -> int:
        return len(self.stats_by_cid)

    def cell_of(self, bbox: Optional[BBox]) -> Optional[Cell]:
        """Lattice cell of a bbox center (``None`` for bbox-less convoys)."""
        if bbox is None:
            return None
        if self.region_cell_size is None:
            # Freeze the lattice on first contact with spatial data.
            self.region_cell_size = max(
                bbox[2] - bbox[0], bbox[3] - bbox[1], 1.0
            )
        size = self.region_cell_size
        return (
            math.floor((bbox[0] + bbox[2]) / 2.0 / size),
            math.floor((bbox[1] + bbox[3]) / 2.0 / size),
        )

    def _stat_of(self, record: IndexedConvoy) -> ConvoyStat:
        convoy = record.convoy
        return ConvoyStat(
            cid=record.convoy_id,
            start=convoy.start,
            end=convoy.end,
            size=convoy.size,
            duration=convoy.duration,
            cell=self.cell_of(record.bbox),
            bbox=record.bbox,
        )
