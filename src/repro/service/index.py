"""Persistent, queryable store of closed convoys.

The index is the serving half of the mining/serving split: the ingest
service appends convoys as they close, queries read them back at
interactive latency.  Every query runs on in-memory access paths:

* a **temporal interval index** keyed by convoy end time — an overlap
  query starts its scan at the first convoy ending inside the range;
* an **object inverted index** mapping object id to convoy history,
  backed by per-convoy bitset masks (the PR-1 algebra), so membership
  and contains-all queries are single ``&`` operations;
* a **region grid** over the convoy bounding boxes.

A persistent index also writes each convoy's HEAD, MEMBER and BBOX rows
(:mod:`repro.service.records`) into one :class:`~repro.storage.lsm.tree.
LSMTree`; a reopen scans them back and rebuilds the access paths.

Insertion keeps the store *maximal* (the paper's ``update()``): a convoy
subsumed by a stored one is dropped, stored convoys subsumed by a new
arrival are evicted — so a full-range query returns exactly the maximal
convoy set the batch miner would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.bitset import ObjectInterner, ObjectMask
from ..core.types import Convoy, sort_convoys
from ..obs import METRICS
from ..testing.faults import FAULTS
from ..storage.lsm.tree import LSMTree
from .records import (
    FIELD_LIMIT,
    TAG_BBOX,
    TAG_HEAD,
    TAG_MEMBER,
    decode_pair,
    decode_result_key,
    decode_xy,
    encode_pair,
    encode_xy,
    member_chunks,
    result_key,
    tag_range,
    unpack_members,
)
from .retention import ColdSegmentStore, RetentionPolicy

BBox = Tuple[float, float, float, float]  # (xmin, ymin, xmax, ymax)


def _retry_copy(copy):
    """Copy a live container, retrying if the single writer resizes it.

    The serving front reads from a thread pool while one writer mutates
    the hot dicts/sets; copying mid-resize raises ``RuntimeError``
    ("changed size during iteration").  Each write is bounded, so
    retrying the (cheap) copy terminates quickly; the result is a
    point-in-time snapshot the caller can iterate freely.
    """
    while True:
        try:
            return copy()
        except RuntimeError:
            continue


@dataclass(frozen=True)
class IndexedConvoy:
    """One stored convoy plus its serving metadata."""

    convoy_id: int
    convoy: Convoy
    bbox: Optional[BBox]


#: Upper bound on region-grid resolution per axis (64x64 = 4096 cells).
_MAX_GRID_CELLS = 64

#: Below this record count the linear scan beats the grid's probe overhead.
_GRID_MIN_RECORDS = 64

_GRID_REBUILDS = METRICS.counter(
    "repro_index_grid_rebuilds_total",
    "Region-grid rebuilds actually performed (bbox set changed).",
)

_EVICTED = METRICS.counter(
    "repro_index_evicted_total",
    "Convoys aged out of the live index by the retention policy.",
)
_LIVE_ROWS = METRICS.gauge(
    "repro_index_live_rows",
    "Convoys currently held by the live index.",
)

#: Reserved meta row (tag 0 sorts below every data tag): value is
#: ``(min_live_cid, next_id)``.  Written by retention so a cold reopen
#: can skip aged rows the compactor has not dropped yet and never reuse a
#: retired convoy id.
_HORIZON_KEY = encode_pair(0, 0)


class _RegionGrid:
    """Uniform grid over the stored convoy bounding boxes.

    Rebuilt lazily whenever the *bbox set* moves (writes are batchy —
    ingest, then many queries — so one O(n) rebuild amortises over the
    whole read phase).  The index tracks a dedicated ``bbox_version``
    bumped only by mutations that touch a bboxed record: version bumps
    from bbox-less convoys used to trigger a full O(n) rebuild for a
    grid that could not have changed.  A region query probes only the
    cells its rectangle overlaps instead of scanning every record.

    The grid is *self-contained*: it carries its own ``{cid: bbox}``
    snapshot taken at build time, so a query never touches the index's
    live record dict.  Builders construct a complete local grid and only
    then publish it with one attribute store — concurrent readers either
    see the old fully-built grid or the new one, never a half-built
    state, and the single writer can keep mutating records throughout
    (the HTTP front serves parallel reads off exactly this path).
    """

    __slots__ = (
        "bbox_version", "nx", "ny", "x0", "y0", "cw", "ch", "cells", "bboxes",
    )

    def __init__(self, bbox_version: int):
        self.bbox_version = bbox_version
        self.nx = self.ny = 0
        self.x0 = self.y0 = 0.0
        self.cw = self.ch = 1.0
        self.cells: Dict[Tuple[int, int], List[int]] = {}
        self.bboxes: Dict[int, BBox] = {}

    @staticmethod
    def build(
        bbox_version: int, records: Sequence[Tuple[int, "IndexedConvoy"]]
    ) -> "_RegionGrid":
        _GRID_REBUILDS.inc()
        grid = _RegionGrid(bbox_version)
        grid.bboxes = {
            cid: record.bbox
            for cid, record in records
            if record.bbox is not None
        }
        if not grid.bboxes:
            return grid
        boxes = grid.bboxes.values()
        grid.x0 = min(b[0] for b in boxes)
        grid.y0 = min(b[1] for b in boxes)
        x1 = max(b[2] for b in boxes)
        y1 = max(b[3] for b in boxes)
        resolution = min(_MAX_GRID_CELLS, max(1, math.isqrt(len(grid.bboxes))))
        grid.nx = grid.ny = resolution
        grid.cw = max((x1 - grid.x0) / resolution, 1e-12)
        grid.ch = max((y1 - grid.y0) / resolution, 1e-12)
        for cid, bbox in grid.bboxes.items():
            for cell in grid._cells_over(bbox):
                grid.cells.setdefault(cell, []).append(cid)
        return grid

    def _cells_over(self, rect: BBox):
        ix0, iy0, ix1, iy1 = self._cell_span(rect)
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                yield (ix, iy)

    def _cell_span(self, rect: BBox) -> Tuple[int, int, int, int]:
        clamp = lambda v, hi: min(max(v, 0), hi - 1)  # noqa: E731
        ix0 = clamp(int((rect[0] - self.x0) / self.cw), self.nx)
        iy0 = clamp(int((rect[1] - self.y0) / self.ch), self.ny)
        ix1 = clamp(int((rect[2] - self.x0) / self.cw), self.nx)
        iy1 = clamp(int((rect[3] - self.y0) / self.ch), self.ny)
        return ix0, iy0, ix1, iy1

    def query(self, region: BBox) -> List[int]:
        if not self.cells:
            return []
        xmin, ymin, xmax, ymax = region
        candidates: Set[int] = set()
        for cell in self._cells_over(region):
            candidates.update(self.cells.get(cell, ()))
        return sorted(
            cid
            for cid in candidates
            if (bbox := self.bboxes[cid])[0] <= xmax
            and xmin <= bbox[2]
            and bbox[1] <= ymax
            and ymin <= bbox[3]
        )


class ConvoyIndex:
    """Maximality-preserving convoy store, in memory or over an LSM tree.

    With ``tree=None`` nothing is written anywhere.  ``version``
    increments on every mutation; the query engine keys its result cache
    on it, so a cache entry can never outlive the data it was computed
    from.
    """

    def __init__(self, tree: Optional[LSMTree] = None):
        self._tree = tree
        self._records: Dict[int, IndexedConvoy] = {}
        self._interner = ObjectInterner()
        self._masks: Dict[int, ObjectMask] = {}
        self._by_object: Dict[int, Set[int]] = {}
        self._by_end: List[Tuple[int, int]] = []  # (end, cid), end-sorted
        self._next_id = 0
        self.version = 0
        # Bumped only by mutations touching a *bboxed* record, so the
        # region grid can skip rebuilds for bbox-less writes.
        self._bbox_version = 0
        self._region_grid: Optional[_RegionGrid] = None
        # Mutation listeners (e.g. the analytics summary store); notified
        # after each add/evict with the affected record.  Attached after
        # construction, so _load() replays reach nobody.
        self._listeners: List = []
        # Retention: policy + cold archive, attached via set_retention().
        # _retention_cutoff is the highest partition-aligned end-tick
        # cutoff applied so far (rows ending below it have aged out).
        self._retention: Optional[RetentionPolicy] = None
        self._cold: Optional[ColdSegmentStore] = None
        self._retention_cutoff = 0
        self.evicted_total = 0
        # Convoy ids below this are retired; assigned monotonically with
        # close order, so retention eviction always retires a cid prefix.
        self._min_live = 0
        if tree is not None:
            self._load(tree)

    # -- persistence ---------------------------------------------------------

    def _load(self, tree: LSMTree) -> None:
        """Rebuild the hot state from the tree (cold reopen).

        The tree may still hold rows of retired convoys the compactor
        has not dropped yet; the persisted horizon row says which cids
        those are, so the reopen skips them and resumes id assignment
        past every id ever handed out.
        """
        horizon_next = 0
        horizon = tree.get(_HORIZON_KEY)
        if horizon is not None:
            self._min_live, horizon_next = decode_pair(horizon)
        heads: Dict[int, Tuple[int, int]] = {}
        bboxes: Dict[int, Dict[int, Tuple[float, float]]] = {}
        members: Dict[int, List[bytes]] = {}
        for key, value in tree.range(*tag_range(TAG_HEAD)):
            _, cid, _ = decode_result_key(key)
            if cid >= self._min_live:
                heads[cid] = decode_pair(value)
        for key, value in tree.range(*tag_range(TAG_BBOX)):
            _, cid, row = decode_result_key(key)
            bboxes.setdefault(cid, {})[row] = decode_xy(value)
        for key, value in tree.range(*tag_range(TAG_MEMBER)):
            _, cid, _chunk = decode_result_key(key)
            members.setdefault(cid, []).append(value)
        for cid, (start, end) in sorted(heads.items()):
            objects = unpack_members(iter(members.get(cid, [])))
            bbox: Optional[BBox] = None
            corner = bboxes.get(cid)
            if corner and 0 in corner and 1 in corner:
                bbox = (*corner[0], *corner[1])
            self._install(cid, Convoy.of(objects, start, end), bbox)
        self._next_id = max(max(heads) + 1 if heads else 0, horizon_next)
        if horizon is not None:
            self._push_drop_predicate()

    def flush(self) -> None:
        if self._tree is not None:
            self._tree.flush()

    def close(self) -> None:
        if self._tree is not None:
            self._tree.close()
        if self._cold is not None:
            self._cold.close()

    # -- mutation ------------------------------------------------------------

    def add(self, convoy: Convoy, bbox: Optional[BBox] = None) -> Optional[int]:
        """Insert with ``update_maximal`` semantics; returns the new id.

        Returns ``None`` (and stores nothing) when the convoy is a
        sub-convoy of an already stored one; stored convoys that are
        sub-convoys of the new arrival are evicted.

        Timestamps and object ids must be non-negative (the same key
        domain every on-disk store in this library uses); the domain is
        checked *before* any row is written so a rejected convoy can
        never leave partial rows behind.
        """
        if convoy.start < 0 or convoy.end >= FIELD_LIMIT:
            raise ValueError(
                f"timestamps outside [0, 2^48) not indexable: {convoy}"
            )
        for oid in convoy.objects:
            if not 0 <= oid < FIELD_LIMIT:
                raise ValueError(f"object id {oid} outside [0, 2^48): {convoy}")
        mask = self._interner.mask_of(convoy.objects)
        # Subsumption in either direction requires sharing every member of
        # the smaller set, so only convoys sharing at least one member with
        # the candidate can be involved — the inverted index narrows the
        # scan from all records to the candidate's neighborhood.
        neighborhood: Set[int] = set()
        for oid in convoy.objects:
            neighborhood.update(self._by_object.get(oid, ()))
        doomed: List[int] = []
        for cid in neighborhood:
            record = self._records[cid]
            other = self._masks[cid]
            stored = record.convoy
            if (
                mask & other == mask
                and stored.start <= convoy.start
                and convoy.end <= stored.end
            ):
                return None
            if (
                mask & other == other
                and convoy.start <= stored.start
                and stored.end <= convoy.end
            ):
                doomed.append(cid)
        for cid in doomed:
            self._evict(cid)
        cid = self._next_id
        self._next_id += 1
        if self._tree is not None:
            self._write(cid, convoy, bbox)
        self._install(cid, convoy, bbox)
        _LIVE_ROWS.set(len(self._records))
        self.version += 1
        if bbox is not None:
            self._bbox_version += 1
        if self._listeners:
            record = self._records[cid]
            for listener in tuple(self._listeners):
                listener.on_add(record)
        return cid

    def _write(self, cid: int, convoy: Convoy, bbox: Optional[BBox]) -> None:
        put = self._tree.put
        put(result_key(TAG_HEAD, cid, 0), encode_pair(convoy.start, convoy.end))
        for chunk, value in member_chunks(tuple(sorted(convoy.objects))):
            put(result_key(TAG_MEMBER, cid, chunk), value)
        if bbox is not None:
            put(result_key(TAG_BBOX, cid, 0), encode_xy(bbox[0], bbox[1]))
            put(result_key(TAG_BBOX, cid, 1), encode_xy(bbox[2], bbox[3]))

    def _evict(self, cid: int, *, delete_rows: bool = True) -> None:
        """Drop a convoy from the hot state and tombstone its rows.

        Retention passes ``delete_rows=False``: instead of tombstoning
        every row, the aged rows stay put until the next compaction
        discards them via the drop predicate — the persisted horizon
        keeps reopens from resurrecting them.
        """
        record = self._records.pop(cid)
        convoy = record.convoy
        self._masks.pop(cid, None)
        self._by_end.pop(bisect_left(self._by_end, (convoy.end, cid)))
        if delete_rows and self._tree is not None:
            delete = self._tree.delete
            delete(result_key(TAG_HEAD, cid, 0))
            n_chunks = (len(convoy.objects) + 1) // 2
            for chunk in range(n_chunks):
                delete(result_key(TAG_MEMBER, cid, chunk))
            if record.bbox is not None:
                delete(result_key(TAG_BBOX, cid, 0))
                delete(result_key(TAG_BBOX, cid, 1))
        for oid in convoy.objects:
            ids = self._by_object.get(oid)
            if ids is not None:
                ids.discard(cid)
                if not ids:
                    del self._by_object[oid]
        self.version += 1
        if record.bbox is not None:
            self._bbox_version += 1
        for listener in tuple(self._listeners):
            listener.on_evict(record)

    def _install(self, cid: int, convoy: Convoy, bbox: Optional[BBox]) -> None:
        self._records[cid] = IndexedConvoy(cid, convoy, bbox)
        self._masks[cid] = self._interner.mask_of(convoy.objects)
        insort(self._by_end, (convoy.end, cid))
        for oid in convoy.objects:
            self._by_object.setdefault(oid, set()).add(cid)

    # -- retention -----------------------------------------------------------

    def set_retention(
        self,
        policy: Optional[RetentionPolicy],
        cold: Optional[ColdSegmentStore] = None,
    ) -> None:
        """Bound the live index; evicted convoys archive into ``cold``.

        The ingest path calls :meth:`apply_retention` with the feed
        frontier after every published tick; queries with
        ``include_cold=True`` read the archive back through the cold
        store.
        """
        self._retention = policy
        self._cold = cold

    @property
    def retention(self) -> Optional[RetentionPolicy]:
        return self._retention

    @property
    def cold(self) -> Optional[ColdSegmentStore]:
        return self._cold

    def retention_backlog(self) -> int:
        """Rows currently eligible for eviction but still live.

        Near zero in steady state — it only grows while eviction work
        is queued behind the single writer, which makes it a health
        signal for the serving front.
        """
        policy = self._retention
        if policy is None:
            return 0
        backlog = 0
        if self._retention_cutoff:
            backlog = bisect_left(self._by_end, (self._retention_cutoff, -1))
        if policy.max_rows is not None:
            backlog = max(backlog, len(self._records) - policy.max_rows)
        return max(0, backlog)

    def apply_retention(self, frontier: int) -> int:
        """Age out-of-window convoys behind ``frontier``; returns the count.

        The window cutoff advances in partition-aligned steps (see
        :class:`RetentionPolicy`), so eviction work arrives in batches
        and the live row count overshoots the window by at most one
        partition's worth.  Each evicted convoy is archived to the cold
        store *before* the live rows are deleted — a crash between the
        two leaves the convoy both cold and live, which recovery
        resolves by re-evicting (cold readers deduplicate by id).
        """
        policy = self._retention
        if policy is None:
            return 0
        cutoff = policy.cutoff(frontier)
        if cutoff is not None and cutoff > self._retention_cutoff:
            self._retention_cutoff = cutoff
        evicted = 0
        if self._retention_cutoff:
            while self._by_end and self._by_end[0][0] < self._retention_cutoff:
                self._retire(self._by_end[0][1])
                evicted += 1
        if policy.max_rows is not None:
            while len(self._records) > policy.max_rows and self._by_end:
                self._retire(self._by_end[0][1])
                evicted += 1
        if evicted:
            self._min_live = min(self._records, default=self._next_id)
            _EVICTED.inc(evicted)
            _LIVE_ROWS.set(len(self._records))
            if self._tree is not None:
                self._tree.put(
                    _HORIZON_KEY, encode_pair(self._min_live, self._next_id)
                )
                self._push_drop_predicate()
        return evicted

    def _retire(self, cid: int) -> None:
        """Archive one convoy cold, then evict its live rows."""
        record = self._records[cid]
        if self._cold is not None:
            self._cold.append(record)  # crash point: service.cold.append
        FAULTS.crash_point("service.retention.evict")
        self._evict(cid, delete_rows=False)
        self.evicted_total += 1

    def _push_drop_predicate(self) -> None:
        """Teach the tree to drop aged rows during compaction.

        Retention retires convoys in close order and ids are assigned
        monotonically, so every id below the smallest live one belongs
        to a convoy that is either retired (rows still on disk, dropped
        here) or subsumption-evicted (rows already tombstoned; the
        predicate lets compaction discard the tombstones too).  Every
        data row carries its cid in the high field; the horizon meta
        row is never matched (tag 0).
        """
        min_live = self._min_live

        def drop(key: bytes) -> bool:
            tag, cid, _ = decode_result_key(key)
            return tag != 0 and cid < min_live

        self._tree.set_drop_predicate(drop)

    # -- hot query paths -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def next_id(self) -> int:
        """The id the next stored convoy will get (a durability watermark)."""
        return self._next_id

    def get(self, cid: int) -> Optional[IndexedConvoy]:
        return self._records.get(cid)

    def records(self) -> List[IndexedConvoy]:
        """A point-in-time snapshot of every stored record, cid-ordered."""
        records = _retry_copy(lambda: list(self._records.values()))
        records.sort(key=lambda record: record.convoy_id)
        return records

    def add_listener(self, listener) -> None:
        """Subscribe to mutations: ``listener.on_add(record)`` after every
        insert, ``listener.on_evict(record)`` after every eviction."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def convoys(self) -> List[Convoy]:
        """Every stored convoy (the maximal set), deterministically ordered."""
        return sort_convoys(
            record.convoy
            for record in _retry_copy(lambda: list(self._records.values()))
        )

    def ids_overlapping(self, start: int, end: int) -> List[int]:
        """Convoys whose lifespan intersects ``[start, end]``.

        Bisects to the first convoy ending at or after ``start``, then
        filters by start time.
        """
        first = bisect_left(self._by_end, (start, -1))
        # The slice is one atomic list copy; a concurrently evicted cid
        # then simply misses its record and is skipped.
        return [
            cid
            for _, cid in self._by_end[first:]
            if (record := self._records.get(cid)) is not None
            and record.convoy.start <= end
        ]

    def ids_of_object(self, oid: int) -> List[int]:
        ids = self._by_object.get(oid)
        if ids is None:
            return []
        return sorted(_retry_copy(lambda: list(ids)))

    def ids_containing(self, oids: Sequence[int]) -> List[int]:
        """Convoys whose member set contains *all* the given objects."""
        wanted = 0
        for oid in oids:
            bit = self._interner.bit_if_known(oid)
            if bit is None:  # never stored => contained in no convoy
                return []
            wanted |= 1 << bit
        return [
            cid
            for cid, mask in _retry_copy(lambda: list(self._masks.items()))
            if wanted & mask == wanted
        ]

    def ids_in_region(self, region: BBox, use_grid: bool = True) -> List[int]:
        """Convoys whose recorded bounding box overlaps the region.

        Probes a uniform grid over the stored bounding boxes (rebuilt
        lazily per index version) so a query touches only the candidates
        in the overlapping cells; ``use_grid=False`` keeps the exhaustive
        row scan as a correctness oracle and benchmark baseline.
        """
        if not use_grid or len(self._records) < _GRID_MIN_RECORDS:
            return self._scan_region_linear(region)
        grid = self._region_grid
        if grid is None or grid.bbox_version != self._bbox_version:
            # Concurrent-reader safety: snapshot the bbox version *before*
            # the records (a racing write then only makes the grid look
            # stale, never fresh), build a complete local grid, and
            # publish it with a single store.  Readers holding the old
            # grid keep answering from its own bbox snapshot.  Writes
            # that touch no bboxed record leave _bbox_version alone, so
            # they no longer force an O(n) rebuild of an unchanged grid.
            bbox_version = self._bbox_version
            grid = _RegionGrid.build(bbox_version, self._snapshot_records())
            self._region_grid = grid
        return grid.query(region)

    def _snapshot_records(self) -> List[Tuple[int, IndexedConvoy]]:
        """A point-in-time copy of the record table, safe under one writer."""
        return _retry_copy(lambda: list(self._records.items()))

    def _scan_region_linear(self, region: BBox) -> List[int]:
        xmin, ymin, xmax, ymax = region
        return sorted(
            cid
            for cid, record in self._snapshot_records()
            if record.bbox is not None
            and record.bbox[0] <= xmax
            and xmin <= record.bbox[2]
            and record.bbox[1] <= ymax
            and ymin <= record.bbox[3]
        )
