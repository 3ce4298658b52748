"""Columnar trajectory dataset.

Movement data is the paper's 4-column table ``(oid, x, y, t)``.  We store it
column-wise in numpy arrays sorted by ``(t, oid)`` — the clustered order both
on-disk stores use — and expose the access paths the miners need:

* ``snapshot(t)``: every object present at tick ``t`` (benchmark clustering);
* ``points_for(t, oids)``: a subset of one snapshot (HWMT re-clustering);
* restriction views by object set and time interval (validation);
* ``member_bbox(convoy)``: where a convoy's members went (the convoy index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.source import select_sorted_rows
from ..core.types import Convoy, Timestamp

#: A snapshot is (object ids, xs, ys) with aligned rows sorted by object id.
Snapshot = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: An axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``.
BBox = Tuple[float, float, float, float]

_EMPTY_SNAPSHOT: Snapshot = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.float64),
)


@dataclass(frozen=True)
class DatasetInfo:
    """Summary statistics of a dataset (printed by the CLI and Table 4 bench)."""

    num_points: int
    num_objects: int
    start_time: int
    end_time: int
    width: float
    height: float

    @property
    def duration(self) -> int:
        return self.end_time - self.start_time + 1


class Dataset:
    """Immutable columnar trajectory table sorted by ``(t, oid)``."""

    def __init__(
        self,
        oids: np.ndarray,
        ts: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        presorted: bool = False,
    ):
        oids = np.asarray(oids, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if not (len(oids) == len(ts) == len(xs) == len(ys)):
            raise ValueError("all columns must have identical lengths")
        if not presorted and len(ts):
            order = np.lexsort((oids, ts))
            oids, ts, xs, ys = oids[order], ts[order], xs[order], ys[order]
        self.oids = oids
        self.ts = ts
        self.xs = xs
        self.ys = ys
        self._index = _build_time_index(ts)
        self._row_key_cache: Optional[Tuple[int, int, int, np.ndarray]] = None

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_records(records: Iterable[Tuple[int, int, float, float]]) -> "Dataset":
        """Build from ``(oid, t, x, y)`` tuples."""
        rows = list(records)
        if not rows:
            return Dataset.empty()
        oids, ts, xs, ys = zip(*rows)
        return Dataset(np.array(oids), np.array(ts), np.array(xs), np.array(ys))

    @staticmethod
    def empty() -> "Dataset":
        return Dataset(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64),
            presorted=True,
        )

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return len(self.oids)

    @property
    def num_points(self) -> int:
        return len(self.oids)

    @property
    def start_time(self) -> Timestamp:
        if not len(self.ts):
            raise ValueError("empty dataset has no time range")
        return int(self.ts[0])

    @property
    def end_time(self) -> Timestamp:
        if not len(self.ts):
            raise ValueError("empty dataset has no time range")
        return int(self.ts[-1])

    def timestamps(self) -> np.ndarray:
        """Distinct timestamps present, ascending."""
        return np.fromiter(self._index.keys(), dtype=np.int64, count=len(self._index))

    def objects(self) -> np.ndarray:
        """Distinct object ids, ascending."""
        return np.unique(self.oids)

    @property
    def num_objects(self) -> int:
        return len(self.objects())

    def info(self) -> DatasetInfo:
        if not len(self):
            return DatasetInfo(0, 0, 0, -1, 0.0, 0.0)
        return DatasetInfo(
            num_points=self.num_points,
            num_objects=self.num_objects,
            start_time=self.start_time,
            end_time=self.end_time,
            width=float(self.xs.max() - self.xs.min()),
            height=float(self.ys.max() - self.ys.min()),
        )

    # -- access paths used by the miners -----------------------------------

    def snapshot(self, t: Timestamp) -> Snapshot:
        """All objects present at tick ``t`` (rows sorted by object id)."""
        bounds = self._index.get(int(t))
        if bounds is None:
            return _EMPTY_SNAPSHOT
        lo, hi = bounds
        return self.oids[lo:hi], self.xs[lo:hi], self.ys[lo:hi]

    def points_for(self, t: Timestamp, oids: Sequence[int]) -> Snapshot:
        """Subset of snapshot ``t`` restricted to the given object ids."""
        wanted = np.asarray(sorted(set(oids)), dtype=np.int64)
        return self._points_for_sorted(t, wanted)

    def points_for_many(
        self, ts: Sequence[Timestamp], oids: Sequence[int]
    ) -> Dict[int, Snapshot]:
        """Batched :meth:`points_for`: one call covering several timestamps.

        Every wanted ``(t, oid)`` pair is located with one ``searchsorted``
        over the composite row key (see :meth:`_row_key`); the HWMT,
        extension and validation fetch a candidate's ticks this way.
        """
        wanted = np.asarray(sorted(set(oids)), dtype=np.int64)
        row_key = self._row_key()
        if row_key is None:
            return {int(t): self._points_for_sorted(int(t), wanted) for t in ts}
        t0, o0, span, keys = row_key
        snapshots = dict.fromkeys(map(int, ts), _EMPTY_SNAPSHOT)
        found = [t for t in snapshots if t in self._index]
        if len(wanted) and (wanted[0] < o0 or wanted[-1] >= o0 + span):
            wanted = wanted[(wanted >= o0) & (wanted < o0 + span)]
        if not found or not len(wanted):
            return snapshots
        probe = (
            ((np.array(found) - t0) * span)[:, None] + (wanted - o0)
        ).ravel()
        pos = keys.searchsorted(probe)
        np.minimum(pos, len(keys) - 1, out=pos)
        hit = keys[pos] == probe
        if hit.all():  # every wanted object at every tick: one row per tick
            shape = (len(found), len(wanted))
            columns = zip(
                self.oids[pos].reshape(shape),
                self.xs[pos].reshape(shape),
                self.ys[pos].reshape(shape),
            )
            snapshots.update(zip(found, columns))
            return snapshots
        pos = pos[hit]
        ends = np.cumsum(hit.reshape(len(found), -1).sum(axis=1)).tolist()
        oids_hit, xs_hit, ys_hit = self.oids[pos], self.xs[pos], self.ys[pos]
        lo = 0
        for t, hi in zip(found, ends):
            snapshots[t] = oids_hit[lo:hi], xs_hit[lo:hi], ys_hit[lo:hi]
            lo = hi
        return snapshots

    def _row_key(self) -> Optional[Tuple[int, int, int, np.ndarray]]:
        """``(t0, o0, span, keys)`` with ``keys = (t - t0) * span + (oid - o0)``.

        Rows are sorted by ``(t, oid)``, so ``keys`` ascends with the rows
        and one ``searchsorted`` finds any ``(t, oid)``.  Built on first use
        and published with one assignment, so concurrent readers see either
        nothing or the whole tuple.  ``None`` for an empty dataset, or when
        the keys would overflow int64 (callers then select tick by tick).
        """
        row_key = self._row_key_cache
        if row_key is None and len(self.oids):
            t0, o0 = int(self.ts[0]), int(self.oids.min())
            span = int(self.oids.max()) - o0 + 1
            if (int(self.ts[-1]) - t0 + 1) * span < 2**63:
                keys = (self.ts - t0) * span + (self.oids - o0)
                row_key = self._row_key_cache = (t0, o0, span, keys)
        return row_key

    def _points_for_sorted(self, t: Timestamp, wanted: np.ndarray) -> Snapshot:
        snap_oids, xs, ys = self.snapshot(t)
        if not len(snap_oids) or not len(wanted):
            return _EMPTY_SNAPSHOT
        return select_sorted_rows(snap_oids, xs, ys, wanted)

    def restrict_objects(self, oids: Iterable[int]) -> "Dataset":
        """The paper's ``DB |O``: rows of the given objects only."""
        wanted = np.asarray(sorted(set(oids)), dtype=np.int64)
        mask = np.isin(self.oids, wanted)
        return Dataset(
            self.oids[mask], self.ts[mask], self.xs[mask], self.ys[mask],
            presorted=True,
        )

    def restrict_time(self, start: Timestamp, end: Timestamp) -> "Dataset":
        """The paper's ``DB [T]``: rows with ``start <= t <= end``."""
        lo = np.searchsorted(self.ts, start, side="left")
        hi = np.searchsorted(self.ts, end, side="right")
        return Dataset(
            self.oids[lo:hi], self.ts[lo:hi], self.xs[lo:hi], self.ys[lo:hi],
            presorted=True,
        )

    def member_bbox(self, convoy: Convoy) -> Optional[BBox]:
        """Bounding box of the convoy's members' rows over its lifetime.

        ``None`` when no row of a member falls inside the lifetime.
        """
        lo = np.searchsorted(self.ts, convoy.start, side="left")
        hi = np.searchsorted(self.ts, convoy.end, side="right")
        members = np.fromiter(convoy.objects, dtype=np.int64, count=convoy.size)
        keep = np.isin(self.oids[lo:hi], members)
        if not keep.any():
            return None
        xs, ys = self.xs[lo:hi][keep], self.ys[lo:hi][keep]
        return (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))

    def iter_records(self) -> Iterator[Tuple[int, int, float, float]]:
        """Yield ``(oid, t, x, y)`` rows in clustered order."""
        for oid, t, x, y in zip(self.oids, self.ts, self.xs, self.ys):
            yield int(oid), int(t), float(x), float(y)

    def concat(self, other: "Dataset") -> "Dataset":
        return Dataset(
            np.concatenate([self.oids, other.oids]),
            np.concatenate([self.ts, other.ts]),
            np.concatenate([self.xs, other.xs]),
            np.concatenate([self.ys, other.ys]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.oids, other.oids)
            and np.array_equal(self.ts, other.ts)
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
        )

    __hash__ = None  # type: ignore[assignment]


def _build_time_index(ts: np.ndarray) -> Dict[int, Tuple[int, int]]:
    """Map each distinct timestamp to its contiguous row range [lo, hi)."""
    index: Dict[int, Tuple[int, int]] = {}
    if not len(ts):
        return index
    boundaries = np.flatnonzero(np.diff(ts)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(ts)]])
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        index[int(ts[lo])] = (lo, hi)
    return index
