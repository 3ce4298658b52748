"""Streaming convoy monitor — online discovery over an unbounded feed.

Related to Tang et al.'s traveling-companion discovery (§2): instead of
mining a stored dataset, the monitor ingests one snapshot at a time and
emits convoys *as they close* (their objects stop being density-connected)
or on demand for the still-open candidates.

The candidate maintenance is the corrected (PCCD-style) intersection
chain; an optional validation hook reduces emissions to fully connected
convoys using the recorded history window, and bounds each emission's
members over that window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering import cluster_snapshot
from ..core.params import ConvoyQuery
from ..core.types import Cluster, Convoy, TimeInterval, Timestamp, maximal_convoys
from ..core.validate import validate_convoys
from ..data.dataset import BBox, Dataset


@dataclass(frozen=True)
class MonitorState:
    """Checkpointable open state of a :class:`StreamingConvoyMonitor`.

    Captures exactly what an unbounded feed cannot reconstruct after a
    crash: the open candidates with their start times, the last observed
    timestamp, and the retained validation window.  Closed convoys are
    *not* part of the state — they live in the durable convoy index.
    """

    last_time: Optional[Timestamp]
    #: ``(sorted members, since)`` per open candidate, deterministic order.
    active: Tuple[Tuple[Tuple[int, ...], Timestamp], ...]
    #: The validation window as ``(t, oids, xs, ys)`` tuples, ascending.
    window: Tuple[Tuple[Timestamp, np.ndarray, np.ndarray, np.ndarray], ...]


class StreamingConvoyMonitor:
    """Online convoy detection over an append-only snapshot stream.

    Parameters
    ----------
    query:
        The (m, k, eps) convoy query to monitor.
    history:
        Number of recent snapshots retained for validation and bounding
        boxes.  ``0`` disables both (emissions are then the *partially
        connected* convoys, like CMC/PCCD, with no bounding box).
    on_convoy:
        Optional callback invoked with each convoy the moment it closes.

    After each :meth:`observe` / :meth:`observe_clusters` / :meth:`finish`
    call, :attr:`last_bboxes` holds the bounding box of every convoy the
    call returned, in the same order: the members' extent over the part
    of the convoy's lifetime the window still covered at close time, or
    ``None`` when no covered tick holds a member.
    """

    def __init__(
        self,
        query: ConvoyQuery,
        history: int = 0,
        on_convoy: Optional[Callable[[Convoy], None]] = None,
    ):
        if history < 0:
            raise ValueError(f"history must be >= 0, got {history}")
        self.query = query
        self.history = history
        self.on_convoy = on_convoy
        self._active: Dict[Cluster, Timestamp] = {}
        self._closed: List[Convoy] = []
        self._last_time: Optional[Timestamp] = None
        self._window: Deque[Tuple[Timestamp, np.ndarray, np.ndarray, np.ndarray]] = (
            deque()
        )
        self.last_bboxes: List[Optional[BBox]] = []

    # -- ingestion -----------------------------------------------------------

    def observe(
        self,
        t: Timestamp,
        oids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> List[Convoy]:
        """Ingest the snapshot at time ``t``; returns convoys closed by it.

        Timestamps must arrive strictly increasing.  A gap in timestamps
        closes every active candidate (objects were unobserved, hence not
        provably together).
        """
        oid_arr = np.asarray(oids, dtype=np.int64)
        xs_arr = np.asarray(xs, dtype=np.float64)
        ys_arr = np.asarray(ys, dtype=np.float64)
        clusters = cluster_snapshot(
            oid_arr, xs_arr, ys_arr, self.query.eps, self.query.m
        )
        return self.observe_clusters(
            t, clusters, snapshot=(oid_arr, xs_arr, ys_arr)
        )

    def observe_clusters(
        self,
        t: Timestamp,
        clusters: Sequence[Cluster],
        snapshot: Optional[Tuple] = None,
    ) -> List[Convoy]:
        """Advance the candidate chain with pre-computed snapshot clusters.

        This is :meth:`observe` minus the clustering step: the sharded
        ingest service reconciles per-shard clusters into the exact global
        cluster set and feeds it here.  ``snapshot`` is the raw
        ``(oids, xs, ys)`` tick, retained (when ``history`` is enabled) so
        close-time validation has the positions.
        """
        if self._last_time is not None and t <= self._last_time:
            raise ValueError(f"non-monotonic timestamp {t}")
        self.last_bboxes = []
        gap_emissions: List[Convoy] = []
        if self._last_time is not None and t > self._last_time + 1:
            gap_emissions = self._flush_all(self._last_time)
        self._last_time = t
        if self.history and snapshot is not None:
            oid_arr, xs_arr, ys_arr = snapshot
            self._window.append(
                (
                    t,
                    np.asarray(oid_arr, dtype=np.int64),
                    np.asarray(xs_arr, dtype=np.float64),
                    np.asarray(ys_arr, dtype=np.float64),
                )
            )
            while len(self._window) > self.history:
                self._window.popleft()
        emitted: List[Convoy] = list(gap_emissions)
        survivors: Dict[Cluster, Timestamp] = {}
        for candidate, since in self._active.items():
            kept_whole = False
            for cluster in clusters:
                joint = candidate & cluster
                if len(joint) < self.query.m:
                    continue
                earlier = survivors.get(joint)
                if earlier is None or since < earlier:
                    survivors[joint] = since
                if joint == candidate:
                    kept_whole = True
            if not kept_whole:
                emitted.extend(self._close(candidate, since, t - 1))
        for cluster in clusters:
            survivors.setdefault(cluster, t)
        self._active = survivors
        return emitted

    def finish(self) -> List[Convoy]:
        """Close every remaining candidate (end of stream)."""
        self.last_bboxes = []
        if self._last_time is None:
            return []
        return self._flush_all(self._last_time)

    # -- results ---------------------------------------------------------------

    @property
    def last_time(self) -> Optional[Timestamp]:
        """Timestamp of the most recent snapshot (``None`` before any)."""
        return self._last_time

    @property
    def retained_history(self) -> Tuple:
        """The validation window as ``(t, oids, xs, ys)`` tuples (read-only)."""
        return tuple(self._window)

    @property
    def closed_convoys(self) -> List[Convoy]:
        """All convoys emitted so far, maximal-filtered."""
        return maximal_convoys(self._closed)

    def open_candidates(self) -> List[Convoy]:
        """Currently-alive candidates as convoys up to the last snapshot."""
        if self._last_time is None:
            return []
        return [
            Convoy(objects, TimeInterval(since, self._last_time))
            for objects, since in self._active.items()
        ]

    # -- checkpoint / recovery --------------------------------------------------

    def state_snapshot(self) -> MonitorState:
        """The open state a service checkpoint must persist."""
        return MonitorState(
            last_time=self._last_time,
            active=tuple(
                sorted(
                    (tuple(sorted(members)), since)
                    for members, since in self._active.items()
                )
            ),
            window=self.retained_history,
        )

    def restore_state(
        self, state: MonitorState, closed: Optional[Sequence[Convoy]] = None
    ) -> None:
        """Reset the monitor to a checkpointed state (crash recovery).

        ``closed`` seeds the emitted-convoy list — recovery passes the
        durable index's convoys so :attr:`closed_convoys` keeps answering
        the full maximal set after a restart.
        """
        self._last_time = state.last_time
        self._active = {
            frozenset(members): since for members, since in state.active
        }
        self._window = deque(
            (
                t,
                np.asarray(oids, dtype=np.int64),
                np.asarray(xs, dtype=np.float64),
                np.asarray(ys, dtype=np.float64),
            )
            for t, oids, xs, ys in state.window
        )
        while self.history and len(self._window) > self.history:
            self._window.popleft()
        self._closed = list(closed) if closed is not None else []

    # -- internals --------------------------------------------------------------

    def _flush_all(self, end: Timestamp) -> List[Convoy]:
        emitted: List[Convoy] = []
        for candidate, since in self._active.items():
            emitted.extend(self._close(candidate, since, end))
        self._active = {}
        return emitted

    def _close(
        self, objects: Cluster, first: Timestamp, last: Timestamp
    ) -> List[Convoy]:
        if last - first + 1 < self.query.k:
            return []
        convoy = Convoy(objects, TimeInterval(first, last))
        results = [convoy]
        rows = None
        if self.history:
            rows, covered = self._member_rows(convoy)
            # A convoy that outran the window cannot be validated: the
            # stream cannot rewind, so it is emitted as-is.
            if covered:
                results = validate_convoys(rows, [convoy], self.query)
        for result in results:
            self._closed.append(result)
            self.last_bboxes.append(
                None if rows is None else rows.member_bbox(result)
            )
            if self.on_convoy is not None:
                self.on_convoy(result)
        return results

    def _member_rows(self, convoy: Convoy) -> Tuple[Dataset, bool]:
        """The members' rows at the window ticks inside the convoy's
        lifetime, and whether the window covers that whole lifetime.

        Validation and the bounding boxes of what it emits read only
        these rows, so they are cut from the retained arrays once.
        """
        members = np.fromiter(convoy.objects, dtype=np.int64, count=convoy.size)
        columns: Tuple[List[np.ndarray], ...] = ([], [], [], [])
        for t, oid_arr, xs_arr, ys_arr in self._window:
            if t in convoy.interval:
                keep = np.isin(oid_arr, members)
                rows = oid_arr[keep]
                columns[0].append(rows)
                columns[1].append(np.full(len(rows), t, dtype=np.int64))
                columns[2].append(xs_arr[keep])
                columns[3].append(ys_arr[keep])
        if not columns[0]:
            return Dataset.empty(), False
        # Window ticks ascend without repeats, so counting them suffices.
        covered = len(columns[0]) == convoy.duration
        return Dataset(*(np.concatenate(column) for column in columns)), covered


def replay(
    dataset: Dataset, query: ConvoyQuery, history: int = 0
) -> List[Convoy]:
    """Feed a stored dataset through the monitor (testing/benchmark aid)."""
    monitor = StreamingConvoyMonitor(query, history=history)
    for t in dataset.timestamps().tolist():
        oids, xs, ys = dataset.snapshot(t)
        monitor.observe(t, oids, xs, ys)
    monitor.finish()
    return monitor.closed_convoys
