"""Sharded convoy ingestion: the write half of the serving layer.

A :class:`ConvoyIngestService` accepts an unbounded snapshot feed and
maintains three tiers of state:

1. **per-shard monitors** — one :class:`StreamingConvoyMonitor` per grid
   cell, fed the shard-local cluster fragments.  They answer cheap
   shard-scoped questions ("what is travelling together in my district
   right now?") without touching the rest of the fleet;
2. **global candidate chain** — shard fragments are reconciled into the
   exact global cluster set (see :mod:`repro.service.reconcile`, the
   DCM-style border merge) and drive one authoritative monitor whose
   closed convoys match batch mining;
3. **persistent index** — every closed convoy is appended to a
   :class:`~repro.service.index.ConvoyIndex` together with its bounding
   box over the retained history (computed by the global chain at close
   time, from the rows validation reads), ready for queries.

With ``history`` covering a convoy's lifetime the emitted convoys are
validated to full connectivity, which makes the query engine's answers
identical to re-mining with k/2-hop (property-tested in
``benchmarks/test_serve_equivalence.py``).

**Durability.**  With a :class:`~repro.service.durability.ServiceJournal`
attached, every accepted batch is written to a feed WAL *before* it
mutates any monitor, the open state is checkpointed every
``checkpoint_every`` batches, and :meth:`ConvoyIngestService.recover`
rebuilds a killed service to the exact mid-feed state — replaying the
WAL suffix past the checkpoint so the resumed feed produces the same
convoys an uninterrupted run would.  Feed batches carry per-source
sequence numbers; a batch at or below a source's applied watermark is a
duplicate (e.g. a client retry after a timeout) and is acknowledged
without being re-ingested.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..clustering import cluster_snapshot_with_cores
from ..core.params import ConvoyQuery
from ..core.types import Convoy, Timestamp
from ..data.dataset import Dataset
from ..extensions.streaming import MonitorState, StreamingConvoyMonitor
from ..obs import METRICS, TRACER
from ..testing.faults import FAULTS
from .durability import (
    KIND_FINISH,
    STAT_FIELDS,
    CheckpointState,
    ServiceJournal,
    ShardConfig,
)
from .index import BBox, ConvoyIndex
from .reconcile import Fragment, merge_fragments
from .sharding import GridSharder

logger = logging.getLogger(__name__)

_TICK_SECONDS = METRICS.histogram(
    "repro_ingest_tick_seconds", "End-to-end time to apply one snapshot."
)
_SHARD_CLUSTER_SECONDS = METRICS.histogram(
    "repro_ingest_shard_cluster_seconds",
    "Per-shard snapshot clustering time.", ["shard"],
)
_RECONCILE_SECONDS = METRICS.histogram(
    "repro_ingest_reconcile_seconds",
    "Cross-shard fragment reconciliation (border merge) time.",
)
_CHAIN_SECONDS = METRICS.histogram(
    "repro_ingest_chain_seconds",
    "Global candidate-chain update time per snapshot.",
)


def _collect_ingest(service: "ConvoyIngestService"):
    help_ = "Feed-side ingest counters."
    stats = service.stats
    samples = [
        ("repro_ingest_%s_total" % name, "counter", help_, (),
         float(getattr(stats, name)))
        for name in STAT_FIELDS
    ]
    samples.append((
        "repro_ingest_recovered_records", "gauge",
        "WAL records replayed at the last recovery.", (),
        float(stats.recovered_records),
    ))
    return samples


@dataclass
class IngestStats:
    """Feed-side counters, accumulated per service instance."""

    ticks: int = 0
    points: int = 0
    halo_copies: int = 0
    clusters: int = 0
    border_merges: int = 0
    closed_convoys: int = 0
    indexed_convoys: int = 0
    duplicates: int = 0  # deduplicated feed batches (client retries)
    checkpoints: int = 0
    recovered_records: int = 0  # WAL records replayed at the last recovery

    def summary(self) -> str:
        return (
            f"ticks {self.ticks}  points {self.points}  "
            f"halo copies {self.halo_copies}  clusters {self.clusters}  "
            f"border merges {self.border_merges}  "
            f"closed {self.closed_convoys}  indexed {self.indexed_convoys}"
        )


class ConvoyIngestService:
    """Spatially sharded online convoy discovery feeding a query index.

    Parameters
    ----------
    query:
        The ``(m, k, eps)`` convoy query the service monitors.
    sharder:
        Spatial router; ``None`` runs a single global shard.
    index:
        Destination for closed convoys; ``None`` creates an in-memory one.
    history:
        Snapshots retained for close-time validation and bounding boxes.
        ``0`` disables both (emissions are then partially connected, like
        CMC/PCCD).
    on_convoy:
        Callback invoked with each convoy after it is indexed.
    workers:
        Thread count for per-shard snapshot clustering; ``0`` (the
        default) clusters shards serially on the caller's thread.  The
        reconcile/monitor steps stay serial either way, so results are
        identical.
    journal:
        Optional :class:`~repro.service.durability.ServiceJournal`; when
        set, accepted batches are WAL-journaled before they apply and the
        open state checkpoints periodically, making the service
        crash-recoverable via :meth:`recover`.
    """

    def __init__(
        self,
        query: ConvoyQuery,
        sharder: Optional[GridSharder] = None,
        index: Optional[ConvoyIndex] = None,
        history: int = 0,
        on_convoy: Optional[Callable[[Convoy], None]] = None,
        workers: int = 0,
        journal: Optional[ServiceJournal] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.query = query
        self.sharder = sharder
        self.index = index if index is not None else ConvoyIndex()
        self.on_convoy = on_convoy
        self.stats = IngestStats()
        self._n_shards = sharder.n_shards if sharder is not None else 1
        self.workers = workers if self._n_shards > 1 else 0
        self._pool = None  # created lazily on the first parallel observe
        self._journal = journal
        self._applied: Dict[str, int] = {}  # per-source sequence watermark
        # With one shard the global chain IS the shard monitor; running a
        # second identical candidate chain would double the work per tick.
        self._shard_monitors = (
            [StreamingConvoyMonitor(query) for _ in range(self._n_shards)]
            if self._n_shards > 1
            else []
        )
        self._chain = StreamingConvoyMonitor(query, history=history)
        METRICS.register_object_collector(self, _collect_ingest)

    # -- feed ----------------------------------------------------------------

    def observe(
        self,
        t: Timestamp,
        oids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
        src: str = "",
        seq: Optional[int] = None,
    ) -> List[Convoy]:
        """Ingest one snapshot; returns the convoys it closed (indexed).

        ``(src, seq)`` identify the batch for journaling and duplicate
        suppression: a batch whose sequence number does not advance its
        source's watermark (a retry of something already applied) is
        acknowledged with ``[]`` and never re-ingested.  Omitting ``seq``
        auto-assigns the source's next number.
        """
        oid_arr = np.asarray(oids, dtype=np.int64)
        xs_arr = np.asarray(xs, dtype=np.float64)
        ys_arr = np.asarray(ys, dtype=np.float64)
        last_applied = self._applied.get(src, 0)
        if seq is None:
            seq = last_applied + 1
        elif seq <= last_applied:
            self.stats.duplicates += 1
            return []
        # Reject bad input *before* journaling it: a record that can
        # never apply must not poison WAL replay after a restart.
        if self._chain.last_time is not None and t <= self._chain.last_time:
            raise ValueError(f"non-monotonic timestamp {t}")
        if not (len(oid_arr) == len(xs_arr) == len(ys_arr)):
            raise ValueError(
                f"oids/xs/ys must align: "
                f"{len(oid_arr)}/{len(xs_arr)}/{len(ys_arr)} rows"
            )
        if self._journal is not None:
            with TRACER.span("ingest.wal", t=int(t)):
                self._journal.log_snapshot(src, seq, t, oid_arr, xs_arr, ys_arr)
        FAULTS.crash_point("service.observe.after-wal")
        closed = self._apply_snapshot(t, oid_arr, xs_arr, ys_arr)
        self._applied[src] = seq
        if self._journal is not None:
            reason = self._journal.should_checkpoint()
            if reason:
                self.checkpoint(trigger=reason)
        return closed

    def finish(self, src: str = "", seq: Optional[int] = None) -> List[Convoy]:
        """End of feed: close every open candidate everywhere."""
        last_applied = self._applied.get(src, 0)
        if seq is None:
            seq = last_applied + 1
        elif seq <= last_applied:
            self.stats.duplicates += 1
            return []
        if self._journal is not None:
            self._journal.log_finish(src, seq)
        closed = self._apply_finish()
        self._applied[src] = seq
        self.index.flush()
        if self._journal is not None:
            self.checkpoint(trigger="final")
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        return closed

    def ingest(self, dataset: Dataset) -> List[Convoy]:
        """Replay a stored dataset through the service (tests/benchmarks).

        Batches carry explicit sequence numbers (the snapshot's ordinal),
        so replaying the same dataset into a recovered service skips the
        already-applied prefix and resumes exactly where the crash left
        off.
        """
        for position, t in enumerate(dataset.timestamps().tolist(), start=1):
            oids, xs, ys = dataset.snapshot(t)
            self.observe(t, oids, xs, ys, seq=position)
        self.finish()
        return self.closed_convoys

    # -- durability -----------------------------------------------------------

    @property
    def journal(self) -> Optional[ServiceJournal]:
        return self._journal

    @property
    def applied_seq(self) -> Dict[str, int]:
        """Per-source applied-sequence watermarks (read-only copy)."""
        return dict(self._applied)

    def checkpoint(self, trigger: str = "manual") -> None:
        """Persist the open state now and truncate the covered WAL.

        No-op without a journal.  The index is flushed first, so every
        convoy closed before the checkpoint is durable in the backend by
        the time the WAL suffix that would re-close it is discarded.
        ``trigger`` records why the checkpoint fired ("count", "bytes",
        "age", "final", "manual") for the ``/stats`` durability block.
        """
        if self._journal is None:
            return
        with TRACER.span("ingest.checkpoint"):
            self.index.flush()
            self.stats.checkpoints += 1
            self._journal.write_checkpoint(
                self._checkpoint_state(), trigger=trigger
            )

    def _checkpoint_state(self) -> CheckpointState:
        sharder_config = None
        if self.sharder is not None:
            sharder_config = ShardConfig(
                nx=self.sharder.nx,
                ny=self.sharder.ny,
                bounds=tuple(float(v) for v in self.sharder.bounds),
                eps=self.sharder.eps,
            )
        return CheckpointState(
            applied=dict(self._applied),
            stats={name: getattr(self.stats, name) for name in STAT_FIELDS},
            sharder=sharder_config,
            index_next_id=self.index.next_id,
            chain=self._chain.state_snapshot(),
            shards=tuple(m.state_snapshot() for m in self._shard_monitors),
        )

    @classmethod
    def recover(
        cls,
        query: ConvoyQuery,
        journal: ServiceJournal,
        index: Optional[ConvoyIndex] = None,
        sharder: Optional[GridSharder] = None,
        history: int = 0,
        on_convoy: Optional[Callable[[Convoy], None]] = None,
        workers: int = 0,
    ) -> "ConvoyIngestService":
        """Rebuild a killed service from its journal and reopened index.

        Loads the newest valid checkpoint (restoring monitors, applied
        watermarks and counters), then replays WAL records past the
        watermarks.  Replayed closures re-index idempotently — the
        index's maximality update drops anything already stored — so a
        SIGKILL between a closure and the next checkpoint never loses or
        duplicates a convoy.
        """
        state = journal.load_checkpoint()
        if sharder is None and state is not None and state.sharder is not None:
            cfg = state.sharder
            sharder = GridSharder(cfg.nx, cfg.ny, cfg.bounds, cfg.eps)
        service = cls(
            query,
            sharder=sharder,
            index=index,
            history=history,
            on_convoy=on_convoy,
            workers=workers,
            journal=journal,
        )
        if state is not None:
            expected_shards = len(service._shard_monitors)
            if len(state.shards) != expected_shards:
                raise ValueError(
                    f"checkpoint has {len(state.shards)} shard monitors but "
                    f"the service topology has {expected_shards}; recover "
                    "with the original shard grid"
                )
            service._applied = dict(state.applied)
            for name in STAT_FIELDS:
                setattr(service.stats, name, state.stats.get(name, 0))
            if service.index.next_id < state.index_next_id:
                logger.warning(
                    "index watermark %d behind checkpoint %d: the backend "
                    "lost flushed rows; continuing (WAL replay re-creates "
                    "post-checkpoint closures only)",
                    service.index.next_id, state.index_next_id,
                )
            chain_state = state.chain
            shard_states = state.shards
        else:
            chain_state = MonitorState(last_time=None, active=(), window=())
            shard_states = tuple(
                MonitorState(last_time=None, active=(), window=())
                for _ in service._shard_monitors
            )
        # The durable index holds every convoy closed so far; seeding the
        # chain's emitted list keeps `closed_convoys` whole across crashes.
        service._chain.restore_state(chain_state, closed=service.index.convoys())
        for monitor, shard_state in zip(service._shard_monitors, shard_states):
            monitor.restore_state(shard_state)
        replayed = 0
        for record in journal.pending_records(service._applied):
            try:
                if record.kind == KIND_FINISH:
                    service._apply_finish()
                else:
                    service._apply_snapshot(
                        record.t, record.oids, record.xs, record.ys
                    )
            except ValueError as error:
                logger.warning(
                    "skipping unreplayable WAL record %s/%d: %s",
                    record.src, record.seq, error,
                )
            service._applied[record.src] = max(
                record.seq, service._applied.get(record.src, 0)
            )
            replayed += 1
        service.stats.recovered_records = replayed
        if replayed:
            logger.info(
                "recovered %d WAL record(s) past the checkpoint in %s",
                replayed, journal.directory,
            )
        return service

    # -- read side -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def last_time(self) -> Optional[Timestamp]:
        return self._chain.last_time

    @property
    def closed_convoys(self) -> List[Convoy]:
        """All convoys closed so far, maximal-filtered."""
        return self._chain.closed_convoys

    def open_candidates(self, shard: Optional[int] = None) -> List[Convoy]:
        """Currently-open candidates: global, or scoped to one shard."""
        if shard is None:
            return self._chain.open_candidates()
        if not self._shard_monitors:  # single shard == the global chain
            if shard != 0:
                raise IndexError(f"no shard {shard} in a 1-shard service")
            return self._chain.open_candidates()
        return self._shard_monitors[shard].open_candidates()

    # -- internals ------------------------------------------------------------

    def _apply_snapshot(
        self,
        t: Timestamp,
        oid_arr: np.ndarray,
        xs_arr: np.ndarray,
        ys_arr: np.ndarray,
    ) -> List[Convoy]:
        """The journal-free ingest step (also the WAL replay entry point)."""
        self.stats.ticks += 1
        self.stats.points += len(oid_arr)

        with _TICK_SECONDS.time():
            fragments: List[Fragment] = []
            if not self._shard_monitors:  # single shard: cluster directly
                with TRACER.span("ingest.cluster", shards=1), \
                        _SHARD_CLUSTER_SECONDS.labels("0").time():
                    fragments = cluster_snapshot_with_cores(
                        oid_arr, xs_arr, ys_arr, self.query.eps, self.query.m
                    )
            else:
                views = list(self.sharder.route(oid_arr, xs_arr, ys_arr))
                with TRACER.span("ingest.cluster", shards=len(views)):
                    per_shard = self._cluster_views(views)
                for monitor, view, pairs in zip(
                    self._shard_monitors, views, per_shard
                ):
                    monitor.observe_clusters(t, [members for members, _ in pairs])
                    self.stats.halo_copies += view.halo_count
                    fragments.extend(pairs)

            with TRACER.span("ingest.reconcile"), _RECONCILE_SECONDS.time():
                clusters, merges = merge_fragments(fragments)
            self.stats.clusters += len(clusters)
            self.stats.border_merges += merges
            with TRACER.span("ingest.chain"), _CHAIN_SECONDS.time():
                closed = self._chain.observe_clusters(
                    t, clusters, snapshot=(oid_arr, xs_arr, ys_arr)
                )
            with TRACER.span("ingest.index", closed=len(closed)):
                self._publish(closed, self._chain.last_bboxes)
            if self.index.retention is not None:
                with TRACER.span("ingest.retention"):
                    self.index.apply_retention(int(t))
        return closed

    def _apply_finish(self) -> List[Convoy]:
        for monitor in self._shard_monitors:
            monitor.finish()
        last = self._chain.last_time
        closed = self._chain.finish()
        self._publish(closed, self._chain.last_bboxes)
        if self.index.retention is not None and last is not None:
            self.index.apply_retention(int(last))
        return closed

    def _cluster_views(self, views) -> List[List[Fragment]]:
        """Cluster every shard view, on worker threads when configured."""

        def one(indexed) -> List[Fragment]:
            shard, view = indexed
            if not len(view.oids):
                return []
            # Timed inside the worker so serial and pooled runs report
            # identically; labeled by shard to expose skewed cells.
            with _SHARD_CLUSTER_SECONDS.labels(str(shard)).time():
                return cluster_snapshot_with_cores(
                    view.oids, view.xs, view.ys, self.query.eps, self.query.m
                )

        if not self.workers:
            return [one(pair) for pair in enumerate(views)]
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=min(self.workers, self._n_shards),
                thread_name_prefix="repro-ingest",
            )
        return list(self._pool.map(one, enumerate(views)))

    def _publish(
        self, convoys: List[Convoy], bboxes: Sequence[Optional[BBox]]
    ) -> None:
        for convoy, bbox in zip(convoys, bboxes):
            self.stats.closed_convoys += 1
            if self.index.add(convoy, bbox=bbox) is not None:
                self.stats.indexed_convoys += 1
            if self.on_convoy is not None:
                self.on_convoy(convoy)
