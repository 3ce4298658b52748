"""``ConvoySession`` — the one front door to batch, streaming and serving.

The library grew three entry points: the batch k/2-hop miner, the
streaming monitors, and the serving layer's ingest/query engines.  The
session facade puts one fluent, validated surface over all three::

    from repro.api import ConvoySession

    result = (
        ConvoySession.from_dataset(dataset)
        .algorithm("k2hop")
        .params(m=3, k=10, eps=50.0)
        .store("lsm", "./idx")
        .mine()
    )

    service = ConvoySession.from_dataset(dataset).params(m=3, k=10, eps=50.0).serve()
    rush_hour = service.query.time_range(20, 35)

    live = ConvoySession.blank().params(m=3, k=10, eps=50.0).feed()
    live.observe(0, oids, xs, ys)

Builder methods return a *new* session (copy-on-write), so a configured
session can be forked per algorithm without aliasing.  Every algorithm's
output is normalised into the shared :class:`~repro.core.types.Convoy` /
:class:`~repro.api.registry.SessionResult` vocabulary.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.params import ConvoyQuery
from ..core.source import TrajectorySource
from ..core.types import Convoy, Timestamp
from ..data.dataset import Dataset
from ..data.io import load_csv
from .config import (
    MiningParams,
    ServeSpec,
    SessionConfig,
    SourceSpec,
    StoreSpec,
)
from .registry import RegisteredMiner, SessionResult, get_miner

#: The algorithm a session mines with when none is chosen explicitly.
DEFAULT_ALGORITHM = "k2hop"


class ConvoyService:
    """Live handle over the serving pipeline, returned by ``feed``/``serve``.

    Wraps a :class:`~repro.service.ingest.ConvoyIngestService` (absent in
    query-only mode) and a lazily created
    :class:`~repro.service.query.ConvoyQueryEngine` over the convoy index.
    """

    def __init__(self, index, params: ConvoyQuery, ingest=None,
                 persisted_to: Optional[str] = None):
        self.index = index
        self.params = params
        self.ingest = ingest
        self.persisted_to = persisted_to
        self._engine = None
        self._analytics = None
        self._analytics_lock = threading.Lock()

    # -- write side (live feeds only) ---------------------------------------

    def observe(
        self,
        t: Timestamp,
        oids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
        src: str = "",
        seq: Optional[int] = None,
    ) -> List[Convoy]:
        """Push one snapshot into the feed; returns convoys it closed.

        ``(src, seq)`` optionally identify the batch for journaling and
        duplicate suppression on a durable feed (see
        :meth:`ConvoyIngestService.observe
        <repro.service.ingest.ConvoyIngestService.observe>`).
        """
        self._require_feed("observe")
        return self.ingest.observe(t, oids, xs, ys, src=src, seq=seq)

    def finish(self) -> List[Convoy]:
        """Close every open candidate (end of feed)."""
        self._require_feed("finish")
        return self.ingest.finish()

    def checkpoint(self) -> None:
        """Persist the open feed state now (durable services only)."""
        self._require_feed("checkpoint")
        self.ingest.checkpoint()

    # -- read side -----------------------------------------------------------

    @property
    def query(self):
        """The (cached) query engine over this service's index."""
        if self._engine is None:
            from ..service.query import ConvoyQueryEngine

            self._engine = ConvoyQueryEngine(self.index, ingest=self.ingest)
        return self._engine

    def analytics(self, region_cell_size: Optional[float] = None):
        """The analytic query layer over this service's index (lazy).

        First call attaches a
        :class:`~repro.analytics.engine.ConvoyAnalytics` to the index —
        summaries bootstrap from the current contents and stay fresh as
        convoys close — so a service that never asks for analytics pays
        nothing.  ``region_cell_size`` fixes the region lattice; it can
        only be chosen on the first call (later calls with a different
        value raise, since the summaries are already quantized).
        """
        with self._analytics_lock:
            if self._analytics is None:
                from ..analytics import ConvoyAnalytics

                self._analytics = ConvoyAnalytics(
                    self.index, region_cell_size=region_cell_size
                )
            elif (
                region_cell_size is not None
                and region_cell_size != self._analytics.region_cell_size
            ):
                raise ValueError(
                    "analytics already attached with region_cell_size="
                    f"{self._analytics.region_cell_size!r}; cannot requantize "
                    f"to {region_cell_size!r}"
                )
            return self._analytics

    @property
    def convoys(self) -> List[Convoy]:
        """Every indexed convoy (the maximal set), deterministically ordered."""
        return self.index.convoys()

    def open_candidates(self, shard: Optional[int] = None) -> List[Convoy]:
        if self.ingest is None:
            return []
        return self.ingest.open_candidates(shard)

    @property
    def stats(self):
        """Ingest-side counters (``None`` in query-only mode)."""
        return self.ingest.stats if self.ingest is not None else None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self.ingest is not None and self.ingest.journal is not None:
            # A clean close leaves a fresh checkpoint and an empty WAL,
            # so the next open resumes instantly with no replay.
            self.ingest.checkpoint()
            self.ingest.journal.close()
        self.index.flush()
        self.index.close()

    def __enter__(self) -> "ConvoyService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_feed(self, what: str) -> None:
        if self.ingest is None:
            raise RuntimeError(
                f"{what}() needs a live feed; this service was opened "
                "query-only (ConvoySession.open)"
            )


class ConvoySession:
    """Fluent facade configuring one mining/serving run.

    Construct with :meth:`from_dataset` / :meth:`from_csv` /
    :meth:`from_source` / :meth:`blank`, chain builder calls, then run one
    of the three modes: :meth:`mine` (batch), :meth:`feed` (streaming),
    :meth:`serve` (replay + query).
    """

    def __init__(
        self,
        source: Optional[TrajectorySource] = None,
        config: Optional[SessionConfig] = None,
    ):
        self._source = source
        self.config = config if config is not None else SessionConfig()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ConvoySession":
        """Session over an in-memory columnar dataset."""
        return cls(dataset)

    @classmethod
    def from_csv(cls, path: str) -> "ConvoySession":
        """Session over a CSV trajectory table ``(oid, t, x, y)``."""
        return cls(load_csv(path))

    @classmethod
    def from_source(cls, source: TrajectorySource) -> "ConvoySession":
        """Session over any object satisfying the trajectory protocol."""
        return cls(source)

    @classmethod
    def blank(cls) -> "ConvoySession":
        """Session with no attached data — for live ``feed()`` mode."""
        return cls(None)

    @classmethod
    def open(cls, index_dir: str) -> ConvoyService:
        """Query-only service over a persisted index directory."""
        from ..service.catalog import open_index

        index, params = open_index(index_dir)
        from ..service.retention import COLD_DIR, ColdSegmentReader

        cold_dir = os.path.join(index_dir, COLD_DIR)
        if os.path.isdir(cold_dir):
            # The index was fed under a retention policy: attach a reader
            # over its cold archive so include_cold= queries keep working
            # in query-only mode (no policy — nothing evicts here).
            index.set_retention(None, cold=ColdSegmentReader(cold_dir))
        return ConvoyService(index, params, ingest=None, persisted_to=index_dir)

    # -- fluent configuration ------------------------------------------------

    def algorithm(self, name: str) -> "ConvoySession":
        """Choose a registered algorithm by name (validates immediately).

        Already-configured extras are re-validated against the new
        algorithm's parameter schema, so an incompatible combination
        fails here rather than at ``mine()`` time.
        """
        miner = get_miner(name)
        session = self._replace(algorithm=name)
        params = self.config.params
        if params is not None and params.extra:
            session = session._replace(
                params=MiningParams.of(
                    params.m, params.k, params.eps,
                    **miner.info.schema.validate(params.extra),
                )
            )
        return session

    def params(self, m: int, k: int, eps: float, **extras: Any) -> "ConvoySession":
        """Set the ``(m, k, eps)`` query plus algorithm-specific extras.

        With an algorithm already chosen, extras are validated and
        coerced through its typed parameter schema immediately;
        otherwise validation happens when the algorithm is picked (or at
        ``mine()`` via the registry).
        """
        if extras and self.config.algorithm is not None:
            schema = get_miner(self.config.algorithm).info.schema
            extras = schema.validate(extras)
        return self._replace(params=MiningParams.of(m, k, eps, **extras))

    def store(self, kind: str, path: Optional[str] = None) -> "ConvoySession":
        """Persist results to an LSM convoy index at ``path`` (``lsm``)."""
        return self._replace(store=StoreSpec(kind, path))

    def read_from(self, kind: str, path: Optional[str] = None) -> "ConvoySession":
        """Mine through a trajectory store (§5: file / rdbms / lsmt).

        The store is (re)built from the session's dataset at ``path`` and
        left on disk afterwards; with no ``path`` it lives in a temporary
        directory for just the one mine.
        """
        return self._replace(source=SourceSpec(kind, path))

    def shards(self, spec: Union[str, Tuple[int, int]]) -> "ConvoySession":
        """Spatial shard grid for the serving pipeline, e.g. ``"2x2"``."""
        nx, ny = ServeSpec.parse_shards(spec)
        return self._replace(
            serve=dataclasses.replace(self.config.serve, nx=nx, ny=ny)
        )

    def history(self, window: Union[str, int]) -> "ConvoySession":
        """Validation window: ``"full"``, or a snapshot count (0 disables)."""
        return self._replace(
            serve=dataclasses.replace(self.config.serve, history=window)
        )

    def workers(self, count: int) -> "ConvoySession":
        """Thread count for per-shard clustering in ``feed()``/``serve()``.

        ``0`` (the default) keeps shard clustering serial.
        """
        return self._replace(
            serve=dataclasses.replace(self.config.serve, workers=count)
        )

    def durable(self, checkpoint_every: int = 64) -> "ConvoySession":
        """Make ``feed()``/``serve()`` crash-recoverable.

        Journals every fed batch into a WAL inside the persistent store
        directory and checkpoints the open streaming state every
        ``checkpoint_every`` batches.  When the directory already holds
        durable state (the previous process was killed), ``feed()``
        recovers it and resumes mid-feed instead of starting over.
        Requires a persistent ``.store(...)``.
        """
        return self._replace(
            serve=dataclasses.replace(
                self.config.serve,
                durable=True,
                checkpoint_every=checkpoint_every,
            )
        )

    def retain(
        self,
        window: Optional[int] = None,
        max_rows: Optional[int] = None,
    ) -> "ConvoySession":
        """Bound the live index for continuous operation.

        ``window`` evicts closed convoys ending more than that many ticks
        behind the feed frontier; ``max_rows`` caps the live row count,
        evicting oldest-ending first.  At least one must be given.  With a
        persistent ``.store(...)``, evicted convoys are archived into cold
        flatfile segments under the store directory and stay reachable
        through ``include_cold=True`` queries; on a memory store they are
        simply dropped.
        """
        if window is None and max_rows is None:
            raise ValueError("retain() needs a window and/or max_rows")
        return self._replace(
            serve=dataclasses.replace(
                self.config.serve,
                retain_window=window,
                retain_max_rows=max_rows,
            )
        )

    # -- the three run modes -------------------------------------------------

    def mine(self) -> SessionResult:
        """Batch-mine the attached data with the configured algorithm."""
        miner = self._miner()
        params = self._params_or_raise("mine")
        dataset = self._dataset()
        if self._source is None:
            raise ValueError("mine() needs data; use from_dataset/from_csv")
        if miner.info.needs_dataset and dataset is None:
            raise ValueError(
                f"algorithm {miner.info.name!r} needs an in-memory Dataset "
                "(from_dataset/from_csv), not a bare trajectory source"
            )
        spec = self.config.source
        if spec.kind == "memory":
            result = miner.mine(self._source, params.query, **params.extra)
        else:
            if dataset is None:
                raise ValueError(
                    f"read_from({spec.kind!r}) needs an in-memory Dataset "
                    "to load the store from"
                )
            if miner.info.needs_dataset:
                raise ValueError(
                    f"algorithm {miner.info.name!r} reads whole trajectories "
                    "and cannot mine through an on-disk store"
                )
            result = self._mine_through_store(miner, params, dataset, spec)
        if self.config.store.persistent:
            self._persist(result.convoys, params.query, dataset)
        return result

    def feed(
        self, on_convoy: Optional[Callable[[Convoy], None]] = None
    ) -> ConvoyService:
        """Open a live snapshot feed (streaming mode); returns the handle.

        ``on_convoy`` is invoked with each convoy right after it closes
        and is indexed, so servers and tests can observe completions
        without polling the result.
        """
        from ..service.ingest import ConvoyIngestService
        from ..service.sharding import GridSharder

        self._check_streaming_algorithm()
        params = self._params_or_raise("feed")
        if params.extra:
            # mine() validates extras against the chosen algorithm; the
            # feed pipeline takes none, so dropping them silently would
            # turn a typo (e.g. history passed as a param) into wrong
            # results. Refuse loudly instead.
            raise ValueError(
                f"feed()/serve() does not take algorithm extras "
                f"{sorted(params.extra)}; configure the pipeline with "
                ".shards()/.history() instead"
            )
        dataset = self._dataset()
        serve = self.config.serve
        sharder = None
        if (serve.nx, serve.ny) != (1, 1):
            if dataset is None:
                raise ValueError(
                    f"a {serve.nx}x{serve.ny} shard grid needs dataset bounds; "
                    "attach data or use 1x1 shards for a blank feed"
                )
            sharder = GridSharder.for_dataset(
                dataset, params.eps, serve.nx, serve.ny
            )
        duration = None
        if dataset is not None:
            info = dataset.info()
            duration = info.duration
        index, persisted_to = self._open_index(params.query)
        if serve.retain_window is not None or serve.retain_max_rows is not None:
            from ..service.retention import (
                COLD_DIR,
                ColdSegmentStore,
                RetentionPolicy,
            )

            cold = (
                ColdSegmentStore(os.path.join(persisted_to, COLD_DIR))
                if persisted_to is not None
                else None
            )
            index.set_retention(
                RetentionPolicy(
                    window=serve.retain_window,
                    max_rows=serve.retain_max_rows,
                ),
                cold=cold,
            )
        history = serve.resolve_history(duration)
        if serve.durable:
            from ..service.durability import ServiceJournal, has_durable_state

            if not self.config.store.persistent:
                raise ValueError(
                    "durable() needs a persistent result store; add e.g. "
                    ".store('lsm', path)"
                )
            resuming = has_durable_state(self.config.store.path)
            journal = ServiceJournal(
                self.config.store.path,
                checkpoint_every=serve.checkpoint_every,
            )
            if resuming:
                # The previous process died (or stopped) mid-feed; rebuild
                # its exact state from the checkpoint + WAL suffix.  A
                # blank session recovers the shard grid from the
                # checkpoint; a grid that no longer matches raises.
                service = ConvoyIngestService.recover(
                    params.query,
                    journal,
                    index=index,
                    sharder=sharder,
                    history=history,
                    workers=serve.workers,
                    on_convoy=on_convoy,
                )
            else:
                service = ConvoyIngestService(
                    params.query,
                    sharder=sharder,
                    index=index,
                    history=history,
                    workers=serve.workers,
                    on_convoy=on_convoy,
                    journal=journal,
                )
        else:
            service = ConvoyIngestService(
                params.query,
                sharder=sharder,
                index=index,
                history=history,
                workers=serve.workers,
                on_convoy=on_convoy,
            )
        return ConvoyService(
            index, params.query, ingest=service, persisted_to=persisted_to
        )

    def serve(
        self, on_convoy: Optional[Callable[[Convoy], None]] = None
    ) -> ConvoyService:
        """Replay the attached dataset through the feed, then return the
        (finished, queryable) service handle."""
        dataset = self._dataset()
        if dataset is None:
            raise ValueError("serve() needs a dataset; use feed() for live data")
        handle = self.feed(on_convoy=on_convoy)
        handle.ingest.ingest(dataset)
        return handle

    # -- introspection -------------------------------------------------------

    def describe(self) -> dict:
        """The resolved configuration as a plain dict (CLI/debug aid)."""
        cfg = self.config
        return {
            "algorithm": cfg.algorithm or DEFAULT_ALGORITHM,
            "params": None if cfg.params is None else {
                "m": cfg.params.m, "k": cfg.params.k, "eps": cfg.params.eps,
                **cfg.params.extra,
            },
            "source": dataclasses.asdict(cfg.source),
            "store": dataclasses.asdict(cfg.store),
            "serve": dataclasses.asdict(cfg.serve),
            "has_data": self._source is not None,
        }

    # -- internals -----------------------------------------------------------

    def _replace(self, **changes: Any) -> "ConvoySession":
        return ConvoySession(
            self._source, dataclasses.replace(self.config, **changes)
        )

    def _miner(self) -> RegisteredMiner:
        return get_miner(self.config.algorithm or DEFAULT_ALGORITHM)

    def _params_or_raise(self, mode: str) -> MiningParams:
        if self.config.params is None:
            raise ValueError(f"{mode}() needs params(m=..., k=..., eps=...)")
        return self.config.params

    def _dataset(self) -> Optional[Dataset]:
        return self._source if isinstance(self._source, Dataset) else None

    def _check_streaming_algorithm(self) -> None:
        name = self.config.algorithm
        if name is None:
            return  # feed always runs the streaming pipeline
        info = get_miner(name).info
        if not info.supports_streaming:
            raise ValueError(
                f"algorithm {name!r} cannot consume a live feed "
                "(supports_streaming=False); drop .algorithm() or pick a "
                "streaming-capable one"
            )

    def _mine_through_store(
        self,
        miner: RegisteredMiner,
        params: MiningParams,
        dataset: Dataset,
        spec: SourceSpec,
    ) -> SessionResult:
        import contextlib

        from .. import storage

        with contextlib.ExitStack() as stack:
            # A caller-supplied path keeps the built store files on disk
            # (for inspection/reuse); without one the store lives in a
            # temporary directory for just this mine.
            base = spec.path or stack.enter_context(tempfile.TemporaryDirectory())
            if spec.kind == "file":
                store = storage.FlatFileStore.create(f"{base}/data.bin", dataset)
            elif spec.kind == "rdbms":
                store = storage.RelationalStore.create(f"{base}/data.db", dataset)
            else:
                store = storage.LSMTStore.create(f"{base}/lsm", dataset)
            stack.callback(store.close)
            result = miner.mine(store, params.query, **params.extra)
            if hasattr(store, "stats"):
                result.source_io = store.stats.summary()
        return result

    def _open_index(self, query: ConvoyQuery):
        from ..service.catalog import create_index
        from ..service.index import ConvoyIndex

        store = self.config.store
        if store.persistent:
            return create_index(store.path, store.kind, query), store.path
        return ConvoyIndex(), None

    def _persist(
        self,
        convoys: Sequence[Convoy],
        query: ConvoyQuery,
        dataset: Optional[Dataset],
    ) -> None:
        """Write a batch result into a persistent convoy index."""
        bboxes = _BBoxComputer(dataset)
        index, _ = self._open_index(query)
        try:
            for convoy in convoys:
                index.add(convoy, bbox=bboxes.of(convoy))
            index.flush()
        finally:
            index.close()


class _BBoxComputer:
    """Per-convoy member bounding boxes over one dataset.

    Rows are grouped by object id once up front, so each convoy touches
    only its members' points instead of re-scanning the whole dataset
    (which would make persisting r convoys O(r * n_points)).
    """

    def __init__(self, dataset: Optional[Dataset]):
        self._dataset = dataset
        if dataset is None or not len(dataset.oids):
            self._uniq = None
            return
        order = np.argsort(dataset.oids, kind="stable")
        self._ts = dataset.ts[order]
        self._xs = dataset.xs[order]
        self._ys = dataset.ys[order]
        self._uniq, counts = np.unique(dataset.oids[order], return_counts=True)
        self._ends = np.cumsum(counts)
        self._starts = self._ends - counts

    def of(self, convoy: Convoy):
        """Bounding box of the members over the lifespan (or ``None``)."""
        if self._uniq is None:
            return None
        slots = np.searchsorted(
            self._uniq, np.fromiter(convoy.objects, dtype=np.int64)
        )
        slots = slots[slots < len(self._uniq)]
        rows = np.concatenate(
            [
                np.arange(self._starts[s], self._ends[s])
                for s in slots
                if self._uniq[s] in convoy.objects
            ]
            or [np.empty(0, dtype=np.int64)]
        )
        ts = self._ts[rows]
        rows = rows[(ts >= convoy.start) & (ts <= convoy.end)]
        if not len(rows):
            return None
        return (
            float(self._xs[rows].min()),
            float(self._ys[rows].min()),
            float(self._xs[rows].max()),
            float(self._ys[rows].max()),
        )
