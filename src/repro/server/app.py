"""The asyncio HTTP serving front over a :class:`ConvoyService`.

One :class:`ConvoyServer` exposes a live (or finished) convoy service to
the network:

========  =================  ==================================================
method    path               meaning
========  =================  ==================================================
GET       /healthz           liveness + index summary
GET       /stats             ingest / cache / request counters
GET       /algorithms        the registry with typed parameter schemas
GET       /convoys           all stored convoys (the maximal set)
GET       /convoys?...       one of the five query families (below)
POST      /feed              ingest one snapshot ``{t, oids, xs, ys}``
POST      /feed/finish       close every open candidate (end of feed)
POST      /mine              batch-mine the fed points with any algorithm
GET       /analytics/...     the summary-backed analytic queries (below)
========  =================  ==================================================

``GET /analytics/*`` routes (query params validated through the typed
schemas in :mod:`repro.analytics.params`; violations answer 400 with the
same ``SchemaError`` envelope as ``POST /mine``):

* ``/analytics/windows?width=W[&step=S&origin=O&start=A&end=B]`` —
  tumbling/sliding window aggregates over convoy end-times,
* ``/analytics/topk?k=K[&by=duration|size&group=none|region&width=W...]``
  — ranked convoys, optionally per window and/or region cell,
* ``/analytics/regions`` / ``/analytics/objects`` — group-by rankings,
* ``/analytics/cotravel[?object=oid|components=true&min_weight=T]`` —
  co-travel pairs, one object's neighbors, or travel communities,
* ``/analytics/lineage?convoy=CID[&min_common=N&depth=D]`` —
  merge/split stage lineage of one stored convoy.

``GET /convoys`` selectors (exactly one):

* ``between=t1:t2`` — lifespan overlaps the interval,
* ``object=oid`` — convoy history of one object,
* ``containing=o1,o2,...`` — convoys containing *all* the objects,
* ``region=xmin,ymin,xmax,ymax`` — bounding-box overlap,
* ``open=1[&shard=i]`` — still-open candidates of the live ingest.

**Concurrency model.**  Reads run concurrently on the event loop's
thread pool, answered from the version-keyed
:class:`~repro.service.query.ConvoyQueryEngine` cache.  Writes
(``/feed``, ``/feed/finish``) are serialised through a single-writer
queue drained by one consumer task, so the ingest pipeline — which is
single-writer by construction — never sees interleaved snapshots, while
readers keep streaming results off the immutable published state.

**Graceful degradation.**  The writer queue is *bounded*: when ingest
falls behind the feed, new writes answer ``503 Service Unavailable``
with a ``Retry-After`` header instead of queueing without limit (the
resilient :class:`~repro.server.client.ConvoyClient` backs off and
retries; its per-batch sequence numbers make the retry idempotent).
Every request runs under a timeout answering ``504`` rather than
stalling the connection forever.  Shutdown is graceful: the listener
closes, queued writes drain, and — when the service journals — a final
checkpoint persists the open state so a restart resumes exactly where
the process left off.
"""

from __future__ import annotations

import asyncio
import contextvars
import queue
import signal
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

# Submodule imports only (``..api.registry``, not ``..api``): repro.api
# imports this package for ConvoyClient, so pulling the api *package*
# here would cycle.
from ..analytics.params import (
    COTRAVEL_SCHEMA,
    LINEAGE_SCHEMA,
    OBJECTS_SCHEMA,
    REGIONS_SCHEMA,
    TOPK_SCHEMA,
    WINDOWS_SCHEMA,
    require,
    validated,
)
from ..api.registry import get_miner, list_miners
from ..api.schema import ParamSchema, SchemaError
from ..core.params import ConvoyQuery
from ..data.dataset import Dataset
from ..obs import METRICS, TRACE_HEADER, TRACER, new_trace_id, rss_bytes
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RawResponse,
    Request,
    convoys_to_wire,
    error_payload,
    read_request,
    response_bytes,
)

_REQUEST_SECONDS = METRICS.histogram(
    "repro_server_request_seconds",
    "HTTP request latency per route (dispatch to response-ready).",
    ["route"],
)
# The request counters behind ``GET /stats``.  They are process-wide:
# every deployment path runs one server per process.
_REQUESTS = METRICS.counter(
    "repro_server_requests_total", "HTTP requests dispatched per route.",
    ["route"],
)
_ERRORS = METRICS.counter(
    "repro_server_errors_total", "HTTP responses with status >= 400."
)
_READS = METRICS.counter(
    "repro_server_reads_total", "Convoy and analytics queries."
)
_WRITES = METRICS.counter(
    "repro_server_writes_total", "Feed and finish requests."
)
_MINES = METRICS.counter("repro_server_mines_total", "Batch-mine requests.")
_REJECTED = METRICS.counter(
    "repro_server_rejected_total",
    "Writes answered 503: full writer queue or a draining stop.",
)
_TIMEOUTS = METRICS.counter(
    "repro_server_timeouts_total", "Requests answered 504 at the deadline."
)
_SHED = METRICS.counter(
    "repro_server_shed_total", "Expensive reads shed (503) while degraded."
)


#: Health states in escalation order; the gauge exports the position.
HEALTH_STATES = ("healthy", "degraded", "draining")


def _collect_server(server: "ConvoyServer"):
    return [
        ("repro_server_pending_writes", "gauge",
         "Mutations waiting in the single-writer queue.", (),
         float(server._write_queue.qsize())),
        ("repro_health_state", "gauge",
         "Serving health: 0 healthy, 1 degraded, 2 draining.", (),
         float(HEALTH_STATES.index(server.health_state()))),
        ("repro_health_transitions_total", "counter",
         "Health-state changes observed since the server started.", (),
         float(server._health_transitions)),
    ]


class _Overloaded(Exception):
    """Raised to answer 503 + ``Retry-After``: full writer queue, a
    draining shutdown, or degraded-mode load shedding."""

    def __init__(
        self,
        retry_after: float = 1.0,
        message: str = "write queue is full; retry later",
    ):
        super().__init__(message)
        self.retry_after = retry_after


class _PointLog:
    """Append-only log of every snapshot the server has seen.

    ``POST /mine`` batch-mines over this log, so the same server answers
    both "what closed?" (the index) and "re-mine everything with VCoDA*"
    (the log).  Appends come only from the single writer; readers take a
    ``tuple()`` snapshot of the list, which is safe against concurrent
    appends.
    """

    def __init__(self, dataset: Optional[Dataset] = None):
        self._snapshots = []
        if dataset is not None and len(dataset):
            for t in dataset.timestamps().tolist():
                oids, xs, ys = dataset.snapshot(t)
                self._snapshots.append((int(t), oids, xs, ys))

    def append(self, t: int, oids, xs, ys) -> None:
        self._snapshots.append((t, oids, xs, ys))

    @property
    def num_snapshots(self) -> int:
        return len(self._snapshots)

    def dataset(self) -> Dataset:
        snaps = tuple(self._snapshots)
        if not snaps:
            return Dataset.empty()
        return Dataset(
            np.concatenate([oids for _, oids, _, _ in snaps]),
            np.concatenate(
                [np.full(len(oids), t, dtype=np.int64) for t, oids, _, _ in snaps]
            ),
            np.concatenate([xs for _, _, xs, _ in snaps]),
            np.concatenate([ys for _, _, _, ys in snaps]),
        )


class ConvoyServer:
    """HTTP front over one convoy service handle.

    Parameters
    ----------
    service:
        A :class:`~repro.api.session.ConvoyService` — live (``feed()``)
        or finished (``serve()``) or query-only (``open``).  Feeds on a
        query-only handle answer 400.
    dataset:
        Points already replayed into ``service`` before the server
        started (the CLI's ``serve --http`` path); seeds the point log
        so ``POST /mine`` covers them.
    max_pending_writes:
        Bound on the writer queue; writes beyond it answer 503 with a
        ``Retry-After`` header instead of growing the backlog without
        limit.
    request_timeout:
        Per-request deadline in seconds; a handler that exceeds it
        answers 504 (``None`` disables the deadline).
    degrade_pending_ratio:
        Writer-queue fill fraction at which the server turns *degraded*
        and starts shedding expensive read families (analytics, region
        scans) with 503 + ``Retry-After`` — protecting the write path
        before the queue itself overflows.
    degrade_backlog:
        Retention backlog (rows eligible for eviction but still live)
        at which the server degrades.
    degrade_rss_bytes:
        Resident-memory watermark in bytes; ``None`` (default) leaves
        memory out of the health calculation.
    """

    def __init__(
        self,
        service,
        dataset: Optional[Dataset] = None,
        *,
        max_pending_writes: int = 256,
        request_timeout: Optional[float] = 30.0,
        degrade_pending_ratio: float = 0.8,
        degrade_backlog: int = 4096,
        degrade_rss_bytes: Optional[int] = None,
    ):
        if max_pending_writes < 1:
            raise ValueError(
                f"max_pending_writes must be >= 1, got {max_pending_writes}"
            )
        if not 0.0 < degrade_pending_ratio <= 1.0:
            raise ValueError(
                f"degrade_pending_ratio must be in (0, 1], "
                f"got {degrade_pending_ratio}"
            )
        self.service = service
        self._started_at = time.time()
        self.request_timeout = request_timeout
        self.max_pending_writes = max_pending_writes
        self.degrade_pending_ratio = degrade_pending_ratio
        self.degrade_backlog = degrade_backlog
        self.degrade_rss_bytes = degrade_rss_bytes
        self._health = "healthy"
        self._health_transitions = 0
        self._points = _PointLog(dataset)
        self._write_queue: "asyncio.Queue[Tuple[Callable[[], Any], asyncio.Future]]" = (
            asyncio.Queue(maxsize=max_pending_writes)
        )
        self._writer_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = False
        METRICS.register_object_collector(self, _collect_server)

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop()
        )
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain: bool = True) -> None:
        """Shut down gracefully: stop listening, drain, checkpoint.

        ``drain=True`` (the default) applies every already-accepted write
        before stopping the writer, then — when the underlying service
        journals — writes a final checkpoint so a restart resumes without
        replaying any WAL suffix.  New writes submitted during the drain
        answer 503.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._writer_task is not None:
            if drain:
                await self._write_queue.join()
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        # Close lingering keep-alive connections so their handler tasks
        # finish on a clean EOF; leaving them to be cancelled at loop
        # teardown trips a noisy asyncio.streams callback on CPython 3.11.
        for conn_writer in list(self._conn_writers):
            conn_writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if drain:
            await self._final_checkpoint()

    async def _final_checkpoint(self) -> None:
        ingest = getattr(self.service, "ingest", None)
        if ingest is None or getattr(ingest, "journal", None) is None:
            return
        # lint: disable=single-writer — graceful stop only: the writer queue has drained and stopped, so there is no writer to race
        await asyncio.get_running_loop().run_in_executor(None, ingest.checkpoint)

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    _ERRORS.inc()
                    writer.write(
                        response_bytes(
                            error.status,
                            error_payload(error.status, str(error),
                                          type_name="ProtocolError"),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload, extra_headers = await self._dispatch(request)
                if status >= 400:
                    _ERRORS.inc()
                writer.write(
                    response_bytes(
                        status, payload,
                        keep_alive=request.keep_alive,
                        extra_headers=extra_headers,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_writers.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: Request
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        route = f"{request.method} {request.path}"
        handler = _ROUTES.get((request.method, request.path))
        # Metric label cardinality stays bounded: arbitrary paths all
        # report as "unmatched".
        metric_route = route if handler is not None else "unmatched"
        _REQUESTS.labels(metric_route).inc()
        trace_id = request.headers.get(TRACE_HEADER.lower()) or new_trace_id()
        started = time.perf_counter()
        with TRACER.trace(route, trace_id=trace_id):
            status, payload, extra = await self._dispatch_inner(
                request, handler, trace_id
            )
        if _REQUEST_SECONDS.enabled:
            _REQUEST_SECONDS.labels(metric_route).observe(
                time.perf_counter() - started
            )
        # Echo the trace id on every response so client retries correlate.
        extra = dict(extra) if extra else {}
        extra.setdefault(TRACE_HEADER, trace_id)
        return status, payload, extra

    async def _dispatch_inner(
        self, request: Request, handler: Optional[Callable], trace_id: str
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        try:
            if handler is None:
                if any(path == request.path for _, path in _ROUTES):
                    return 405, error_payload(
                        405, f"{request.method} not allowed on {request.path}"
                    ), None
                return 404, error_payload(404, f"no route {request.path}"), None
            invocation = handler(self, request)
            if self.request_timeout is not None:
                status, payload = await asyncio.wait_for(
                    invocation, self.request_timeout
                )
            else:
                status, payload = await invocation
            return status, payload, None
        except _Overloaded as error:
            return 503, error_payload(
                503, str(error), type_name="Overloaded",
                retry_after=error.retry_after, trace_id=trace_id,
            ), {"Retry-After": f"{error.retry_after:g}"}
        except asyncio.TimeoutError:
            _TIMEOUTS.inc()
            return 504, error_payload(
                504,
                f"request exceeded the {self.request_timeout:g}s deadline",
                type_name="Timeout", trace_id=trace_id,
            ), None
        except ProtocolError as error:
            return error.status, error_payload(
                error.status, str(error), type_name="ProtocolError"
            ), None
        except SchemaError as error:
            return 400, error_payload(
                400, str(error), type_name="SchemaError",
                param=error.param, algorithm=error.algorithm,
            ), None
        except (ValueError, KeyError, TypeError) as error:
            return 400, error_payload(
                400, str(error), type_name=type(error).__name__
            ), None
        except Exception as error:  # noqa: BLE001 — the server must not die
            return 500, error_payload(
                500, f"{type(error).__name__}: {error}",
                type_name=type(error).__name__,
            ), None

    # -- write path (single-writer queue) -------------------------------------

    async def _submit_write(self, job: Callable[[], Any]) -> Any:
        """Enqueue a mutation; resolves once the single writer applied it.

        The queue is bounded: a full queue (ingest is behind) or a
        draining shutdown rejects the write with :class:`_Overloaded`,
        which the dispatcher answers as 503 + ``Retry-After`` — the
        client's cue to back off and retry the identical (idempotent)
        batch.
        """
        if self._stopping:
            _REJECTED.inc()
            raise _Overloaded()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # run_in_executor does not propagate contextvars; carry the
        # request's trace context into the writer thread explicitly so
        # ingest spans land in the right trace.
        context = contextvars.copy_context()
        try:
            self._write_queue.put_nowait((lambda: context.run(job), future))
        except asyncio.QueueFull:
            _REJECTED.inc()
            raise _Overloaded() from None
        return await future

    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job, future = await self._write_queue.get()
            try:
                result = await loop.run_in_executor(None, job)
            except Exception as error:  # noqa: BLE001 — relay to the caller
                if not future.cancelled():
                    future.set_exception(error)
            else:
                if not future.cancelled():
                    future.set_result(result)
            finally:
                self._write_queue.task_done()

    async def _in_reader(self, fn: Callable[[], Any]) -> Any:
        """Run a read off the event loop so slow queries don't stall it."""
        context = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: context.run(fn)
        )

    # -- health states ---------------------------------------------------------

    def health_state(self) -> str:
        """Recompute and return the serving health state.

        ``draining`` while a graceful stop is in flight; ``degraded``
        when the writer queue, the retention backlog or (when a
        watermark is set) resident memory crosses its threshold;
        ``healthy`` otherwise.  Transitions are counted for the
        ``repro_health_transitions_total`` metric.
        """
        state = "healthy"
        if self._stopping:
            state = "draining"
        elif self._health_pressures():
            state = "degraded"
        if state != self._health:
            self._health_transitions += 1
            self._health = state
        return state

    def _health_pressures(self) -> Dict[str, float]:
        """Which degradation thresholds are currently exceeded, and by what."""
        pressures: Dict[str, float] = {}
        pending = self._write_queue.qsize()
        if pending >= self.max_pending_writes * self.degrade_pending_ratio:
            pressures["pending_writes"] = float(pending)
        backlog = self._retention_backlog()
        if backlog > self.degrade_backlog:
            pressures["retention_backlog"] = float(backlog)
        if self.degrade_rss_bytes is not None:
            rss = rss_bytes()
            if rss > self.degrade_rss_bytes:
                pressures["rss_bytes"] = float(rss)
        return pressures

    def _retention_backlog(self) -> int:
        backlog = getattr(self.service.index, "retention_backlog", None)
        return backlog() if backlog is not None else 0

    def _shed_if_degraded(self) -> None:
        """Reject an expensive read while the server is under pressure.

        Only the costly families call this (analytics, region scans):
        cheap point/time reads and — crucially — the write path keep
        working through a degraded phase, so ingest catches up instead
        of being starved behind heavy queries.
        """
        if self.health_state() == "degraded":
            _SHED.inc()
            raise _Overloaded(
                retry_after=2.0,
                message="server degraded; expensive queries are shed, "
                        "retry later",
            )

    # -- handlers --------------------------------------------------------------

    async def _get_healthz(self, request: Request) -> Tuple[int, Any]:
        index = self.service.index
        health = self.health_state()
        return 200, {
            "status": "ok" if health == "healthy" else health,
            "health": health,
            "pressures": self._health_pressures(),
            "pending_writes": self._write_queue.qsize(),
            "retention_backlog": self._retention_backlog(),
            "protocol": PROTOCOL_VERSION,
            "convoys": len(index),
            "index_version": index.version,
            "live_feed": self.service.ingest is not None,
            "snapshots_fed": self._points.num_snapshots,
            "uptime_seconds": time.time() - self._started_at,
        }

    async def _get_stats(self, request: Request) -> Tuple[int, Any]:
        engine = self.service.query
        ingest = self.service.stats
        # Registry counters hold floats; the wire keeps JSON integers.
        by_route = {
            dict(labels)["route"]: int(value)
            for _, _, _, labels, value in _REQUESTS.samples()
        }
        return 200, {
            "requests": sum(by_route.values()),
            "errors": int(_ERRORS.value),
            "reads": int(_READS.value),
            "writes": int(_WRITES.value),
            "mines": int(_MINES.value),
            "rejected": int(_REJECTED.value),
            "timeouts": int(_TIMEOUTS.value),
            "shed": int(_SHED.value),
            "health": self.health_state(),
            "health_transitions": self._health_transitions,
            "pending_writes": self._write_queue.qsize(),
            "by_route": by_route,
            "cache": {
                "hits": engine.cache_stats.hits,
                "misses": engine.cache_stats.misses,
                "evictions": engine.cache_stats.evictions,
                "hit_rate": engine.cache_stats.hit_rate,
            },
            "index": {
                "convoys": len(self.service.index),
                "version": self.service.index.version,
                "evicted": getattr(self.service.index, "evicted_total", 0),
                "retention_backlog": self._retention_backlog(),
            },
            "ingest": None if ingest is None else {
                "ticks": ingest.ticks,
                "points": ingest.points,
                "clusters": ingest.clusters,
                "border_merges": ingest.border_merges,
                "closed_convoys": ingest.closed_convoys,
                "indexed_convoys": ingest.indexed_convoys,
                "duplicates": ingest.duplicates,
            },
            "durability": self._durability_stats(),
            "metrics": METRICS.snapshot(),
            "traces": {
                "slow_threshold_ms": TRACER.slow_threshold_ms,
                "recent": TRACER.recent(10),
                "slow": TRACER.slow(10),
            },
        }

    async def _get_metrics(self, request: Request) -> Tuple[int, Any]:
        text = await self._in_reader(METRICS.render_prometheus)
        return 200, RawResponse(
            text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        )

    def _durability_stats(self) -> Optional[Dict[str, Any]]:
        ingest_service = self.service.ingest
        if ingest_service is None or ingest_service.journal is None:
            return None
        journal = ingest_service.journal
        return {
            "checkpoints": ingest_service.stats.checkpoints,
            "recovered_records": ingest_service.stats.recovered_records,
            "applied_seq": ingest_service.applied_seq,
            "last_checkpoint_trigger": journal.last_checkpoint_trigger,
            "wal_bytes": journal.wal.bytes_total(),
            "wal_budget_bytes": journal.wal_budget_bytes,
            "records_since_checkpoint": journal.records_since_checkpoint,
        }

    async def _get_algorithms(self, request: Request) -> Tuple[int, Any]:
        return 200, {
            "algorithms": [
                {
                    "name": info.name,
                    "summary": info.summary,
                    "pattern_kind": info.pattern_kind,
                    "exact": info.exact,
                    "supports_streaming": info.supports_streaming,
                    "params": info.schema.describe(),
                }
                for info in list_miners()
            ]
        }

    # lint: disable=route-validation — predates the PR 4 schema layer; its typed _parse_* helpers answer 400 with the same envelope
    async def _get_convoys(self, request: Request) -> Tuple[int, Any]:
        _READS.inc()
        engine = self.service.query
        selectors = [
            key for key in ("between", "object", "containing", "region", "open")
            if key in request.query
        ]
        if len(selectors) > 1:
            raise ProtocolError(
                400, f"pick one selector, got {selectors}"
            )
        if not selectors:
            fn = self.service.index.convoys
        else:
            selector = selectors[0]
            raw = request.query[selector]
            if selector == "between":
                start, end = _parse_interval(raw)
                fn = lambda: engine.time_range(start, end)  # noqa: E731
            elif selector == "object":
                oid = _parse_int(raw, "object")
                fn = lambda: engine.object_history(oid)  # noqa: E731
            elif selector == "containing":
                oids = _parse_int_list(raw, "containing")
                fn = lambda: engine.containing(oids)  # noqa: E731
            elif selector == "region":
                self._shed_if_degraded()
                rect = _parse_region(raw)
                fn = lambda: engine.region(rect)  # noqa: E731
            else:  # open
                shard = (
                    _parse_int(request.query["shard"], "shard")
                    if "shard" in request.query else None
                )
                fn = lambda: engine.open_candidates(shard)  # noqa: E731
        selector = selectors[0] if selectors else "all"

        def run_query():
            # Runs on a reader thread with the request context copied in,
            # so the span lands in this request's trace.
            with TRACER.span("query." + selector):
                return fn()

        try:
            convoys = await self._in_reader(run_query)
        except ValueError as error:
            raise ProtocolError(400, str(error)) from None
        return 200, convoys_to_wire(convoys)

    async def _post_feed(self, request: Request) -> Tuple[int, Any]:
        if self.service.ingest is None:
            raise ProtocolError(
                400, "this server is query-only (opened over a persisted "
                "index); /feed needs a live service"
            )
        _WRITES.inc()
        body = request.json()
        t, oids, xs, ys = _parse_snapshot(body)
        src, seq = _parse_feed_identity(body)
        ingest = self.service.ingest

        def job():
            duplicates_before = ingest.stats.duplicates
            closed = ingest.observe(t, oids, xs, ys, src=src, seq=seq)
            duplicate = ingest.stats.duplicates != duplicates_before
            if not duplicate:
                self._points.append(t, oids, xs, ys)
            return closed, duplicate

        closed, duplicate = await self._submit_write(job)
        return 200, {
            "t": t,
            "ingested": int(len(oids)),
            "duplicate": duplicate,
            **convoys_to_wire(closed),
        }

    async def _post_finish(self, request: Request) -> Tuple[int, Any]:
        if self.service.ingest is None:
            raise ProtocolError(400, "this server is query-only; nothing to finish")
        _WRITES.inc()
        src, seq = _parse_feed_identity(request.json())
        ingest = self.service.ingest
        closed = await self._submit_write(
            lambda: ingest.finish(src=src, seq=seq)
        )
        return 200, convoys_to_wire(closed)

    async def _post_mine(self, request: Request) -> Tuple[int, Any]:
        _MINES.inc()
        body = request.json()
        if not isinstance(body, dict):
            raise ProtocolError(400, "mine body must be a JSON object")
        algorithm = body.get("algorithm", "k2hop")
        miner = get_miner(str(algorithm))
        try:
            query = ConvoyQuery(
                m=int(body["m"]), k=int(body["k"]), eps=float(body["eps"])
            )
        except KeyError as missing:
            raise ProtocolError(
                400, f"mine body needs m, k and eps (missing {missing})"
            ) from None
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(400, "params must be a JSON object")
        extras = miner.info.schema.validate(params)  # SchemaError -> 400

        def job():
            dataset = self._points.dataset()
            if not len(dataset):
                return [], None
            result = miner.mine(dataset, query, **extras)
            return result.convoys, result.stats

        convoys, stats = await self._in_reader(job)
        payload = convoys_to_wire(convoys)
        payload["algorithm"] = miner.info.name
        if stats is not None:
            payload["total_points"] = stats.total_points
        return 200, payload

    async def _get_analytics(self, request: Request) -> Tuple[int, Any]:
        """Every ``/analytics/*`` route: shed, count, validate, then call
        and render on a reader thread (building the summaries on first
        use can take a while, so it must not stall the event loop)."""
        schema, required, render = _ANALYTICS[request.path]
        self._shed_if_degraded()
        _READS.inc()
        values = validated(schema, request.query)
        if required is not None:
            require(values, required, schema)
        return 200, await self._in_reader(
            lambda: render(self.service.analytics(), values)
        )


# -- analytics envelopes: (analytics engine, validated values) -> payload -----


def _render_windows(analytics, values: Dict[str, Any]) -> Dict[str, Any]:
    width = values["width"]
    rows = analytics.windowed(
        width, step=values.get("step"), origin=values["origin"],
        start=values.get("start"), end=values.get("end"),
    )
    return {
        "width": width,
        "step": values.get("step", width) or width,
        "origin": values["origin"],
        "count": len(rows),
        "windows": [row.as_dict() for row in rows],
    }


def _render_topk(analytics, values: Dict[str, Any]) -> Dict[str, Any]:
    # "none" arrives as the schema's null sentinel; restore it.
    group = values.get("group") or "none"
    rows = analytics.top_k(
        values["k"], by=values["by"], group=group,
        width=values.get("width"), step=values.get("step"),
        origin=values["origin"],
        start=values.get("start"), end=values.get("end"),
    )
    return {
        "k": values["k"], "by": values["by"], "group": group,
        "count": len(rows),
        "results": [row.as_dict() for row in rows],
    }


def _render_regions(analytics, values: Dict[str, Any]) -> Dict[str, Any]:
    rows = analytics.group_by_region(
        by=values["by"], k=values.get("k"),
        start=values.get("start"), end=values.get("end"),
    )
    return {
        "by": values["by"],
        "cell_size": analytics.region_cell_size,
        "count": len(rows),
        "regions": [row.as_dict() for row in rows],
    }


def _render_objects(analytics, values: Dict[str, Any]) -> Dict[str, Any]:
    rows = analytics.group_by_object(by=values["by"], k=values.get("k"))
    return {
        "by": values["by"], "count": len(rows),
        "objects": [row.as_dict() for row in rows],
    }


def _render_cotravel(analytics, values: Dict[str, Any]) -> Dict[str, Any]:
    if values["components"]:
        components = analytics.co_travel_components(values["min_weight"])
        return {
            "min_weight": values["min_weight"],
            "count": len(components),
            "components": components,
        }
    if values.get("object") is not None:
        oid = values["object"]
        neighbors = analytics.co_travel_neighbors(oid, values["k"])
        return {
            "object": oid,
            "count": len(neighbors),
            "neighbors": [
                {"object": other, "weight": weight}
                for other, weight in neighbors
            ],
        }
    pairs = analytics.co_travel_pairs(values["k"])
    return {
        "k": values["k"], "count": len(pairs),
        "pairs": [
            {"a": a, "b": b, "weight": weight} for a, b, weight in pairs
        ],
    }


def _render_lineage(analytics, values: Dict[str, Any]) -> Dict[str, Any]:
    return analytics.lineage(
        values["convoy"], min_common=values["min_common"],
        depth=values["depth"],
    ).as_dict()


#: ``/analytics/*`` path -> (schema, required parameter, call-and-render).
_ANALYTICS: Dict[str, Tuple[ParamSchema, Optional[str], Callable]] = {
    "/analytics/windows": (WINDOWS_SCHEMA, "width", _render_windows),
    "/analytics/topk": (TOPK_SCHEMA, None, _render_topk),
    "/analytics/regions": (REGIONS_SCHEMA, None, _render_regions),
    "/analytics/objects": (OBJECTS_SCHEMA, None, _render_objects),
    "/analytics/cotravel": (COTRAVEL_SCHEMA, None, _render_cotravel),
    "/analytics/lineage": (LINEAGE_SCHEMA, "convoy", _render_lineage),
}

_ROUTES: Dict[Tuple[str, str], Callable] = {
    ("GET", "/healthz"): ConvoyServer._get_healthz,
    ("GET", "/stats"): ConvoyServer._get_stats,
    ("GET", "/metrics"): ConvoyServer._get_metrics,
    ("GET", "/algorithms"): ConvoyServer._get_algorithms,
    ("GET", "/convoys"): ConvoyServer._get_convoys,
    ("POST", "/feed"): ConvoyServer._post_feed,
    ("POST", "/feed/finish"): ConvoyServer._post_finish,
    ("POST", "/mine"): ConvoyServer._post_mine,
    ("GET", "/analytics/windows"): ConvoyServer._get_analytics,
    ("GET", "/analytics/topk"): ConvoyServer._get_analytics,
    ("GET", "/analytics/regions"): ConvoyServer._get_analytics,
    ("GET", "/analytics/objects"): ConvoyServer._get_analytics,
    ("GET", "/analytics/cotravel"): ConvoyServer._get_analytics,
    ("GET", "/analytics/lineage"): ConvoyServer._get_analytics,
}


# -- request parsing helpers -------------------------------------------------


def _parse_int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ProtocolError(400, f"bad {name} {raw!r}; expected an integer") from None


def _parse_interval(raw: str) -> Tuple[int, int]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ProtocolError(400, f"bad between {raw!r}; expected start:end")
    return _parse_int(parts[0], "between"), _parse_int(parts[1], "between")


def _parse_int_list(raw: str, name: str) -> Tuple[int, ...]:
    return tuple(
        _parse_int(part, name) for part in raw.split(",") if part != ""
    )


def _parse_region(raw: str) -> Tuple[float, float, float, float]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ProtocolError(
            400, f"bad region {raw!r}; expected xmin,ymin,xmax,ymax"
        )
    try:
        xmin, ymin, xmax, ymax = (float(part) for part in parts)
    except ValueError:
        raise ProtocolError(400, f"bad region {raw!r}; coordinates must be numbers") from None
    return xmin, ymin, xmax, ymax


def _parse_snapshot(body: Any):
    if not isinstance(body, dict):
        raise ProtocolError(400, "feed body must be a JSON object")
    try:
        t = int(body["t"])
        oids = np.asarray(body["oids"], dtype=np.int64)
        xs = np.asarray(body["xs"], dtype=np.float64)
        ys = np.asarray(body["ys"], dtype=np.float64)
    except KeyError as missing:
        raise ProtocolError(
            400, f"feed body needs t, oids, xs, ys (missing {missing})"
        ) from None
    except (TypeError, ValueError) as error:
        raise ProtocolError(400, f"bad feed body: {error}") from None
    if not (len(oids) == len(xs) == len(ys)):
        raise ProtocolError(
            400,
            f"oids/xs/ys must align: {len(oids)}/{len(xs)}/{len(ys)} rows",
        )
    return t, oids, xs, ys


def _parse_feed_identity(body: Any) -> Tuple[str, Optional[int]]:
    """The optional ``(src, seq)`` batch identity of a feed request.

    Clients that retry (after a timeout or 503) send both so the server
    can deduplicate a batch it already applied.
    """
    if not isinstance(body, dict):
        return "", None
    src = str(body.get("src", ""))
    seq = body.get("seq")
    if seq is not None:
        try:
            seq = int(seq)
        except (TypeError, ValueError):
            raise ProtocolError(400, f"bad seq {seq!r}; expected an integer") from None
        if seq < 1:
            raise ProtocolError(400, f"seq must be >= 1, got {seq}")
    return src, seq


# -- embedding helpers --------------------------------------------------------


class HttpServerHandle:
    """A server running on a background thread (tests, examples, benches).

    Use as a context manager, or call :meth:`stop` explicitly::

        with serve_in_background(service) as handle:
            client = ConvoyClient("127.0.0.1", handle.port)
    """

    def __init__(self, host: str, port: int, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop, stopper: Callable[[], None]):
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop
        self._stopper = stopper

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stopper)
            self._thread.join(timeout)

    def __enter__(self) -> "HttpServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_background(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    dataset: Optional[Dataset] = None,
) -> HttpServerHandle:
    """Start a :class:`ConvoyServer` on its own thread and event loop.

    ``port=0`` binds an ephemeral port; read it off the returned handle.
    """
    started: "queue.Queue" = queue.Queue()

    def run() -> None:
        async def main() -> None:
            server = ConvoyServer(service, dataset=dataset)
            stop_event = asyncio.Event()
            bound_host, bound_port = await server.start(host, port)
            started.put(
                (bound_host, bound_port, asyncio.get_running_loop(), stop_event.set)
            )
            await stop_event.wait()
            await server.stop()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 — relay to the caller
            # Any startup failure (bind error or otherwise) must reach the
            # waiting foreground thread instead of dying silently here.
            started.put(error)

    thread = threading.Thread(target=run, name="repro-http", daemon=True)
    thread.start()
    result = started.get(timeout=30)
    if isinstance(result, BaseException):
        raise result
    bound_host, bound_port, loop, stopper = result
    return HttpServerHandle(bound_host, bound_port, thread, loop, stopper)


async def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    dataset: Optional[Dataset] = None,
    on_start: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Run the server on the current event loop until stopped (CLI path).

    SIGTERM (and SIGINT, where signal handlers are supported) triggers a
    graceful shutdown: drain the accepted writes, write a final
    checkpoint when the service journals, then return.
    """
    server = ConvoyServer(service, dataset=dataset)
    bound_host, bound_port = await server.start(host, port)
    if on_start is not None:
        on_start(bound_host, bound_port)
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    hooked = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            hooked.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support
    try:
        forever = asyncio.ensure_future(server.serve_forever())
        stopper = asyncio.ensure_future(stop_event.wait())
        await asyncio.wait({forever, stopper}, return_when=asyncio.FIRST_COMPLETED)
        forever.cancel()
        stopper.cancel()
        for task in (forever, stopper):
            try:
                await task
            # lint: disable=silent-except — reaping cancelled tasks at shutdown; their errors were already surfaced by serve()
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
    except asyncio.CancelledError:
        pass
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)
        await server.stop()
