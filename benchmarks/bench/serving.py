"""The serving workloads: a live HTTP feed, and open-loop HTTP reads.

``feed`` pushes snapshots closed-loop through one ``ConvoyClient`` into a
sharded, durable, retention-bounded service, while a second connection
reads beside it at a light open-loop rate.  The wire, clustering, the
candidate chain, durability (WAL, checkpoints), retention and index
writes dominate.

``query`` reads a persisted 5,000-convoy index at a light Poisson rate
(traced runs also at two higher rates and closed-loop at capacity), with
a Zipf-skewed key mix whose tail exceeds the query engine's LRU.
Protocol handling, the query cache, the index access paths and the
analytics summaries dominate; nothing is ingested.

Both serve from a separate ``server.py`` process.  Their traced runs
replay the same inputs in this process through the same engines with
timing probes (see ``probes.py``), which is where per-layer numbers come
from.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from typing import Dict, List

from inputs import (
    FEED_CHECKPOINT_EVERY,
    FEED_HISTORY,
    FEED_RETAIN_WINDOW,
    FEED_SHARDS,
    REGION_CELL,
    SERVE_QUERY,
    FeedTicks,
    RequestStream,
    build_query_index,
    convoy_set,
    feed_base,
    perform,
)
from loadgen import ServerProcess, closed_loop, max_rate, open_loop
from measure import SETUPS, Outcome, cleanup, percentile, workdir
from probes import (
    INGEST_SPANS,
    Spans,
    ingest_module_probes,
    ingest_probes,
    query_index_probe,
)

from repro.analytics.brute import brute_top_k, brute_windowed
from repro.api import ConvoySession
from repro.obs import METRICS
from repro.service import (
    ConvoyIngestService,
    ConvoyQueryEngine,
    GridSharder,
    create_index,
)
from repro.service.durability import ServiceJournal
from repro.service.index import _GRID_MIN_RECORDS
from repro.service.retention import COLD_DIR, ColdSegmentStore, RetentionPolicy

#: Keep-alive connections (and generator threads) of the query workload.
#: One: with two, the generator's threads and the server's executor
#: threads hand the interpreter lock back and forth, which doubled the
#: run-to-run spread of the read latency on the calibration machine.
CONNECTIONS = 1

#: Reads per second beside the feed (on the feed's second connection).
FEED_READ_RATE = 20.0
#: The feed server's peak memory is read after this many acknowledged ticks.
FEED_RSS_TICKS = 400

#: Fixed read rates (reads/s): about 30/60/90% of the one-connection
#: capacity measured once on a 2-core machine (1,000 reads/s in its slow
#: spells, 1,500 in its fast ones), then frozen.
RATES = {"full": {"lo": 300.0, "mid": 600.0, "hi": 900.0},
         "tiny": {"lo": 30.0, "mid": 60.0, "hi": 90.0}}
#: The p99 latency limit a rate must meet to count towards gen.max_rps.
LIMIT_S = 0.050
#: Share of the measured seconds per phase.  End-to-end runs read at the
#: lo rate only: at light load the latency is the cost of a read, where
#: at higher rates queueing multiplies every fluctuation of the machine's
#: speed.  Traced runs step through all three rates, then measure the
#: closed-loop capacity, for the generator's per-layer metrics.
E2E_SHARE = {"lo": 1.0}
TRACE_SHARE = {"lo": 0.3, "mid": 0.2, "hi": 0.2}
#: Untimed requests that fill the cache and build lazy structures first.
WARMUP_REQUESTS = 300
#: Every n-th answer of the open-loop phases is checked in process.
SAMPLE_EVERY = 20

FAR_FUTURE = 1 << 40


def _call(client, request):
    return perform(request, client.query, client.analytics)


def _start(count: int, spawn) -> tuple:
    """Set up ``count`` times; keep the last server, report every setup."""
    setups = []
    for attempt in range(count):
        server = spawn(attempt)
        setups.append(server.setup_s)
        if attempt < count - 1:
            server.stop()
    return server, setups


# -- feed ------------------------------------------------------------------------


@dataclass
class FeedRun:
    acks: List[float]
    replica_rates: List[float]  # points/s of each whole replica
    rss_mb: float
    reads: object
    failures: int

    @property
    def fed(self) -> int:
        return len(self.acks)


def _feed_http(server: ServerProcess, ticks: FeedTicks, seconds: float,
               seed: int) -> FeedRun:
    feeder, reader = server.client(), server.client()
    frontier = [ticks.tick(0)[0]]
    box = []
    reads = threading.Thread(target=lambda: box.append(open_loop(
        [reader],
        lambda i: ("time", (max(0, frontier[0] - 60), frontier[0])),
        _call, FEED_READ_RATE, seconds, random.Random(seed),
    )))
    acks, rates, failures, rss = [], [], 0, None
    replica = len(ticks.times)
    reads.start()
    deadline = time.perf_counter() + seconds
    try:
        # Whole replicas only: tick cost varies along a replica (the fleet
        # grows, convoys close late), so a partial one would skew the mix.
        while len(acks) % replica or time.perf_counter() < deadline:
            if len(acks) % replica == 0:
                replica_started, replica_points = time.perf_counter(), 0
            t, oids, xs, ys = ticks.tick(len(acks))
            sent = time.perf_counter()
            try:
                feeder.observe(t, oids, xs, ys)
            except Exception as error:  # noqa: BLE001 — counted as failed
                print(f"feed failed at t={t}: {error}", file=sys.stderr)
                failures += 1
                acks.append(float("inf"))
            else:
                acks.append(time.perf_counter() - sent)
                replica_points += len(oids)
            frontier[0] = t
            if len(acks) == FEED_RSS_TICKS:
                rss = server.peak_rss_mb()
            if len(acks) % replica == 0:
                rates.append(
                    replica_points / (time.perf_counter() - replica_started)
                )
        reads.join()
        feeder.finish()
        if rss is None:
            rss = server.peak_rss_mb()
    finally:
        reads.join()
        feeder.close()
        reader.close()
    failures += box[0].failures
    return FeedRun(acks, rates, rss, box[0], failures)


def _check_feed(convoys, ticks: FeedTicks, fed: int, where: str) -> list:
    """Live plus cold convoys must equal batch k/2-hop over what was fed."""
    expected = ticks.expected(fed, SERVE_QUERY)
    if convoy_set(convoys) != convoy_set(expected):
        return [f"feed ({where}): {len(convoys)} stored convoys differ from "
                f"the {len(expected)} of batch k/2-hop over {fed} ticks"]
    return []


def _stored_convoys(directory: str):
    service = ConvoySession.open(directory)
    try:
        return service.query.time_range(0, FAR_FUTURE, include_cold=True)
    finally:
        service.close()


def run_feed(size: str, seed: int, seconds: float, trace: bool) -> Outcome:
    work = workdir("feed")
    try:
        ticks = FeedTicks(feed_base(size, seed))
        server, setups = _start(
            1 if trace else SETUPS,
            lambda attempt: ServerProcess(
                "feed", size, seed, os.path.join(work, f"server-{attempt}")
            ),
        )
        with server:
            run = _feed_http(server, ticks, seconds / 2 if trace else seconds,
                             seed)
        problems = _check_feed(
            _stored_convoys(os.path.join(work, f"server-{len(setups) - 1}")),
            ticks, run.fed, "server",
        )
        attempted = run.fed + run.reads.count + 1
        if trace:
            outcome = _traced_feed(ticks, run, work)
            outcome.attempted += attempted
            outcome.failed += run.failures
            outcome.problems += problems
            return outcome
        return Outcome(
            metrics={
                "setup_s": median(setups),
                "op_p50_ms": percentile(run.acks, 0.5) * 1e3,
                "rss_peak_mb": run.rss_mb,
            },
            attempted=attempted,
            failed=run.failures,
            problems=problems,
        )
    finally:
        cleanup(work)


def _ingest_service(base, directory: str, spans: Spans = None):
    """The feed server's ingest pipeline, built here (probes optional)."""
    index = create_index(directory, "lsmt", SERVE_QUERY)
    index.set_retention(
        RetentionPolicy(window=FEED_RETAIN_WINDOW),
        cold=ColdSegmentStore(os.path.join(directory, COLD_DIR)),
    )
    journal = ServiceJournal(directory, checkpoint_every=FEED_CHECKPOINT_EVERY)
    nx, ny = (int(part) for part in FEED_SHARDS.split("x"))
    sharder = GridSharder.for_dataset(base, SERVE_QUERY.eps, nx, ny)
    if spans is not None:
        sharder, index, journal = ingest_probes(spans, sharder, index, journal)
    return ConvoyIngestService(
        SERVE_QUERY, sharder=sharder, index=index, history=FEED_HISTORY,
        journal=journal,
    )


def _replay(service, ticks: FeedTicks, n: int):
    """Feed ``n`` ticks and finish; per-tick and finish wall times."""
    per_tick = []
    for i in range(n):
        t, oids, xs, ys = ticks.tick(i)
        started = time.perf_counter()
        service.observe(t, oids, xs, ys)
        per_tick.append(time.perf_counter() - started)
    started = time.perf_counter()
    service.finish()
    finish_s = time.perf_counter() - started
    convoys = ConvoyQueryEngine(service.index).time_range(
        0, FAR_FUTURE, include_cold=True
    )
    service.journal.close()
    service.index.close()
    return per_tick, finish_s, convoys


def _traced_feed(ticks: FeedTicks, run: FeedRun, work: str) -> Outcome:
    """Replay two replicas in process, bare and then probed."""
    n = 2 * len(ticks.times)
    bare_ticks, bare_finish, _ = _replay(
        _ingest_service(ticks.base, os.path.join(work, "bare")), ticks, n
    )
    spans = Spans()
    wal_bytes = METRICS.value("repro_service_wal_bytes_total")
    with ingest_module_probes(spans):
        service = _ingest_service(ticks.base, os.path.join(work, "probed"),
                                  spans)
        per_tick, finish_s, convoys = _replay(service, ticks, n)
    wal_bytes = METRICS.value("repro_service_wal_bytes_total") - wal_bytes
    stats = service.stats
    total = sum(per_tick) + finish_s
    layers = spans.total(INGEST_SPANS)
    s = spans.seconds
    metrics = {
        "sharding.route_s": s["sharding.route"],
        "sharding.halo_frac": stats.halo_copies / max(stats.points, 1),
        "clustering.s": s["clustering"],
        "clustering.calls": spans.calls["clustering"],
        "clustering.points": spans.items["clustering"],
        "reconcile.s": s["reconcile"],
        "reconcile.border_merges": stats.border_merges,
        "monitor.shard_s": s["monitor.shard"],
        "chain.s": s["chain"],
        "index.add.s": s["index.add"],
        "index.add.calls": spans.calls["index.add"],
        "index.add.accepted_frac": (
            spans.items["index.add"] / max(spans.calls["index.add"], 1)
        ),
        "index.flush_s": s["index.flush"],
        "retention.apply_s": s["retention.apply"],
        "retention.evicted": spans.items["retention.apply"],
        "durability.wal.s": s["durability.wal"],
        "durability.wal.bytes_per_point": wal_bytes / max(stats.points, 1),
        "durability.checkpoint.s": s["durability.checkpoint"],
        "durability.checkpoint.count": spans.calls["durability.checkpoint"],
        "ingest.s": total,
        "ingest.tick_ms.p50": percentile(per_tick, 0.5) * 1e3,
        "ingest.tick_ms.p99": percentile(per_tick, 0.99) * 1e3,
        "ingest.finish_s": finish_s,
        "ingest.residual_s": total - layers,
        "feed.points_per_s": median(run.replica_rates),
        "feed.ack_p90_ms": percentile(run.acks, 0.9) * 1e3,
        "feed.ack_p99_ms": percentile(run.acks, 0.99) * 1e3,
        "feed.read_p50_ms": run.reads.p(0.5) * 1e3,
        "server.feed_wire_ms": (
            percentile(run.acks, 0.5) - percentile(bare_ticks, 0.5)
        ) * 1e3,
        "trace.overhead_frac": total / (sum(bare_ticks) + bare_finish) - 1.0,
        "trace.coverage": layers / total,
        "trace.wall_s": total,
    }
    return Outcome(
        metrics=metrics,
        attempted=2 * (n + 1),
        problems=_check_feed(convoys, ticks, n, "in-process replay"),
    )


# -- query -----------------------------------------------------------------------


def _phases(clients, stream: RequestStream, rates: Dict[str, float],
            spans: Dict[str, float], seed: int) -> dict:
    """Fixed-rate open-loop phases, lo then mid then hi; ``spans`` maps
    the phases to run to their seconds."""
    phases = {}
    for name, span in spans.items():
        rate = rates[name]
        requests = stream.take(int(rate * span * 1.2) + 50)
        phases[name] = open_loop(
            clients, lambda i, r=requests: r[i % len(r)], _call, rate, span,
            random.Random(seed * 31 + len(phases)), SAMPLE_EVERY,
        )
    return phases


def _grid_rebuilds(client) -> float:
    for line in client.metrics_text().splitlines():
        if line.startswith("repro_index_grid_rebuilds_total "):
            return float(line.split()[1])
    return 0.0


def _check_query(index_dir: str, samples) -> list:
    """Sampled HTTP answers must equal the in-process engines, and the
    analytics answers the brute-force oracles."""
    problems = []
    service = ConvoySession.open(index_dir)
    try:
        analytics = service.analytics(region_cell_size=REGION_CELL)
        records = service.index.records()
        for request, answer in samples:
            family, args = request
            local = perform(request, service.query, analytics)
            if answer != local:
                problems.append(f"query: HTTP answer to {request} differs "
                                f"from the in-process engine")
            if family == "windows":
                oracle = brute_windowed(records, 100, start=args[0],
                                        end=args[1])
            elif family == "topk":
                oracle = brute_top_k(records, REGION_CELL, 5, group="region",
                                     start=args[0], end=args[1])
            else:
                continue
            if local != [row.as_dict() for row in oracle]:
                problems.append(f"query: analytics answer to {request} "
                                f"differs from the brute-force oracle")
    finally:
        service.close()
    return problems[:5]


def run_query(size: str, seed: int, seconds: float, trace: bool) -> Outcome:
    work = workdir("query")
    try:
        index_dir = os.path.join(work, "index")
        stream = RequestStream(build_query_index(size, seed, index_dir), seed)
        server, setups = _start(
            1 if trace else SETUPS,
            lambda attempt: ServerProcess("query", size, seed, index_dir),
        )
        with server:
            clients = [server.client() for _ in range(CONNECTIONS)]
            try:
                warmup = stream.take(WARMUP_REQUESTS)
                for request in warmup:
                    _call(clients[0], request)
                shares = TRACE_SHARE if trace else E2E_SHARE
                phases = _phases(
                    clients, stream, RATES[size],
                    {name: share * seconds for name, share in shares.items()},
                    seed,
                )
                capacity = None
                if trace:
                    pool = stream.take(20_000)
                    capacity = closed_loop(
                        clients, lambda i: pool[i % len(pool)], _call,
                        seconds * (1 - sum(shares.values())),
                    )
                rebuilds = _grid_rebuilds(clients[0])
                records = clients[0].healthz()["convoys"]
                rss = server.peak_rss_mb()
            finally:
                for client in clients:
                    client.close()
        samples = [s for phase in phases.values() for s in phase.samples]
        problems = _check_query(index_dir, samples)
        if records < _GRID_MIN_RECORDS or not rebuilds:
            problems.append(
                f"query: region queries did not take the grid path "
                f"({records} records, {rebuilds:g} grid builds)"
            )
        measured = list(phases.values()) + ([capacity] if capacity else [])
        failed = sum(p.failures for p in measured)
        attempted = len(warmup) + sum(p.count for p in measured)
        if trace:
            outcome = _traced_query(index_dir, warmup, phases)
            outcome.metrics["gen.capacity_rps"] = capacity.count / capacity.wall_s
            outcome.attempted += attempted
            outcome.failed += failed
            outcome.problems += problems
            return outcome
        return Outcome(
            metrics={
                "setup_s": median(setups),
                "op_p50_ms": phases["lo"].p(0.5) * 1e3,
                "rss_peak_mb": rss,
            },
            attempted=attempted,
            failed=failed,
            problems=problems,
        )
    finally:
        cleanup(work)


def _replay_reads(engine, analytics, warmup, measured, spans=None):
    """Warm up, then time each measured request.

    Returns the measured wall time, the per-request times and the cache
    hit rate of the measured requests; ``spans`` restart after warm-up.
    """
    for request in warmup:
        perform(request, engine, analytics)
    if spans is not None:
        spans.reset()
    cache = engine.cache_stats
    hits, misses = cache.hits, cache.misses
    per_request = []
    started = time.perf_counter()
    for request in measured:
        sent = time.perf_counter()
        perform(request, engine, analytics)
        per_request.append(time.perf_counter() - sent)
    wall = time.perf_counter() - started
    hits, misses = cache.hits - hits, cache.misses - misses
    return wall, per_request, hits / max(hits + misses, 1)


def _by_family(requests, latencies) -> Dict[str, float]:
    groups = defaultdict(list)
    for request, latency in zip(requests, latencies):
        groups[request[0]].append(latency)
    return {family: median(values) for family, values in groups.items()}


def _traced_query(index_dir: str, warmup, phases: dict) -> Outcome:
    """Replay the recorded requests in process, bare and then probed."""
    metrics = {}
    for name, phase in phases.items():
        metrics[f"gen.p50_ms.{name}"] = phase.p(0.5) * 1e3
        metrics[f"gen.p99_ms.{name}"] = phase.p(0.99) * 1e3
        metrics[f"gen.late_ms.p99.{name}"] = percentile(phase.late, 0.99) * 1e3
        metrics[f"gen.backlog_max.{name}"] = max(phase.backlog, default=0)
    metrics["gen.max_rps"] = max_rate(list(phases.values()), LIMIT_S,
                                      CONNECTIONS)
    # The lo phase is replayed after the same warm-up, so the in-process
    # engine sees the cache the server saw.
    warmup, lo = list(warmup), phases["lo"].requests
    service = ConvoySession.open(index_dir)
    try:
        started = time.perf_counter()
        analytics = service.analytics(region_cell_size=REGION_CELL)
        metrics["analytics.bootstrap_s"] = time.perf_counter() - started
        rebuilds = METRICS.value("repro_index_grid_rebuilds_total")
        bare_wall, _, _ = _replay_reads(
            ConvoyQueryEngine(service.index), analytics, warmup, lo
        )
        spans = Spans()
        wall, per_request, hit_rate = _replay_reads(
            ConvoyQueryEngine(query_index_probe(service.index, spans)),
            analytics, warmup, lo, spans,
        )
        region_path = (
            len(service.index) >= _GRID_MIN_RECORDS
            and METRICS.value("repro_index_grid_rebuilds_total") > rebuilds
        )
        metrics["index.records"] = len(service.index)
    finally:
        service.close()
    local = _by_family(lo, per_request)
    wire = _by_family(lo, phases["lo"].latencies)
    for family, seconds in local.items():
        group = "analytics" if family in ("windows", "topk") else "query"
        metrics[f"{group}.engine_us.{family}"] = seconds * 1e6
        metrics[f"server.wire_us.{family}"] = (wire[family] - seconds) * 1e6
    query_s = sum(
        spent for request, spent in zip(lo, per_request)
        if request[0] not in ("windows", "topk")
    )
    read_s = spans.seconds["index.read"]
    metrics.update({
        "query.cache_hit_rate": hit_rate,
        "index.region_path": float(region_path),
        "index.read_s": read_s,
        "query.engine_self_s": query_s - read_s,
        "trace.overhead_frac": wall / bare_wall - 1.0,
        "trace.coverage": sum(per_request) / wall,
        "trace.wall_s": wall,
    })
    return Outcome(metrics=metrics, attempted=2 * (len(warmup) + len(lo)))
