"""The HTTP front's overload, counter and analytics-envelope contracts.

The 503/504 paths need a writer that can be held still, so these tests
drive a :class:`ConvoyServer` with a blocked ``observe`` from raw
keep-alive connections on the server's own loop.  The ``/stats`` counts
are process-wide, so every check compares a before/after pair.
"""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.api import ConvoyClient, ConvoySession
from repro.obs import METRICS
from repro.server import ConvoyServer, serve_in_background
from repro.server.app import _ANALYTICS, _ROUTES

COUNTS = ("requests", "errors", "reads", "writes", "mines", "rejected",
          "timeouts", "shed")


def _snapshot(t):
    return {"t": t, "oids": [1, 2], "xs": [0.0, 1.0], "ys": [0.0, 0.0]}


class _Conn:
    """One keep-alive HTTP/1.1 connection."""

    @classmethod
    async def open(cls, port):
        conn = cls()
        conn.reader, conn.writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        return conn

    async def send(self, method, target, body=None):
        """One exchange -> ``(status, headers, payload)``."""
        data = b"" if body is None else json.dumps(body).encode()
        self.writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data
        )
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status_line, *lines = head.strip().split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        body = await self.reader.readexactly(int(headers["Content-Length"]))
        return int(status_line.split()[1]), headers, json.loads(body)

    async def counts(self):
        _, _, stats = await self.send("GET", "/stats")
        return {name: stats[name] for name in COUNTS}


@contextlib.asynccontextmanager
async def _serving(service, **options):
    """A started server and a ``connect()`` for keep-alive connections,
    which are closed before the server stops."""
    server = ConvoyServer(service, **options)
    _, port = await server.start()
    conns = []

    async def connect():
        conns.append(await _Conn.open(port))
        return conns[-1]

    try:
        yield server, connect
    finally:
        for conn in conns:
            conn.writer.close()
        await server.stop()


def _live_blocked():
    """A live service whose writer holds every feed until ``gate`` is set;
    ``entered`` fires once the writer has taken its first job."""
    service = ConvoySession.blank().params(m=2, k=3, eps=2.0).feed()
    entered, gate = threading.Event(), threading.Event()
    observe = service.ingest.observe

    def blocked(*args, **kwargs):
        entered.set()
        gate.wait(10)
        return observe(*args, **kwargs)

    service.ingest.observe = blocked
    return service, entered, gate


def _delta(before, after):
    return {name: after[name] - before[name] for name in COUNTS}


def test_full_writer_queue_answers_503_and_the_deadline_504():
    service, entered, gate = _live_blocked()

    async def scenario():
        async with _serving(
            service, max_pending_writes=1, request_timeout=0.5
        ) as (server, connect):
            conns = [await connect() for _ in range(4)]
            before = await conns[3].counts()
            running = asyncio.ensure_future(
                conns[0].send("POST", "/feed", _snapshot(1))
            )
            assert await asyncio.to_thread(entered.wait, 10)
            queued = asyncio.ensure_future(
                conns[1].send("POST", "/feed", _snapshot(2))
            )
            while server._write_queue.qsize() < 1:
                await asyncio.sleep(0.005)
            rejected = await conns[2].send("POST", "/feed", _snapshot(3))
            timed_out = await asyncio.gather(running, queued)
            gate.set()
            return rejected, timed_out, _delta(before, await conns[3].counts())

    (status, headers, payload), timed_out, delta = asyncio.run(scenario())
    assert status == 503
    assert headers["Retry-After"] == "1"
    assert payload["error"]["type"] == "Overloaded"
    for status, headers, payload in timed_out:
        assert status == 504
        assert payload["error"]["type"] == "Timeout"
        assert payload["error"]["trace_id"] == headers["X-Trace-Id"]
    assert (delta["rejected"], delta["timeouts"], delta["shed"]) == (1, 2, 0)
    assert (delta["errors"], delta["writes"]) == (3, 3)
    service.close()


def test_write_during_draining_stop_answers_503():
    service, entered, gate = _live_blocked()

    async def scenario():
        server = ConvoyServer(service, request_timeout=None)
        _, port = await server.start()
        writer_conn, conn = await _Conn.open(port), await _Conn.open(port)
        await conn.send("GET", "/healthz")
        in_flight = asyncio.ensure_future(
            writer_conn.send("POST", "/feed", _snapshot(1))
        )
        assert await asyncio.to_thread(entered.wait, 10)
        stopping = asyncio.ensure_future(server.stop())
        await asyncio.sleep(0)  # stop() marks the server draining first
        _, _, health = await conn.send("GET", "/healthz")
        refused = await conn.send("POST", "/feed", _snapshot(2))
        gate.set()
        drained = await in_flight
        writer_conn.writer.close()
        conn.writer.close()
        await stopping
        return health, refused, drained

    health, (status, headers, payload), drained = asyncio.run(scenario())
    assert health["health"] == "draining"
    assert status == 503
    assert headers["Retry-After"] == "1"
    assert payload["error"]["type"] == "Overloaded"
    assert drained[0] == 200  # the accepted write still drains
    assert service.stats.ticks == 1
    service.close()


def _exported(name):
    return METRICS.value(f"repro_server_{name}_total")


def test_degraded_server_sheds_expensive_reads_only():
    service = ConvoySession.blank().params(m=2, k=3, eps=2.0).feed()

    async def scenario():
        async with _serving(service, degrade_backlog=-1) as (_, connect):
            conn = await connect()
            before = await conn.counts()
            exported = {name: _exported(name) for name in ("shed", "rejected")}
            answers = {
                "windows": await conn.send("GET", "/analytics/windows?width=5"),
                "region": await conn.send("GET", "/convoys?region=0,0,9,9"),
                "between": await conn.send("GET", "/convoys?between=0:9"),
                "feed": await conn.send("POST", "/feed", _snapshot(1)),
                "healthz": await conn.send("GET", "/healthz"),
            }
            exported = {
                name: _exported(name) - value for name, value in exported.items()
            }
            return answers, _delta(before, await conn.counts()), exported

    answers, delta, exported = asyncio.run(scenario())
    for shed in ("windows", "region"):
        status, headers, payload = answers[shed]
        assert status == 503, shed
        assert headers["Retry-After"] == "2", shed
        assert payload["error"]["type"] == "Overloaded", shed
    assert answers["between"][0] == 200
    assert answers["feed"][0] == 200
    assert answers["feed"][2]["ingested"] == 2
    _, _, health = answers["healthz"]
    assert (health["status"], health["health"]) == ("degraded", "degraded")
    assert "retention_backlog" in health["pressures"]
    # A shed read counts as shed only, never also as a rejected write.
    assert (delta["shed"], delta["rejected"]) == (2, 0)
    assert exported == {"shed": 2.0, "rejected": 0.0}
    service.close()


@pytest.mark.parametrize("path", sorted(_ANALYTICS))
def test_degraded_server_sheds_every_analytics_route(path):
    service = ConvoySession.blank().params(m=2, k=3, eps=2.0).feed()

    async def scenario():
        async with _serving(service, degrade_backlog=-1) as (_, connect):
            # No parameters: shedding comes before validation.
            return await (await connect()).send("GET", path)

    status, headers, payload = asyncio.run(scenario())
    assert (status, headers["Retry-After"]) == (503, "2")
    assert payload["error"]["type"] == "Overloaded"
    service.close()


def test_stats_counts_are_integers_and_by_route_stays_bounded():
    service = ConvoySession.blank().params(m=2, k=3, eps=2.0).feed()

    async def scenario():
        async with _serving(service) as (_, connect):
            conn = await connect()
            for n in range(50):
                assert (await conn.send("GET", f"/no/such/{n}"))[0] == 404
            assert (await conn.send("POST", "/healthz"))[0] == 405
            return (await conn.send("GET", "/stats"))[2]

    stats = asyncio.run(scenario())
    assert all(type(stats[name]) is int for name in COUNTS), stats
    by_route = stats["by_route"]
    assert len(by_route) <= len(_ROUTES) + 1, sorted(by_route)
    assert by_route["unmatched"] >= 51
    assert all(type(count) is int for count in by_route.values())
    assert stats["requests"] == sum(by_route.values())
    service.close()


# -- analytics -----------------------------------------------------------------


@pytest.fixture(scope="module")
def analytics_served(planted):
    """The engine, its remote twin, and the threads that fetched it."""
    service = (
        ConvoySession.from_dataset(planted.dataset)
        .params(m=3, k=10, eps=planted.eps)
        .serve()
    )
    threads = []
    analytics = service.analytics

    def recording(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return analytics(*args, **kwargs)

    service.analytics = recording
    with serve_in_background(service, dataset=planted.dataset) as handle:
        client = ConvoyClient(handle.host, handle.port)
        yield analytics(), client.analytics(), threads
        client.close()
    service.close()


def _wire(payload):
    return json.loads(json.dumps(payload))


class TestAnalyticsEnvelopes:
    def test_topk_matches_engine(self, analytics_served):
        engine, remote, _ = analytics_served
        rows = engine.top_k(3, by="size", group="region", width=20)
        assert remote._get("/analytics/topk", {
            "k": 3, "by": "size", "group": "region", "width": 20,
        }) == _wire({
            "k": 3, "by": "size", "group": "region", "count": len(rows),
            "results": [row.as_dict() for row in rows],
        })

    def test_regions_match_engine(self, analytics_served):
        engine, remote, _ = analytics_served
        rows = engine.group_by_region(by="count", k=2)
        assert rows
        assert remote._get("/analytics/regions", {"k": 2}) == _wire({
            "by": "count", "cell_size": engine.region_cell_size,
            "count": len(rows), "regions": [row.as_dict() for row in rows],
        })

    def test_objects_match_engine(self, analytics_served):
        engine, remote, _ = analytics_served
        rows = engine.group_by_object(by="convoys", k=4)
        assert rows
        assert remote._get("/analytics/objects", {
            "by": "convoys", "k": 4,
        }) == _wire({
            "by": "convoys", "count": len(rows),
            "objects": [row.as_dict() for row in rows],
        })

    @pytest.mark.parametrize("path", sorted(_ANALYTICS))
    def test_summaries_are_read_off_the_event_loop(self, analytics_served, path):
        engine, remote, threads = analytics_served
        required = _ANALYTICS[path][1]
        given = {"width": 10, "convoy": min(engine.summary.stats_by_cid)}
        del threads[:]
        remote._get(path, {} if required is None else {required: given[required]})
        assert len(threads) == 1 and threads[0] != "repro-http", threads
