"""Outside-in timing probes for the traced runs.

Every layer is timed at calls into its public functions, from the
benchmark's side of the boundary: a proxy object handed to the program
in place of the real one (a trajectory source, a sharder, an index, a
journal), or a module attribute swapped for the duration of one traced
replay.  Nothing inside ``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional


class Spans:
    """Calls, busy seconds and work items per named span."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.items: Dict[str, int] = defaultdict(int)

    def wrap(
        self, name: str, fn: Callable, items: Optional[Callable] = None
    ) -> Callable:
        """``fn`` timed into span ``name``.

        ``items(result, args)`` counts the work one call did.
        """

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds[name] += time.perf_counter() - started
            self.calls[name] += 1
            if items is not None:
                self.items[name] += items(result, args)
            return result

        return timed

    def total(self, names: Iterable[str]) -> float:
        return sum(self.seconds[name] for name in names)


class Probe:
    """Forwards every attribute to ``target``; times the listed methods.

    ``methods`` maps a method name to ``(span, items)``; the span name
    and optional work counter are as in :meth:`Spans.wrap`.
    """

    def __init__(self, target, spans: Spans, methods: Dict[str, tuple]):
        self._target = target
        self._timed = {
            name: spans.wrap(span, getattr(target, name), items)
            for name, (span, items) in methods.items()
        }

    def __getattr__(self, name):
        timed = self.__dict__.get("_timed", {}).get(name)
        return timed if timed is not None else getattr(self._target, name)

    def __len__(self) -> int:
        return len(self._target)


def _points(snapshot, args) -> int:
    return len(snapshot[0])


def _points_many(snapshots, args) -> int:
    return sum(len(s[0]) for s in snapshots.values())


class TimedSource(Probe):
    """A trajectory source whose three access paths are timed.

    The read-side protocol's properties forward untouched, and the
    optional batched path stays visible, so the miner takes exactly the
    access paths it takes on the bare store.
    """

    def __init__(self, source, spans: Spans):
        super().__init__(source, spans, {
            "snapshot": ("storage.snapshot", _points),
            "points_for": ("storage.points_for", _points),
            "points_for_many": ("storage.points_for_many", _points_many),
        })

    @property
    def num_points(self) -> int:
        return self._target.num_points

    @property
    def start_time(self) -> int:
        return self._target.start_time

    @property
    def end_time(self) -> int:
        return self._target.end_time


STORAGE_SPANS = (
    "storage.snapshot", "storage.points_for", "storage.points_for_many",
)


def ingest_probes(spans: Spans, sharder, index, journal):
    """Proxies for the three ingest collaborators passed by constructor."""
    return (
        Probe(sharder, spans, {"route": ("sharding.route", None)}),
        Probe(index, spans, {
            "add": ("index.add", lambda cid, args: cid is not None),
            "apply_retention": ("retention.apply", lambda n, args: n),
            "flush": ("index.flush", None),
        }),
        Probe(journal, spans, {
            "log_snapshot": ("durability.wal", None),
            "log_finish": ("durability.wal", None),
            "write_checkpoint": ("durability.checkpoint", None),
        }),
    )


@contextlib.contextmanager
def ingest_module_probes(spans: Spans):
    """Time the functions ``repro.service.ingest`` calls by module name.

    Clustering and reconciliation are free functions the ingest module
    imported; the candidate chains are monitors it constructs.  All three
    are swapped where that module looks them up, for the duration of one
    traced replay in this process only.
    """
    from repro.service import ingest

    real_cluster = ingest.cluster_snapshot_with_cores
    real_merge = ingest.merge_fragments
    real_monitor = ingest.StreamingConvoyMonitor

    class TimedMonitor(real_monitor):
        # The global chain is the monitor built with a history window;
        # per-shard monitors are built without one.
        def __init__(self, query, *args, **kwargs):
            super().__init__(query, *args, **kwargs)
            span = "chain" if "history" in kwargs else "monitor.shard"
            self.observe_clusters = spans.wrap(span, self.observe_clusters)
            self.finish = spans.wrap(span, self.finish)

    ingest.cluster_snapshot_with_cores = spans.wrap(
        "clustering", real_cluster, items=lambda pairs, args: len(args[0])
    )
    ingest.merge_fragments = spans.wrap("reconcile", real_merge)
    ingest.StreamingConvoyMonitor = TimedMonitor
    try:
        yield
    finally:
        ingest.cluster_snapshot_with_cores = real_cluster
        ingest.merge_fragments = real_merge
        ingest.StreamingConvoyMonitor = real_monitor


INGEST_SPANS = (
    "sharding.route", "clustering", "monitor.shard", "reconcile", "chain",
    "index.add", "index.flush", "retention.apply", "durability.wal",
    "durability.checkpoint",
)


def query_index_probe(index, spans: Spans) -> Probe:
    """The index under a query engine, its access paths timed."""
    return Probe(index, spans, {
        name: ("index.read", None)
        for name in (
            "ids_overlapping", "ids_of_object", "ids_containing",
            "ids_in_region", "get",
        )
    })
