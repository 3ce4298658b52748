"""Deterministic workload inputs, drawn from ``--seed``.

Every workload has a fixed *traffic structure*: a Brinkhoff-style road
simulation with a frozen generator seed and size (``Sizes``).  The
benchmark seed draws the concrete inputs around that structure:

* a random bijective relabelling of the object ids and a random time
  origin (every workload);
* the spatial layout and id/time offsets of the replicated convoys that
  densify the ``query`` index;
* the request stream: which keys are asked for and when.

The amount of work per run is therefore the same for every seed, while
the ids, keys, layout and arrival times differ.  Seed-to-seed spread then
measures the system and the machine rather than drift in input size
(with the simulation seed drawn per run, convoy counts move by ±25% from
seed to seed, which would swamp a 10% regression bound).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

import numpy as np

from repro.api import ConvoySession
from repro.core import Convoy, ConvoyQuery, K2Hop, sort_convoys
from repro.data import BrinkhoffConfig, BrinkhoffGenerator, Dataset

#: Generator seed of every traffic simulation (the paperbench brinkhoff one).
TRAFFIC_SEED = 13

#: mine-lsm: rare convoys, most points pruned, keyed LSM lookups dominate.
MINE_LSM_QUERY = ConvoyQuery(m=3, k=20, eps=12.0)
#: mine-mem: frequent convoys, little pruning, HWMT/extend/validation dominate.
MINE_MEM_QUERY = ConvoyQuery(m=3, k=20, eps=50.0)
#: feed and query: the paperbench brinkhoff query.
SERVE_QUERY = ConvoyQuery(m=3, k=20, eps=30.0)

#: Serving configuration of the feed workload's service.
FEED_SHARDS = "2x2"
FEED_HISTORY = 200
FEED_CHECKPOINT_EVERY = 64
FEED_RETAIN_WINDOW = 100

#: Region lattice of the analytics summaries (fixed so both the server and
#: the in-process oracles quantise identically).
REGION_CELL = 2500.0
#: Replicated convoys are scattered over this many network extents per axis.
LAYOUT_SPAN = 5


@dataclass(frozen=True)
class Sizes:
    """Traffic simulation sizes ``(max_time, obj_begin, obj_per_time)``."""

    mine: Tuple[int, int, int]
    feed: Tuple[int, int, int]
    query_convoys: int


SIZES: Dict[str, Sizes] = {
    # mine: 240,600 points; feed: 104,400 points (522 per tick).  The query
    # index is built in every run at about 0.8 ms per convoy on the LSM
    # backend (its memtable re-sums its size on each put), so 5,000
    # convoys -- far past _GRID_MIN_RECORDS -- cost 4 s of the run.
    "full": Sizes(mine=(300, 200, 4), feed=(200, 120, 4), query_convoys=5000),
    # The smoke test's size: every path runs, in about a second.
    "tiny": Sizes(mine=(80, 60, 2), feed=(80, 60, 3), query_convoys=300),
}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(tag.encode())])


def traffic(shape: Tuple[int, int, int]) -> Dataset:
    """The fixed traffic simulation of one workload."""
    max_time, obj_begin, obj_per_time = shape
    return BrinkhoffGenerator(
        BrinkhoffConfig(
            max_time=max_time,
            obj_begin=obj_begin,
            obj_per_time=obj_per_time,
            ext_obj_begin=4,
            routes_per_object=3,
            seed=TRAFFIC_SEED,
        )
    ).generate()


def relabel(dataset: Dataset, seed: int, tag: str) -> Dataset:
    """Seeded id permutation and time origin of one traffic dataset."""
    rng = _rng(seed, tag)
    uniq = np.unique(dataset.oids)
    perm = rng.permutation(len(uniq)).astype(np.int64)
    oids = perm[np.searchsorted(uniq, dataset.oids)]
    t0 = int(rng.integers(0, 1000))
    return Dataset(oids, dataset.ts + t0, dataset.xs, dataset.ys)


def mining_dataset(size: str, seed: int) -> Dataset:
    return relabel(traffic(SIZES[size].mine), seed, "mine")


def feed_base(size: str, seed: int) -> Dataset:
    """One replica of the feed: the paperbench brinkhoff traffic."""
    return relabel(traffic(SIZES[size].feed), seed, "feed")


def convoy_set(convoys) -> set:
    return {(frozenset(c.objects), c.start, c.end) for c in convoys}


class FeedTicks:
    """The feed: time- and id-shifted replicas of one base dataset.

    Replica ``r`` shifts ticks by ``r * duration`` and object ids by
    ``r * oid_span``, so no convoy spans two replicas and the batch
    answer over any prefix is the base answer, shifted per replica.
    """

    def __init__(self, base: Dataset):
        self.base = base
        self.times = base.timestamps().tolist()
        self.duration = self.times[-1] - self.times[0] + 1
        self.oid_span = int(base.oids.max()) + 1
        self._snapshots = [base.snapshot(t) for t in self.times]

    def tick(self, i: int):
        """The ``i``-th fed snapshot ``(t, oids, xs, ys)``."""
        r, j = divmod(i, len(self.times))
        oids, xs, ys = self._snapshots[j]
        return (
            self.times[j] + r * self.duration, oids + r * self.oid_span, xs, ys,
        )

    def expected(self, fed: int, query: ConvoyQuery) -> List[Convoy]:
        """Batch k/2-hop answer over the first ``fed`` ticks."""
        full, partial = divmod(fed, len(self.times))
        base = K2Hop(query).mine(self.base).convoys
        expected = [
            _shift(c, r * self.duration, r * self.oid_span)
            for r in range(full) for c in base
        ]
        if partial:
            prefix = self.base.restrict_time(
                self.times[0], self.times[partial - 1]
            )
            expected += [
                _shift(c, full * self.duration, full * self.oid_span)
                for c in K2Hop(query).mine(prefix).convoys
            ]
        return sort_convoys(expected)


def _shift(convoy: Convoy, dt: int, doid: int) -> Convoy:
    return Convoy.of(
        [o + doid for o in convoy.objects], convoy.start + dt, convoy.end + dt
    )


# -- the query workload's index and request stream -----------------------------


@dataclass(frozen=True)
class QueryDomain:
    """What the densified index covers (drives the request keys)."""

    t_start: int
    t_end: int
    extent: float
    member_oids: Tuple[int, ...]
    member_sets: Tuple[Tuple[int, ...], ...]


def build_query_index(size: str, seed: int, directory: str) -> QueryDomain:
    """Persist the query workload's convoy index into ``directory``.

    The brinkhoff convoys (mined and persisted through the session, with
    member bounding boxes) are densified through ``ConvoyIndex.add`` with
    replicas shifted in time and ids (so none subsumes another) and
    scattered over a ``LAYOUT_SPAN`` x ``LAYOUT_SPAN`` map of networks.
    The replicated convoys come from the full-size feed traffic at every
    size; ``size`` only sets how many the index holds.
    """
    base = feed_base("full", seed)
    target = SIZES[size].query_convoys
    session = ConvoySession.from_dataset(base).params(
        SERVE_QUERY.m, SERVE_QUERY.k, SERVE_QUERY.eps
    )
    session.store("lsm", directory).mine()
    rng = random.Random(seed)
    service = ConvoySession.open(directory)
    try:
        index = service.index
        records = index.records()
        duration = base.end_time - base.start_time + 1
        oid_span = int(base.oids.max()) + 1
        extent = float(max(base.xs.max(), base.ys.max()))
        replica = 0
        while len(index) < target:
            replica += 1
            dx = rng.uniform(0, (LAYOUT_SPAN - 1) * extent)
            dy = rng.uniform(0, (LAYOUT_SPAN - 1) * extent)
            for record in records[: target - len(index)]:
                xmin, ymin, xmax, ymax = record.bbox
                index.add(
                    _shift(record.convoy, replica * duration, replica * oid_span),
                    bbox=(xmin + dx, ymin + dy, xmax + dx, ymax + dy),
                )
        convoys = index.convoys()
    finally:
        service.close()
    members = sorted({o for c in convoys for o in c.objects})
    rng.shuffle(members)
    sets = [tuple(sorted(c.objects)) for c in convoys]
    rng.shuffle(sets)
    return QueryDomain(
        t_start=min(c.start for c in convoys),
        t_end=max(c.end for c in convoys),
        extent=LAYOUT_SPAN * extent,
        member_oids=tuple(members),
        member_sets=tuple(sets),
    )


#: Request mix (family, weight): dashboards read mostly by time.
MIX = (
    ("time", 35), ("object", 20), ("containing", 10), ("region", 15),
    ("open", 5), ("windows", 10), ("topk", 5),
)

#: Distinct keys per family: well past the query engine's 4096-entry LRU.
KEYS = 20_000
#: Zipf exponent of the key popularity (the hottest ten keys of a family
#: take about a third of its requests, so most reads hit the cache).
ZIPF_S = 1.1
#: Ticks covered by a time-range read.  One width for every key, so
#: answers are about the same size whichever keys the seed makes hot.
TIME_RANGE = 60
#: Analytics requests cover this many ticks (range-restricted).
ANALYTICS_RANGE = 800

Request = Tuple[str, tuple]


class RequestStream:
    """Seeded Zipf-skewed requests over one :class:`QueryDomain`."""

    def __init__(self, domain: QueryDomain, seed: int):
        self.domain = domain
        self.rng = random.Random(seed * 7919 + 1)
        self._cum = list(accumulate(
            1.0 / rank ** ZIPF_S for rank in range(1, KEYS + 1)
        ))
        # Which key is popular is itself seeded.
        self._keys = list(range(KEYS))
        self.rng.shuffle(self._keys)
        self._families = [family for family, _ in MIX]
        self._fcum = list(accumulate(weight for _, weight in MIX))

    def _key(self) -> int:
        return self.rng.choices(self._keys, cum_weights=self._cum)[0]

    def next(self) -> Request:
        d = self.domain
        family = self.rng.choices(self._families, cum_weights=self._fcum)[0]
        span = d.t_end - d.t_start
        if family in ("time", "windows", "topk"):
            start = d.t_start + self._key() * span // KEYS
            if family == "time":
                return family, (start, start + TIME_RANGE)
            return family, (start, start + ANALYTICS_RANGE)
        if family == "object":
            return family, (d.member_oids[self._key() % len(d.member_oids)],)
        if family == "containing":
            members = d.member_sets[self._key() % len(d.member_sets)]
            return family, tuple(members[:2])
        if family == "region":
            key = self._key()
            side = d.extent / 20
            x = (key % 141) * d.extent / 141
            y = (key // 141) * d.extent / 141
            return family, (x, y, x + side, y + side)
        return family, ()

    def take(self, n: int) -> List[Request]:
        return [self.next() for _ in range(n)]


def perform(request: Request, query, analytics):
    """Run one request against the query-engine / analytics surface.

    ``query``/``analytics`` are either the in-process engines or a
    ``ConvoyClient``'s mirrors of them; analytics answers are normalised
    to their wire rows so both sides compare equal.
    """
    family, args = request
    if family == "time":
        return query.time_range(*args)
    if family == "object":
        return query.object_history(*args)
    if family == "containing":
        return query.containing(args)
    if family == "region":
        return query.region(args)
    if family == "open":
        return query.open_candidates()
    start, end = args
    if family == "windows":
        rows = analytics.windowed(100, start=start, end=end)
    else:
        rows = analytics.top_k(5, group="region", start=start, end=end)
    return [row if isinstance(row, dict) else row.as_dict() for row in rows]
