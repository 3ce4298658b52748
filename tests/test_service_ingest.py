"""Sharded ingest service: exactness vs the batch miners, and the
streaming edge cases that sharding surfaces (empty shards, objects
hopping shards mid-convoy, closes at the history-window boundary)."""

import numpy as np
import pytest

from repro.baselines import mine_pccd
from repro.core import ConvoyQuery, K2Hop, sort_convoys
from repro.data import random_walk_dataset
from repro.extensions import StreamingConvoyMonitor
from repro.service import ConvoyIngestService, GridSharder
from repro.service.durability import STAT_FIELDS
from repro.service.ingest import _collect_ingest
from tests.conftest import make_line_dataset


def _service_for(dataset, query, nx=2, ny=2, history=None):
    history = (
        dataset.end_time - dataset.start_time + 1 if history is None else history
    )
    sharder = GridSharder.for_dataset(dataset, query.eps, nx, ny)
    return ConvoyIngestService(query, sharder=sharder, history=history)


class TestExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_validated_ingest_matches_k2hop(self, seed):
        ds = random_walk_dataset(
            n_objects=9, duration=18, extent=50.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=3, k=4, eps=13.0)
        service = _service_for(ds, query)
        served = sort_convoys(service.ingest(ds))
        exact = sort_convoys(K2Hop(query).mine(ds).convoys)
        assert served == exact
        # The index holds the identical maximal set.
        assert service.index.convoys() == exact

    @pytest.mark.parametrize("seed", range(4))
    def test_unvalidated_ingest_matches_pccd(self, seed):
        """history=0 emits partially connected convoys, like CMC/PCCD."""
        ds = random_walk_dataset(
            n_objects=9, duration=18, extent=50.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=3, k=4, eps=13.0)
        service = _service_for(ds, query, history=0)
        assert set(service.ingest(ds)) == set(mine_pccd(ds, query))

    def test_planted_recovery_across_grids(self, planted, planted_query):
        exact = sort_convoys(K2Hop(planted_query).mine(planted.dataset).convoys)
        for grid in [(1, 1), (2, 2), (4, 1)]:
            service = _service_for(planted.dataset, planted_query, *grid)
            assert sort_convoys(service.ingest(planted.dataset)) == exact


class TestShardingEdgeCases:
    def test_empty_shards_are_harmless(self):
        """All activity in one cell: the other shards stay empty forever."""
        positions = {
            t: {i: (1.0 + 0.1 * i, 1.0) for i in range(3)} for t in range(6)
        }
        ds = make_line_dataset(positions)
        query = ConvoyQuery(m=3, k=4, eps=2.0)
        sharder = GridSharder(3, 3, (0.0, 0.0, 90.0, 90.0), eps=query.eps)
        service = ConvoyIngestService(query, sharder=sharder, history=6)
        closed = service.ingest(ds)
        assert len(closed) == 1
        assert closed[0].objects == frozenset({0, 1, 2})
        # Only the owning shard has local candidates; empty ones have none.
        active = [s for s in range(service.n_shards) if service.open_candidates(s)]
        assert active == []  # finish() closed everything everywhere

    def test_objects_hopping_shards_mid_convoy(self):
        """A convoy marching across three cells stays one convoy."""
        positions = {}
        for t in range(10):
            x = 5.0 + 9.0 * t  # crosses x=30 and x=60 cell borders
            positions[t] = {i: (x + 0.4 * i, 5.0) for i in range(3)}
        ds = make_line_dataset(positions)
        query = ConvoyQuery(m=3, k=10, eps=2.0)
        sharder = GridSharder(3, 1, (0.0, 0.0, 90.0, 10.0), eps=query.eps)
        service = ConvoyIngestService(query, sharder=sharder, history=10)
        closed = service.ingest(ds)
        assert closed == [
            c for c in closed if c.objects == frozenset({0, 1, 2})
        ]
        assert len(closed) == 1
        assert (closed[0].start, closed[0].end) == (0, 9)

    def test_convoy_straddling_border_every_tick(self):
        """Half the cluster lives in each cell for the whole lifetime."""
        positions = {
            t: {
                0: (44.0, 5.0),
                1: (46.0, 5.0),
                2: (48.0, 5.0),
                3: (50.0, 5.0),
                4: (52.0, 5.0),
            }
            for t in range(8)
        }
        ds = make_line_dataset(positions)
        query = ConvoyQuery(m=3, k=8, eps=2.5)
        sharder = GridSharder(2, 1, (0.0, 0.0, 100.0, 10.0), eps=query.eps)
        service = ConvoyIngestService(query, sharder=sharder, history=8)
        closed = service.ingest(ds)
        assert len(closed) == 1
        assert closed[0].objects == frozenset(range(5))
        assert service.stats.border_merges >= 8  # merged on every tick

    def test_gap_in_feed_closes_candidates(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        sharder = GridSharder(2, 1, (0.0, 0.0, 10.0, 10.0), eps=query.eps)
        service = ConvoyIngestService(query, sharder=sharder)
        for t in range(3):
            service.observe(t, [1, 2], [1.0, 2.0], [1.0, 1.0])
        emitted = service.observe(10, [1, 2], [1.0, 2.0], [1.0, 1.0])
        assert len(emitted) == 1
        assert (emitted[0].start, emitted[0].end) == (0, 2)


class TestWindowBoundaryClose:
    """Convoys closing exactly at the history-window boundary: the whole
    lifetime is still covered, so validation must run; one tick later the
    prefix has been evicted and the convoy passes through unvalidated."""

    @staticmethod
    def _monitor_feed(history):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query, history=history)
        # Two walkers together over ticks 0..4, apart at tick 5.
        for t in range(5):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        emitted = monitor.observe(5, [1, 2], [0.0, 500.0], [0.0, 0.0])
        return emitted

    def test_exact_cover_validates(self):
        # Closing at tick 5 keeps window {0..5}: covers [0, 4] exactly.
        emitted = self._monitor_feed(history=6)
        assert [(c.start, c.end) for c in emitted] == [(0, 4)]

    def test_one_short_window_passes_through(self):
        # Window {1..5} no longer covers tick 0: best-effort passthrough.
        emitted = self._monitor_feed(history=5)
        assert [(c.start, c.end) for c in emitted] == [(0, 4)]

    def test_service_close_at_boundary_is_validated_exactly(self):
        """A convoy whose close lands exactly on the sliding window edge is
        still validated to full connectivity by the service."""
        # w-shaped pair: together 0..5, split at 6; a second pair stays on.
        positions = {}
        for t in range(7):
            together = t < 6
            positions[t] = {
                0: (1.0, 1.0),
                1: (2.0, 1.0) if together else (40.0, 40.0),
                2: (8.0, 8.0),
                3: (8.5, 8.0),
            }
        ds = make_line_dataset(positions)
        query = ConvoyQuery(m=2, k=6, eps=2.0)
        service = _service_for(ds, query, 2, 2, history=7)
        closed = service.ingest(ds)
        spans = sorted((c.start, c.end, tuple(sorted(c.objects))) for c in closed)
        assert (0, 5, (0, 1)) in spans
        assert (0, 6, (2, 3)) in spans


class TestServiceBookkeeping:
    def test_open_candidates_global_and_per_shard(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        sharder = GridSharder(2, 1, (0.0, 0.0, 100.0, 10.0), eps=query.eps)
        service = ConvoyIngestService(query, sharder=sharder)
        for t in range(3):
            # one pair far left (shard 0), one far right (shard 1)
            service.observe(
                t, [1, 2, 3, 4], [5.0, 6.0, 95.0, 96.0], [5.0, 5.0, 5.0, 5.0]
            )
        assert len(service.open_candidates()) == 2
        assert len(service.open_candidates(0)) == 1
        assert len(service.open_candidates(1)) == 1
        assert service.open_candidates(0)[0].objects == frozenset({1, 2})

    def test_bbox_recorded_with_history(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        service = ConvoyIngestService(query, history=10)
        for t in range(4):
            service.observe(t, [1, 2], [float(t), float(t) + 1.0], [0.0, 1.0])
        service.finish()
        records = [service.index.get(cid) for cid in range(len(service.index))]
        (record,) = [r for r in records if r is not None]
        assert record.bbox == (0.0, 0.0, 4.0, 1.0)

    def test_no_bbox_without_history(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        service = ConvoyIngestService(query, history=0)
        for t in range(4):
            service.observe(t, [1, 2], [float(t), float(t) + 1.0], [0.0, 1.0])
        service.finish()
        (record,) = service.index.records()
        assert record.bbox is None

    def test_single_shard_runs_one_chain_only(self):
        """With one shard the global chain doubles as shard 0 — no
        duplicate candidate maintenance."""
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        service = ConvoyIngestService(query)  # no sharder => 1 shard
        for t in range(3):
            service.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        assert service.n_shards == 1
        assert service.open_candidates(0) == service.open_candidates()
        with pytest.raises(IndexError):
            service.open_candidates(1)

    def test_stats_counters_accumulate(self):
        query = ConvoyQuery(m=2, k=2, eps=2.0)
        service = ConvoyIngestService(query)
        service.observe(0, [1, 2], [0.0, 1.0], [0.0, 0.0])
        service.observe(1, [1, 2], [0.0, 1.0], [0.0, 0.0])
        service.finish()
        assert service.stats.ticks == 2
        assert service.stats.points == 4
        assert service.stats.closed_convoys == 1
        assert service.stats.indexed_convoys == 1

    def test_registry_exports_every_checkpointed_counter(self):
        query = ConvoyQuery(m=2, k=2, eps=2.0)
        service = ConvoyIngestService(query)
        service.observe(0, [1, 2], [0.0, 1.0], [0.0, 0.0])
        service.observe(1, [1, 2], [0.0, 1.0], [0.0, 0.0])
        service.finish()
        counters = {
            name: value
            for name, kind, _help, _labels, value in _collect_ingest(service)
            if kind == "counter"
        }
        assert counters == {
            f"repro_ingest_{field}_total": float(getattr(service.stats, field))
            for field in STAT_FIELDS
        }
        assert counters["repro_ingest_ticks_total"] == 2.0


class TestWorkerThreads:
    """workers= parallelises shard clustering without changing results."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_clustering_matches_serial(self, workers):
        ds = random_walk_dataset(
            n_objects=10, duration=16, extent=60.0, step=8.0, seed=3
        )
        query = ConvoyQuery(m=3, k=4, eps=14.0)
        duration = ds.end_time - ds.start_time + 1
        sharder = GridSharder.for_dataset(ds, query.eps, 2, 2)
        serial = ConvoyIngestService(query, sharder=sharder, history=duration)
        serial.ingest(ds)
        parallel = ConvoyIngestService(
            query, sharder=sharder, history=duration, workers=workers
        )
        parallel.ingest(ds)
        assert parallel.index.convoys() == serial.index.convoys()
        assert parallel.stats.clusters == serial.stats.clusters
        assert parallel.stats.border_merges == serial.stats.border_merges

    def test_single_shard_stays_serial(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        service = ConvoyIngestService(query, workers=4)  # no sharder
        assert service.workers == 0  # nothing to parallelise over

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ConvoyIngestService(ConvoyQuery(m=2, k=3, eps=2.0), workers=-1)

    def test_session_workers_builder(self):
        from repro.api import ConvoySession

        session = ConvoySession.blank().workers(3)
        assert session.config.serve.workers == 3
        with pytest.raises(ValueError, match="workers"):
            ConvoySession.blank().workers(-2)
