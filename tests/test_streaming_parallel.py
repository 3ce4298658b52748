"""Streaming monitor and parallel k/2-hop (both must match the batch miner)."""

import sys
import threading

import numpy as np
import pytest

from repro.baselines import mine_pccd
from repro.core import ConvoyQuery, K2Hop
from repro.data import plant_convoys, random_walk_dataset
from repro.extensions import StreamingConvoyMonitor, mine_convoys_parallel, replay
from repro.storage.lsmstore import LSMTStore


class TestStreamingMonitor:
    @pytest.mark.parametrize("seed", range(4))
    def test_replay_matches_pccd(self, seed):
        """Unvalidated stream output == PCCD's partially connected convoys."""
        ds = random_walk_dataset(n_objects=9, duration=18, extent=50.0, step=8.0, seed=seed)
        query = ConvoyQuery(m=3, k=4, eps=13.0)
        assert set(replay(ds, query)) == set(mine_pccd(ds, query))

    def test_validated_replay_matches_k2hop(self):
        ds = random_walk_dataset(n_objects=8, duration=15, extent=45.0, step=8.0, seed=6)
        query = ConvoyQuery(m=3, k=4, eps=12.0)
        validated = replay(ds, query, history=ds.end_time - ds.start_time + 1)
        exact = K2Hop(query).mine(ds).convoys
        assert set(validated) == set(exact)

    def test_emission_on_close(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        seen = []
        monitor = StreamingConvoyMonitor(query, on_convoy=seen.append)
        for t in range(4):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        # Objects split at t=4: the convoy closes and is emitted promptly.
        monitor.observe(4, [1, 2], [0.0, 500.0], [0.0, 0.0])
        assert len(seen) == 1
        assert seen[0].interval.start == 0 and seen[0].interval.end == 3

    def test_open_candidates_visible(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        for t in range(3):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        open_now = monitor.open_candidates()
        assert len(open_now) == 1
        assert open_now[0].objects == frozenset({1, 2})

    def test_gap_closes_candidates(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        for t in range(3):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        emitted = monitor.observe(10, [1, 2], [0.0, 1.0], [0.0, 0.0])
        assert len(emitted) == 1  # [0,2] closed by the gap

    def test_non_monotonic_rejected(self):
        query = ConvoyQuery(m=2, k=2, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        monitor.observe(5, [1, 2], [0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            monitor.observe(5, [1, 2], [0.0, 1.0], [0.0, 0.0])

    def test_finish_flushes(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        for t in range(5):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        emitted = monitor.finish()
        assert len(emitted) == 1
        assert emitted[0].interval.end == 4

    def test_empty_stream(self):
        monitor = StreamingConvoyMonitor(ConvoyQuery(m=2, k=2, eps=1.0))
        assert monitor.finish() == []
        assert monitor.closed_convoys == []


def _walk_together(monitor, ticks):
    """Objects 1 and 2 move side by side (1 at x=t, 2 at x=t+1, y=1);
    object 3 stays far away and never joins them."""
    for t in ticks:
        emitted = monitor.observe(
            t, [1, 2, 3], [float(t), t + 1.0, 100.0], [0.0, 1.0, 0.0]
        )
        assert emitted == [] and monitor.last_bboxes == []


class TestStreamingBBoxes:
    """``last_bboxes``: the members' extent for every convoy a call returned."""

    QUERY = ConvoyQuery(m=2, k=3, eps=2.0)

    def _split(self, monitor, t):
        return monitor.observe(t, [1, 2], [0.0, 500.0], [0.0, 0.0])

    def test_close_reports_the_members_extent(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=10)
        _walk_together(monitor, range(4))
        emitted = self._split(monitor, 4)
        assert [c.interval.end for c in emitted] == [3]
        assert monitor.last_bboxes == [(0.0, 0.0, 4.0, 1.0)]

    def test_history_zero_gives_no_bbox(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=0)
        _walk_together(monitor, range(4))
        assert len(self._split(monitor, 4)) == 1
        assert monitor.last_bboxes == [None]

    def test_a_call_that_closes_nothing_clears_them(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=10)
        _walk_together(monitor, range(4))
        self._split(monitor, 4)
        assert monitor.observe(5, [1, 2], [0.0, 500.0], [0.0, 0.0]) == []
        assert monitor.last_bboxes == []

    def test_finish_reports_bboxes(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=10)
        _walk_together(monitor, range(5))
        assert len(monitor.finish()) == 1
        assert monitor.last_bboxes == [(0.0, 0.0, 5.0, 1.0)]

    def test_gap_closes_report_bboxes(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=10)
        _walk_together(monitor, range(3))
        emitted = monitor.observe(10, [1, 2], [50.0, 51.0], [50.0, 50.0])
        assert len(emitted) == 1
        # the tick that revealed the gap lies outside the closed lifetime
        assert monitor.last_bboxes == [(0.0, 0.0, 3.0, 1.0)]

    def test_convoy_that_outran_the_window_is_bounded_over_the_window(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=3)
        _walk_together(monitor, range(6))
        emitted = self._split(monitor, 6)
        # emitted unvalidated with its whole lifetime, bounded over the
        # ticks 4 and 5 that the window still holds
        assert [(c.interval.start, c.interval.end) for c in emitted] == [(0, 5)]
        assert monitor.last_bboxes == [(4.0, 0.0, 6.0, 1.0)]

    def test_no_member_row_in_the_window_gives_no_bbox(self):
        monitor = StreamingConvoyMonitor(self.QUERY, history=1)
        _walk_together(monitor, range(4))
        assert len(self._split(monitor, 4)) == 1
        assert monitor.last_bboxes == [None]

    @pytest.mark.parametrize("seed", range(3))
    def test_validated_replay_bboxes_match_brute_force(self, seed):
        ds = random_walk_dataset(
            n_objects=9, duration=18, extent=50.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=3, k=4, eps=13.0)
        monitor = StreamingConvoyMonitor(
            query, history=ds.end_time - ds.start_time + 1
        )
        pairs = []
        for t in ds.timestamps().tolist():
            emitted = monitor.observe(t, *ds.snapshot(t))
            pairs.extend(zip(emitted, monitor.last_bboxes, strict=True))
        emitted = monitor.finish()
        pairs.extend(zip(emitted, monitor.last_bboxes, strict=True))
        assert pairs
        for convoy, bbox in pairs:
            keep = (
                np.isin(ds.oids, sorted(convoy.objects))
                & (ds.ts >= convoy.start)
                & (ds.ts <= convoy.end)
            )
            assert bbox == (
                float(ds.xs[keep].min()), float(ds.ys[keep].min()),
                float(ds.xs[keep].max()), float(ds.ys[keep].max()),
            ), convoy


class TestParallelMiner:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential(self, seed):
        ds = random_walk_dataset(n_objects=10, duration=24, extent=55.0, step=8.0, seed=seed)
        query = ConvoyQuery(m=3, k=5, eps=13.0)
        sequential = K2Hop(query).mine(ds)
        parallel = mine_convoys_parallel(ds, query, max_workers=4)
        assert parallel.convoys == sequential.convoys

    def test_matches_sequential_over_lsm(self, tmp_path):
        """Worker threads read one LSM run concurrently (scans and gets)."""
        ds = random_walk_dataset(n_objects=300, duration=100, extent=400.0, step=8.0, seed=3)
        query = ConvoyQuery(m=3, k=8, eps=12.0)
        expected = K2Hop(query).mine(ds).convoys
        assert expected
        mined = []
        with LSMTStore.create(str(tmp_path / "lsm"), ds) as store:
            miner = threading.Thread(
                target=lambda: mined.extend(
                    mine_convoys_parallel(store, query, max_workers=4).convoys
                    for _ in range(3)
                )
            )
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                miner.start()
                miner.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not miner.is_alive()
        assert mined == [expected] * 3

    def test_planted_recovery(self, planted, planted_query):
        result = mine_convoys_parallel(planted.dataset, planted_query, max_workers=3)
        for truth in planted.convoys:
            assert any(
                truth.objects <= found.objects
                and found.interval.contains_interval(truth.interval)
                for found in result.convoys
            )

    def test_stats_point_counts_consistent(self, planted, planted_query):
        sequential = K2Hop(planted_query).mine(planted.dataset)
        parallel = mine_convoys_parallel(planted.dataset, planted_query, max_workers=4)
        # Thread-safe accounting: same totals as the sequential run.
        assert parallel.stats.points_processed == sequential.stats.points_processed

    def test_k1_fallback(self):
        ds = random_walk_dataset(n_objects=6, duration=6, seed=0)
        query = ConvoyQuery(m=3, k=1, eps=12.0)
        assert mine_convoys_parallel(ds, query).convoys == K2Hop(query).mine(ds).convoys

    def test_empty_dataset(self):
        from repro.data import Dataset

        result = mine_convoys_parallel(Dataset.empty(), ConvoyQuery(m=2, k=3, eps=1.0))
        assert result.convoys == []
