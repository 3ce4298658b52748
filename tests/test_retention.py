"""Bounded-resource continuous operation: retention, cold segments, WAL caps.

Pins the tentpole guarantees of the retention subsystem:

* a bounded run answers queries over the retained window **identically**
  to an unbounded run restricted to that window (trucks + brinkhoff);
* ``include_cold=True`` recovers every evicted convoy from the flatfile
  archive;
* the cold segment format survives rolls, torn tails and duplicate
  appends;
* WAL disk usage is bounded by byte-/age-triggered checkpoints and
  segment rotation;
* lazy deletion in the index's LSM tree discards aged rows at
  compaction (counted in ``IOStats.compaction_drops``) and reopens
  behind the persisted horizon without resurrecting or re-numbering
  convoys.
"""

import os
import time
from types import SimpleNamespace

import pytest

from repro.api import ConvoySession, RetentionPolicy
from repro.core.params import ConvoyQuery
from repro.core.types import Convoy
from repro.data import (
    BrinkhoffConfig,
    BrinkhoffGenerator,
    TrucksConfig,
    generate_trucks,
)
from repro.service import catalog
from repro.service.durability import FeedWAL, ServiceJournal
from repro.service.index import ConvoyIndex
from repro.service.records import TAG_HEAD, decode_result_key, tag_range
from repro.service.retention import (
    COLD_DIR,
    ColdSegmentReader,
    ColdSegmentStore,
)
from repro.storage.lsm.tree import LSMTree

_WORKLOADS = {
    "trucks": (
        lambda: generate_trucks(
            TrucksConfig(n_trucks=10, n_days=2, day_length=60, seed=7)
        ),
        40.0,
    ),
    "brinkhoff": (
        lambda: BrinkhoffGenerator(
            BrinkhoffConfig(max_time=60, obj_begin=40, obj_per_time=2, seed=13)
        ).generate(),
        30.0,
    ),
}


def _convoy_set(convoys):
    return {(frozenset(c.objects), c.start, c.end) for c in convoys}


def _cold_record(cid, objects, start, end, bbox=None):
    return SimpleNamespace(
        convoy_id=cid, convoy=Convoy.of(objects, start, end), bbox=bbox
    )


class TestRetentionPolicy:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="window and/or max_rows"):
            RetentionPolicy()

    @pytest.mark.parametrize(
        "kwargs", [
            {"window": 0}, {"max_rows": 0},
            {"window": 5, "partition": 0},
        ],
    )
    def test_rejects_non_positive_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetentionPolicy(**kwargs)

    def test_cutoff_advances_in_partition_steps(self):
        policy = RetentionPolicy(window=10, partition=4)
        assert policy.cutoff(10) is None      # raw cutoff 0: nothing ages
        assert policy.cutoff(13) is None      # raw 3 aligns down to 0
        assert policy.cutoff(14) == 4
        assert policy.cutoff(17) == 4         # holds until the next step
        assert policy.cutoff(18) == 8

    def test_partition_defaults_to_an_eighth_of_the_window(self):
        assert RetentionPolicy(window=80).effective_partition == 10
        assert RetentionPolicy(window=4).effective_partition == 1
        assert RetentionPolicy(max_rows=5).effective_partition == 1
        assert RetentionPolicy(window=24, partition=3).effective_partition == 3


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
class TestWindowEquivalence:
    """Bounded run == unbounded run restricted to the retained window."""

    def test_retained_window_queries_match_unbounded(self, workload, tmp_path):
        build, eps = _WORKLOADS[workload]
        dataset = build()
        window = max(4, (dataset.end_time - dataset.start_time) // 3)
        base = ConvoySession.from_dataset(dataset).params(m=3, k=10, eps=eps)

        unbounded = base.serve()
        bounded = (
            base.store("lsm", str(tmp_path / f"{workload}-idx"))
            .retain(window=window)
            .serve()
        )
        assert unbounded.index.convoys(), f"{workload} must close convoys"

        cutoff = RetentionPolicy(window=window).cutoff(dataset.end_time)
        baseline = unbounded.index.convoys()
        expected_live = [
            c for c in baseline if cutoff is None or c.end >= cutoff
        ]
        assert bounded.index.convoys() == expected_live

        # Window-restricted query families answer identically.
        end = dataset.end_time
        lo = cutoff if cutoff is not None else dataset.start_time
        for start, stop in ((lo, end), (lo + 2, end - 1), (end - 1, end)):
            full = unbounded.query.time_range(start, stop)
            assert bounded.query.time_range(start, stop) == [
                c for c in full if cutoff is None or c.end >= cutoff
            ]
        for oid in sorted({o for c in expected_live for o in c.objects})[:5]:
            full = unbounded.query.object_history(oid)
            assert bounded.query.object_history(oid) == [
                c for c in full if cutoff is None or c.end >= cutoff
            ]

        # The archive holds exactly what aged out: merging it back
        # recovers the unbounded answer.
        merged = bounded.query.time_range(
            dataset.start_time, end, include_cold=True
        )
        assert _convoy_set(merged) == _convoy_set(baseline)
        assert bounded.index.evicted_total == len(baseline) - len(expected_live)
        bounded.close()


class TestColdSegments:
    def test_roundtrip_with_rolls_and_bbox(self, tmp_path):
        directory = str(tmp_path / "cold")
        store = ColdSegmentStore(directory, segment_bytes=256)
        for cid in range(12):
            store.append(_cold_record(
                cid, [cid, cid + 1, cid + 2], cid, cid + 5,
                bbox=(0.0, 1.0, 2.0, 3.0) if cid % 2 else None,
            ))
        store.close()
        assert ColdSegmentReader(directory).segment_count() > 1

        records = ColdSegmentReader(directory).records()
        assert [r.convoy_id for r in records] == list(range(12))
        assert records[1].bbox == (0.0, 1.0, 2.0, 3.0)
        assert records[0].bbox is None
        assert records[3].convoy == Convoy.of([3, 4, 5], 3, 8)

    def test_duplicate_append_keeps_last_frame(self, tmp_path):
        directory = str(tmp_path / "cold")
        store = ColdSegmentStore(directory)
        store.append(_cold_record(7, [1, 2, 3], 0, 4))
        store.append(_cold_record(7, [1, 2, 3], 0, 9))  # re-evicted wider
        store.close()
        (record,) = ColdSegmentReader(directory).records()
        assert record.convoy.end == 9

    def test_torn_tail_is_skipped_and_truncated_on_reopen(self, tmp_path):
        directory = str(tmp_path / "cold")
        store = ColdSegmentStore(directory)
        store.append(_cold_record(1, [1, 2, 3], 0, 4))
        store.append(_cold_record(2, [4, 5, 6], 1, 6))
        store.close()
        (path,) = [
            os.path.join(directory, n) for n in sorted(os.listdir(directory))
        ]
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        assert [r.convoy_id for r in ColdSegmentReader(directory).records()] \
            == [1]

        # Reopening the writer drops the torn bytes, so frames appended
        # after recovery stay reachable.
        reopened = ColdSegmentStore(directory)
        reopened.append(_cold_record(3, [7, 8, 9], 2, 8))
        reopened.close()
        assert [r.convoy_id for r in ColdSegmentReader(directory).records()] \
            == [1, 3]

    def test_foreign_file_is_rejected(self, tmp_path):
        directory = str(tmp_path / "cold")
        os.makedirs(directory)
        with open(os.path.join(directory, "segment-000000.seg"), "wb") as fh:
            fh.write(b"not a cold segment at all")
        with pytest.raises(ValueError, match="not a cold segment"):
            ColdSegmentReader(directory).records()


class TestWalBounding:
    Q = ConvoyQuery(m=2, k=3, eps=2.0)

    def _log(self, journal, seq):
        import numpy as np

        oids = np.array([1, 2], dtype=np.int64)
        xy = np.array([0.0, 1.0])
        journal.log_snapshot("s", seq, seq, oids, xy, xy)

    def test_byte_budget_triggers_checkpoint_and_bounds_disk(self, tmp_path):
        journal = ServiceJournal(
            str(tmp_path / "j"), checkpoint_every=10_000,
            wal_budget_bytes=512,
        )
        seq = 0
        while journal.should_checkpoint() is None:
            seq += 1
            self._log(journal, seq)
            assert seq < 100, "byte budget never tripped"
        assert journal.should_checkpoint() == "bytes"
        assert journal.wal.bytes_total() >= 512

        from repro.service.durability import CheckpointState
        from repro.extensions.streaming import MonitorState

        empty = MonitorState(last_time=None, active=(), window=())
        journal.write_checkpoint(
            CheckpointState(
                applied={"s": seq}, stats={}, sharder=None,
                index_next_id=0, chain=empty, shards=(),
            ),
            trigger="bytes",
        )
        assert journal.last_checkpoint_trigger == "bytes"
        assert journal.wal.bytes_total() == 0  # truncated: disk reclaimed
        journal.close()

    def test_age_trigger(self, tmp_path):
        journal = ServiceJournal(
            str(tmp_path / "j"), checkpoint_every=10_000,
            wal_budget_bytes=1 << 20, max_checkpoint_age=0.01,
        )
        self._log(journal, 1)
        time.sleep(0.02)
        assert journal.should_checkpoint() == "age"
        journal.close()

    def test_no_checkpoint_without_new_records(self, tmp_path):
        journal = ServiceJournal(
            str(tmp_path / "j"), checkpoint_every=1, max_checkpoint_age=0.01,
        )
        time.sleep(0.02)
        assert journal.should_checkpoint() is None  # nothing to bound
        journal.close()

    def test_segment_rotation_bounds_the_active_file(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "feed.wal")
        wal = FeedWAL(path, segment_bytes=256)
        oids = np.array([1, 2], dtype=np.int64)
        xy = np.array([0.0, 1.0])
        for seq in range(1, 40):
            wal.append_snapshot("s", seq, seq, oids, xy, xy)
        assert os.path.getsize(path) <= 256 + 128  # one record of slack
        sealed = [
            n for n in os.listdir(str(tmp_path))
            if n.startswith("feed.wal.")
        ]
        assert sealed, "rotation never sealed a segment"
        assert [r.seq for r in FeedWAL.replay(path)] == list(range(1, 40))
        assert wal.bytes_total() == os.path.getsize(path) + sum(
            os.path.getsize(os.path.join(str(tmp_path), n)) for n in sealed
        )
        wal.truncate()
        assert wal.bytes_total() == 0
        assert not [
            n for n in os.listdir(str(tmp_path)) if n.startswith("feed.wal.")
        ]
        wal.close()


class TestLazyDeleteBackend:
    Q = ConvoyQuery(m=2, k=3, eps=2.0)

    def _fill(self, index, n=40):
        for i in range(n):
            added = index.add(
                Convoy.of([100 * i, 100 * i + 1, 100 * i + 2], i, i + 4),
                bbox=(float(i), 0.0, float(i) + 1.0, 1.0),
            )
            assert added is not None

    def test_compaction_drops_aged_rows(self, tmp_path):
        tree = LSMTree(
            str(tmp_path / "lsm"), memtable_limit=512, compaction_fanin=3
        )
        index = ConvoyIndex(tree)
        index.set_retention(RetentionPolicy(window=8, partition=1))
        self._fill(index)
        index.apply_retention(44)
        assert index.evicted_total > 0
        before = tree.stats.compaction_drops
        # Push more rows through so flushes trigger compactions that see
        # the aged keys.
        self._fill_more(index, start=40, n=40)
        index.flush()
        assert tree.stats.compaction_drops > before
        index.close()

    def _fill_more(self, index, start, n):
        for i in range(start, start + n):
            index.add(
                Convoy.of([100 * i, 100 * i + 1, 100 * i + 2], i, i + 4),
                bbox=(float(i), 0.0, float(i) + 1.0, 1.0),
            )

    def test_reopen_respects_horizon_and_never_reuses_ids(self, tmp_path):
        directory = str(tmp_path / "idx")
        index = catalog.create_index(directory, "lsmt", self.Q)
        cold = ColdSegmentStore(os.path.join(directory, COLD_DIR))
        index.set_retention(RetentionPolicy(window=8, partition=1), cold=cold)
        self._fill(index)
        index.apply_retention(44)
        live = index.convoys()
        evicted = index.evicted_total
        next_id = index.next_id
        assert evicted > 0 and live
        index.flush()
        index.close()

        reopened, query = catalog.open_index(directory)
        assert query == self.Q
        # Aged rows may still sit in un-compacted runs; the persisted
        # horizon keeps them invisible and convoy ids monotone.
        assert reopened.convoys() == live
        assert reopened.next_id >= next_id
        assert {r.convoy_id for r in reopened.records()} == {
            cid
            for key, _ in reopened._tree.range(*tag_range(TAG_HEAD))
            if (cid := decode_result_key(key)[1]) >= reopened._min_live
        }
        fresh = reopened.add(Convoy.of([1, 2, 3], 50, 60))
        assert fresh is not None and fresh >= next_id
        reopened.close()

    def test_query_only_open_attaches_cold_reader(self, tmp_path):
        directory = str(tmp_path / "idx")
        session = (
            ConvoySession.blank()
            .params(m=2, k=3, eps=2.0)
            .store("lsm", directory)
            .retain(window=3)
        )
        handle = session.feed()
        for t in range(20):
            base = (t // 4) * 10
            handle.observe(
                t, [base, base + 1],
                [float(t), float(t) + 0.5], [0.0, 0.0],
            )
        handle.finish()
        evicted = handle.index.evicted_total
        assert evicted > 0
        total = evicted + len(handle.index)
        handle.close()

        readonly = ConvoySession.open(directory)
        assert readonly.index.cold is not None
        hot = readonly.query.time_range(0, 100)
        merged = readonly.query.time_range(0, 100, include_cold=True)
        assert len(merged) == total
        assert _convoy_set(hot) < _convoy_set(merged)
        readonly.close()
