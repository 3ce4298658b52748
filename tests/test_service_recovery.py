"""Service durability: feed WAL, atomic checkpoints, crash recovery."""

import os

import numpy as np
import pytest

from repro.api import ConvoySession
from repro.core.params import ConvoyQuery
from repro.extensions.streaming import MonitorState
from repro.service import catalog
from repro.service.durability import (
    KIND_FINISH,
    KIND_SNAPSHOT,
    STAT_FIELDS,
    CheckpointState,
    FeedWAL,
    ServiceJournal,
    ShardConfig,
    decode_checkpoint,
    encode_checkpoint,
    has_durable_state,
)
from repro.service.ingest import ConvoyIngestService
from repro.testing import FAULTS, InjectedCrash

#: The query every feed in this module runs: m=2 together for k=3 ticks.
Q = ConvoyQuery(m=2, k=3, eps=2.0)


def _ticks():
    """An 8-tick feed closing two convoys.

    Objects 1 and 2 travel together throughout (convoy over [1, 8]);
    object 3 rides between them for the first four ticks (convoy
    {1, 2, 3} over [1, 4]), then jumps 50 units away.
    """
    out = []
    for t in range(1, 9):
        third = t + 0.5 if t <= 4 else t + 50.0
        out.append((t, [1, 2, 3], [float(t), t + 1.0, third], [0.0, 0.0, 0.0]))
    return out


def _convoy_set(convoys):
    return {(frozenset(c.objects), c.start, c.end) for c in convoys}


def _baseline():
    service = ConvoyIngestService(Q)
    for t, oids, xs, ys in _ticks():
        service.observe(t, oids, xs, ys, seq=t)
    service.finish()
    return _convoy_set(service.closed_convoys)


def _durable_service(directory, checkpoint_every=100):
    index = catalog.create_index(directory, "lsmt", Q)
    journal = ServiceJournal(directory, checkpoint_every=checkpoint_every)
    service = ConvoyIngestService(Q, index=index, journal=journal)
    return service, journal


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


class TestCheckpointCodec:
    def test_roundtrip(self):
        window = (
            (
                9,
                np.array([1, 2], dtype=np.int64),
                np.array([0.5, 1.5]),
                np.array([2.5, 3.5]),
            ),
        )
        state = CheckpointState(
            applied={"": 7, "client-a": 3},
            stats={name: i + 1 for i, name in enumerate(STAT_FIELDS)},
            sharder=ShardConfig(nx=2, ny=3, bounds=(0.0, -1.5, 10.0, 20.25), eps=1.25),
            index_next_id=42,
            chain=MonitorState(last_time=9, active=(((1, 2, 3), 4),), window=window),
            shards=(MonitorState(last_time=None, active=(), window=()),),
        )
        back = decode_checkpoint(encode_checkpoint(state))
        assert back.applied == state.applied
        assert back.stats == state.stats
        assert back.sharder == state.sharder
        assert back.index_next_id == 42
        assert back.chain.last_time == 9
        assert back.chain.active == (((1, 2, 3), 4),)
        (t, oids, xs, ys), = back.chain.window
        assert t == 9
        np.testing.assert_array_equal(oids, [1, 2])
        np.testing.assert_array_equal(xs, [0.5, 1.5])
        np.testing.assert_array_equal(ys, [2.5, 3.5])
        assert back.shards == (MonitorState(last_time=None, active=(), window=()),)

    def test_roundtrip_without_sharder(self):
        empty = MonitorState(last_time=None, active=(), window=())
        state = CheckpointState(
            applied={}, stats={}, sharder=None, index_next_id=0,
            chain=empty, shards=(),
        )
        back = decode_checkpoint(encode_checkpoint(state))
        assert back.sharder is None
        assert back.applied == {}
        assert back.stats == {name: 0 for name in STAT_FIELDS}


class TestFeedWal:
    def _filled(self, path):
        wal = FeedWAL(path)
        wal.append_snapshot(
            "s", 1, 5,
            np.array([1, 2], dtype=np.int64),
            np.array([0.0, 1.0]),
            np.array([2.0, 3.0]),
        )
        wal.append_finish("s", 2)
        wal.close()

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "feed.wal")
        self._filled(path)
        snapshot, finish = list(FeedWAL.replay(path))
        assert snapshot.kind == KIND_SNAPSHOT
        assert (snapshot.src, snapshot.seq, snapshot.t) == ("s", 1, 5)
        np.testing.assert_array_equal(snapshot.oids, [1, 2])
        np.testing.assert_array_equal(snapshot.xs, [0.0, 1.0])
        np.testing.assert_array_equal(snapshot.ys, [2.0, 3.0])
        assert finish.kind == KIND_FINISH
        assert (finish.src, finish.seq) == ("s", 2)

    def test_torn_tail_recovers_to_last_good_record(self, tmp_path, caplog):
        path = str(tmp_path / "feed.wal")
        self._filled(path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        with caplog.at_level("WARNING"):
            records = list(FeedWAL.replay(path))
        assert [r.kind for r in records] == [KIND_SNAPSHOT]
        assert any("torn" in rec.message for rec in caplog.records)

    def test_bit_flip_detected_by_checksum(self, tmp_path, caplog):
        path = str(tmp_path / "feed.wal")
        self._filled(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 2)
            byte = fh.read(1)
            fh.seek(size - 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with caplog.at_level("WARNING"):
            records = list(FeedWAL.replay(path))
        assert [r.kind for r in records] == [KIND_SNAPSHOT]
        assert any("checksum" in rec.message for rec in caplog.records)

    def test_pending_records_filters_by_source_watermark(self, tmp_path):
        journal = ServiceJournal(str(tmp_path / "j"))
        oids = np.array([1], dtype=np.int64)
        xy = np.array([0.0])
        journal.log_snapshot("a", 1, 1, oids, xy, xy)
        journal.log_snapshot("a", 2, 2, oids, xy, xy)
        journal.log_snapshot("b", 1, 3, oids, xy, xy)
        pending = [(r.src, r.seq) for r in journal.pending_records({"a": 1})]
        assert pending == [("a", 2), ("b", 1)]
        journal.close()


class TestCheckpointAtomicity:
    """A crash anywhere inside write_checkpoint leaves a recoverable pair."""

    def _fed(self, tmp_path):
        service, journal = _durable_service(str(tmp_path / "svc"))
        ticks = _ticks()
        for t, oids, xs, ys in ticks[:2]:
            service.observe(t, oids, xs, ys, seq=t)
        service.checkpoint()  # checkpoint A: applied {"": 2}, empty WAL
        for t, oids, xs, ys in ticks[2:4]:
            service.observe(t, oids, xs, ys, seq=t)
        return service, journal

    def test_partial_checkpoint_write_falls_back_to_previous(self, tmp_path):
        service, journal = self._fed(tmp_path)
        with FAULTS.armed("service.checkpoint.write", partial=10):
            with pytest.raises(InjectedCrash):
                service.checkpoint()
        reopened = ServiceJournal(journal.directory)
        state = reopened.load_checkpoint()
        assert state.applied == {"": 2}  # checkpoint A survived the torn B
        assert [r.seq for r in reopened.pending_records(state.applied)] == [3, 4]
        reopened.close()

    def test_crash_before_rename_keeps_previous_checkpoint(self, tmp_path):
        service, journal = self._fed(tmp_path)
        with FAULTS.armed("service.checkpoint.before-rename"):
            with pytest.raises(InjectedCrash):
                service.checkpoint()
        reopened = ServiceJournal(journal.directory)
        state = reopened.load_checkpoint()
        assert state.applied == {"": 2}
        assert [r.seq for r in reopened.pending_records(state.applied)] == [3, 4]
        reopened.close()

    def test_crash_before_wal_truncate_leaves_stale_but_filtered_wal(
        self, tmp_path
    ):
        service, journal = self._fed(tmp_path)
        with FAULTS.armed("service.checkpoint.before-wal-truncate"):
            with pytest.raises(InjectedCrash):
                service.checkpoint()
        reopened = ServiceJournal(journal.directory)
        state = reopened.load_checkpoint()
        assert state.applied == {"": 4}  # the new checkpoint won the rename
        # The un-truncated WAL still holds seqs 3-4, but every record is
        # at or below the watermark, so replay skips all of them.
        assert len(list(FeedWAL.replay(reopened.wal_path))) == 2
        assert list(reopened.pending_records(state.applied)) == []
        index, _ = catalog.open_index(journal.directory)
        recovered = ConvoyIngestService.recover(Q, reopened, index=index)
        assert recovered.stats.ticks == 4
        assert recovered.stats.recovered_records == 0
        index.close()


class TestServiceRecovery:
    def test_duplicate_seq_is_acknowledged_not_reingested(self):
        service = ConvoyIngestService(Q)
        service.observe(1, [1, 2], [0.0, 1.0], [0.0, 0.0], seq=1)
        assert service.observe(1, [1, 2], [0.0, 1.0], [0.0, 0.0], seq=1) == []
        assert service.stats.duplicates == 1
        assert service.stats.ticks == 1

    def test_bad_input_is_rejected_before_journaling(self, tmp_path):
        service, journal = _durable_service(str(tmp_path / "svc"))
        service.observe(1, [1, 2], [0.0, 1.0], [0.0, 0.0], seq=1)
        with pytest.raises(ValueError, match="non-monotonic"):
            service.observe(1, [1, 2], [0.0, 1.0], [0.0, 0.0], seq=2)
        with pytest.raises(ValueError, match="align"):
            service.observe(2, [1, 2], [0.0], [0.0, 0.0], seq=2)
        # Neither rejected batch reached the WAL, so replay cannot choke.
        assert len(list(FeedWAL.replay(journal.wal_path))) == 1

    def test_kill_and_restart_matches_uninterrupted_run(self, tmp_path):
        """The tentpole property: SIGKILL mid-feed, resume, same convoys."""
        directory = str(tmp_path / "svc")
        service, journal = _durable_service(directory, checkpoint_every=3)
        ticks = _ticks()
        for t, oids, xs, ys in ticks[:4]:
            service.observe(t, oids, xs, ys, seq=t)
        # Kill after tick 5 hits the WAL but before it applies — the worst
        # spot: acknowledged-but-unapplied work only the journal knows.
        FAULTS.arm("service.observe.after-wal")
        t, oids, xs, ys = ticks[4]
        with pytest.raises(InjectedCrash):
            service.observe(t, oids, xs, ys, seq=t)
        FAULTS.disarm()

        # "Restart": reopen the index and journal from disk only.
        index, query = catalog.open_index(directory)
        assert query == Q
        recovered = ConvoyIngestService.recover(
            Q, ServiceJournal(directory, checkpoint_every=3), index=index
        )
        assert recovered.stats.recovered_records >= 1  # tick 5 replayed
        assert recovered.stats.ticks == 5
        assert recovered.applied_seq == {"": 5}

        # A client retry of the batch that died mid-ack deduplicates.
        t, oids, xs, ys = ticks[4]
        assert recovered.observe(t, oids, xs, ys, seq=t) == []
        assert recovered.stats.duplicates == 1

        for t, oids, xs, ys in ticks[5:]:
            recovered.observe(t, oids, xs, ys, seq=t)
        recovered.finish()
        assert _convoy_set(recovered.closed_convoys) == _baseline()
        assert _convoy_set(recovered.index.convoys()) == _baseline()
        index.close()

    def test_ticks_acked_after_a_torn_append_survive_the_next_kill(
        self, tmp_path
    ):
        """Recovery reopens the feed WAL at its valid prefix.

        The tick-4 append dies 5 bytes into its frame.  Ticks 4-6,
        acknowledged by the recovered service, must not land behind the
        torn bytes, where the next recovery's replay would never reach
        them: a client resuming after its last ack would then lose them.
        """
        directory = str(tmp_path / "svc")
        service, _ = _durable_service(directory)
        ticks = _ticks()
        FAULTS.arm("service.wal.append", nth=4, partial=5)
        with pytest.raises(InjectedCrash):
            for t, oids, xs, ys in ticks:
                service.observe(t, oids, xs, ys, seq=t)
        FAULTS.disarm()

        def restart():
            index, _ = catalog.open_index(directory)
            journal = ServiceJournal(directory, checkpoint_every=100)
            return ConvoyIngestService.recover(Q, journal, index=index)

        first = restart()
        assert first.stats.ticks == 3
        for t, oids, xs, ys in ticks[3:6]:
            first.observe(t, oids, xs, ys, seq=t)
        # Killed again before any checkpoint: walk away from ``first``.
        second = restart()
        assert second.stats.ticks == 6
        for t, oids, xs, ys in ticks[6:]:
            second.observe(t, oids, xs, ys, seq=t)
        second.finish()
        assert _convoy_set(second.closed_convoys) == _baseline()
        assert _convoy_set(second.index.convoys()) == _baseline()
        second.index.close()

    def test_recover_refuses_mismatched_shard_topology(self, tmp_path):
        from repro.service.sharding import GridSharder

        directory = str(tmp_path / "svc")
        sharder = GridSharder(2, 2, (0.0, 0.0, 100.0, 100.0), Q.eps)
        index = catalog.create_index(directory, "lsmt", Q)
        journal = ServiceJournal(directory)
        service = ConvoyIngestService(Q, sharder=sharder, index=index, journal=journal)
        service.observe(1, [1, 2], [10.0, 11.0], [10.0, 10.0], seq=1)
        service.checkpoint()

        wrong = GridSharder(3, 3, (0.0, 0.0, 100.0, 100.0), Q.eps)
        with pytest.raises(ValueError, match="shard"):
            ConvoyIngestService.recover(
                Q, ServiceJournal(directory), index=index, sharder=wrong
            )
        # Omitting the sharder rebuilds the checkpointed 2x2 grid instead.
        recovered = ConvoyIngestService.recover(
            Q, ServiceJournal(directory), index=index
        )
        assert recovered.n_shards == 4
        assert recovered.stats.ticks == 1
        index.close()


class TestRetentionCrashRecovery:
    """Crash points on the new bounded-operation paths recover consistently."""

    def _retained_session(self, store):
        return (
            ConvoySession.blank()
            .params(m=Q.m, k=Q.k, eps=Q.eps)
            .store("lsm", store)
            .durable(checkpoint_every=2)
            .retain(window=2)
        )

    def _crash_feed_then_recover(self, session):
        """Feed until the armed point fires, then recover and re-feed all."""
        handle = session.feed()
        with pytest.raises(InjectedCrash):
            for t, oids, xs, ys in _ticks():
                handle.observe(t, oids, xs, ys, seq=t)
            handle.finish()
        FAULTS.disarm()
        resumed = session.feed()  # walk away from the dead handle entirely
        for t, oids, xs, ys in _ticks():
            resumed.observe(t, oids, xs, ys, seq=t)  # duplicates are acked
        resumed.finish()
        return resumed

    def test_crash_mid_eviction_recovers_without_loss_or_duplicates(
        self, tmp_path
    ):
        """Die between the cold append and the live delete, then recover.

        The convoy is briefly both cold and live; recovery re-evicts it
        and the cold reader deduplicates by id, so the merged query sees
        the uninterrupted answer exactly once.
        """
        session = self._retained_session(str(tmp_path / "idx"))
        FAULTS.arm("service.retention.evict")
        resumed = self._crash_feed_then_recover(session)
        merged = resumed.query.time_range(0, 100, include_cold=True)
        assert _convoy_set(merged) == _baseline()
        assert len(merged) == len(_convoy_set(merged))  # no duplicates
        assert resumed.index.evicted_total >= 1
        resumed.close()

    def test_torn_cold_append_is_truncated_on_reopen(self, tmp_path):
        """A partial cold-segment write must not hide later archives."""
        session = self._retained_session(str(tmp_path / "idx"))
        FAULTS.arm("service.cold.append", partial=10)
        resumed = self._crash_feed_then_recover(session)
        # The torn frame was dropped at reopen; recovery re-archived the
        # convoy after it, and the reader sees every archived convoy.
        merged = resumed.query.time_range(0, 100, include_cold=True)
        assert _convoy_set(merged) == _baseline()
        cold_ids = [r.convoy_id for r in resumed.index.cold.records()]
        assert len(cold_ids) == len(set(cold_ids))
        assert resumed.index.evicted_total >= 1
        resumed.close()

    def test_crash_during_wal_rotate_loses_no_records(self, tmp_path):
        path = str(tmp_path / "feed.wal")
        wal = FeedWAL(path, segment_bytes=256)
        oids = np.array([1], dtype=np.int64)
        xy = np.array([0.0])
        appended = []
        FAULTS.arm("service.wal.rotate")
        with pytest.raises(InjectedCrash):
            for seq in range(1, 200):
                wal.append_snapshot("s", seq, seq, oids, xy, xy)
                appended.append(seq)
        # The append that tripped the rotation is durable too: the crash
        # lands after the active file is closed, before the rename.
        crashed_at = appended[-1] + 1
        assert [r.seq for r in FeedWAL.replay(path)] == appended + [crashed_at]

        # A reopened WAL appends (and rotates) past the un-renamed file.
        reopened = FeedWAL(path, segment_bytes=256)
        for seq in range(crashed_at + 1, crashed_at + 40):
            reopened.append_snapshot("s", seq, seq, oids, xy, xy)
        reopened.close()
        replayed = [r.seq for r in FeedWAL.replay(path)]
        assert replayed == list(range(1, crashed_at + 40))
        assert has_durable_state(os.path.dirname(path))

    def test_torn_wal_append_replays_consistent_prefix(self, tmp_path):
        """Die mid-frame inside ``service.wal.append``: a power-cut shape.

        The fourth append emits only 5 of its bytes before the injected
        kill, leaving a torn frame on disk.  Replay must stop at the
        last intact record — never yield a half-frame — and a
        checkpoint's truncate starts the log clean again.
        """
        path = str(tmp_path / "feed.wal")
        wal = FeedWAL(path)
        oids = np.array([1], dtype=np.int64)
        xy = np.array([0.0])
        FAULTS.arm("service.wal.append", nth=4, partial=5)
        with pytest.raises(InjectedCrash):
            for seq in range(1, 10):
                wal.append_snapshot("s", seq, seq, oids, xy, xy)
        FAULTS.disarm()
        # Exactly the three intact records come back; the torn tail is
        # dropped, not decoded.
        assert [r.seq for r in FeedWAL.replay(path)] == [1, 2, 3]

        # Truncating (as a covering checkpoint does) leaves a log that
        # accepts appends with no memory of the torn frame.
        reopened = FeedWAL(path)
        reopened.truncate()
        for seq in (100, 101, 102):
            reopened.append_snapshot("s", seq, seq, oids, xy, xy)
        reopened.close()
        assert [r.seq for r in FeedWAL.replay(path)] == [100, 101, 102]

    def test_compaction_crash_keeps_live_rows_and_redrops_aged_ones(
        self, tmp_path
    ):
        """Die after the merged run is written, before the inputs go.

        The reopened tree sees the merged run shadowing the stale inputs:
        live keys read exactly once.  Rows the drop predicate discarded
        may resurface from the stale runs (upstream, the index's horizon
        filter hides them) until the next compaction drops them again.
        """
        from repro.storage.lsm.tree import LSMTree

        def k(name):  # 16-byte fixed keys, strictly ordered by name
            return name.ljust(16, b"\x00")

        def v(name):
            return name.ljust(16, b"\x00")

        directory = str(tmp_path / "lsm")
        drop_aged = lambda key: key.startswith(b"aged-")  # noqa: E731
        tree = LSMTree(
            directory, memtable_limit=1, compaction_fanin=3,
            drop_predicate=drop_aged,
        )
        tree.put(k(b"aged-1"), v(b"x"))   # flushes per put (limit 1)
        tree.put(k(b"keep-1"), v(b"y"))
        FAULTS.arm("lsm.compact.before-run-remove")
        with pytest.raises(InjectedCrash):
            tree.put(k(b"keep-2"), v(b"z"))  # third run triggers compaction
        assert tree.stats.compaction_drops >= 1

        reopened = LSMTree(directory, compaction_fanin=2)
        assert reopened.get(k(b"keep-1")) == v(b"y")
        assert reopened.get(k(b"keep-2")) == v(b"z")
        scan = list(reopened.range(b"\x00" * 16, b"\xff" * 16))
        assert len(scan) == len({key for key, _ in scan})  # no duplicates

        # Re-arming retention re-drops the aged row at the next merge.
        reopened.set_drop_predicate(drop_aged)
        while reopened.get(k(b"aged-1")) is not None:
            reopened.put(k(b"keep-3"), v(b"w"))
            reopened.flush()
        assert reopened.get(k(b"keep-1")) == v(b"y")
        assert reopened.get(k(b"keep-3")) == v(b"w")
        reopened.close()


class TestSessionDurableResume:
    def test_feed_resumes_after_abandoned_handle(self, tmp_path):
        store = str(tmp_path / "idx")
        session = (
            ConvoySession.blank()
            .params(m=Q.m, k=Q.k, eps=Q.eps)
            .store("lsm", store)
            .durable(checkpoint_every=2)
        )
        ticks = _ticks()
        handle = session.feed()
        for t, oids, xs, ys in ticks[:4]:
            handle.observe(t, oids, xs, ys)
        # SIGKILL simulation: walk away without close()/checkpoint().
        assert has_durable_state(store)

        resumed = session.feed()
        assert resumed.stats.ticks == 4
        for t, oids, xs, ys in ticks[4:]:
            resumed.observe(t, oids, xs, ys)
        resumed.finish()
        assert _convoy_set(resumed.convoys) == _baseline()
        resumed.close()

        # A clean close checkpoints, so the next open replays nothing.
        reopened = session.feed()
        assert reopened.stats.recovered_records == 0
        assert _convoy_set(reopened.convoys) == _baseline()
        reopened.close()

    def test_durable_requires_persistent_store(self):
        session = (
            ConvoySession.blank().params(m=Q.m, k=Q.k, eps=Q.eps).durable()
        )
        with pytest.raises(ValueError, match="persistent"):
            session.feed()
