"""LSM tree and its components: bloom, memtable, WAL, SSTable, compaction."""

import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.interface import IOStats
from repro.storage.lsm import (
    BloomFilter,
    LSMTree,
    MemTable,
    SSTable,
    WriteAheadLog,
    merge_runs,
    write_sstable,
)
from repro.storage.record import encode_key, encode_value


def _key(i: int) -> bytes:
    return encode_key(i // 50, i % 50)


def _value(i: int) -> bytes:
    return encode_value(float(i), float(i) / 2)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.with_capacity(500)
        keys = [_key(i) for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.with_capacity(1000, fp_rate=0.01)
        for i in range(1000):
            bloom.add(_key(i))
        false_positives = sum(1 for i in range(1000, 6000) if _key(i) in bloom)
        assert false_positives / 5000 < 0.05

    def test_serialisation_roundtrip(self):
        bloom = BloomFilter.with_capacity(100)
        bloom.add(b"x" * 16)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert b"x" * 16 in restored
        assert b"y" * 16 not in restored or b"y" * 16 in bloom  # determinism

    def test_bit_positions_are_pinned(self):
        """SSTables on disk carry these bits: the hashing must never move them."""
        bloom = BloomFilter.with_capacity(40)
        for i in range(40):
            bloom.add(encode_key(i // 8, i % 8))
        assert bloom.to_bytes().hex() == (
            "0000017f000000074329ea3439aaf51c8f83fae6e26ff3f62af1c836829bd719"
            "c47549bbe911032696c403d3da33e9f72cf0f823f7d9ca49"
        )


class TestMemTable:
    def test_put_get_overwrite(self):
        table = MemTable()
        table.put(_key(1), _value(1))
        table.put(_key(1), _value(9))
        assert table.get(_key(1)) == _value(9)
        assert len(table) == 1

    def test_range_sorted(self):
        table = MemTable()
        for i in (5, 1, 3, 2, 4):
            table.put(_key(i), _value(i))
        keys = [k for k, _ in table.range(_key(2), _key(4))]
        assert keys == [_key(2), _key(3), _key(4)]

    def test_clear(self):
        table = MemTable()
        table.put(_key(1), _value(1))
        table.clear()
        assert len(table) == 0

    def test_byte_size_is_sum_over_items(self):
        table = MemTable()

        def summed():
            return sum(len(k) + len(v) for k, v in table.items())

        for i in (3, 1, 2):
            table.put(_key(i), _value(i))
            assert table.byte_size == summed()
        table.put(_key(1), b"short")  # overwrite with a shorter value
        assert table.byte_size == summed() == 3 * 32 - 16 + 5
        table.put(_key(1), _value(9))  # and back to full length
        assert table.byte_size == summed() == 3 * 32
        table.clear()
        assert table.byte_size == summed() == 0
        table.put(_key(4), _value(4))
        assert table.byte_size == summed() == 32


class TestWAL:
    def test_replay_returns_writes_in_order(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(b"k1", b"v1")
        wal.append(b"k2", b"v2")
        wal.sync()
        wal.close()
        assert list(WriteAheadLog.replay(path)) == [(b"k1", b"v1"), (b"k2", b"v2")]

    def test_torn_tail_discarded(self, tmp_path):
        path = str(tmp_path / "torn.log")
        wal = WriteAheadLog(path)
        wal.append(b"k1", b"v1")
        wal.sync()
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x02\x00\x00\x00\x02k")  # truncated
        assert list(WriteAheadLog.replay(path)) == [(b"k1", b"v1")]

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "trunc.log")
        wal = WriteAheadLog(path)
        wal.append(b"k1", b"v1")
        wal.truncate()
        wal.close()
        assert list(WriteAheadLog.replay(path)) == []

    def test_replay_missing_file(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "nope.log"))) == []


class TestSSTable:
    def test_write_and_point_reads(self, tmp_path):
        path = str(tmp_path / "run.sst")
        table = write_sstable(path, ((_key(i), _value(i)) for i in range(1000)))
        assert table.num_records == 1000
        assert table.get(_key(123)) == _value(123)
        assert table.get(_key(5000)) is None
        table.close()

    def test_range_scan(self, tmp_path):
        path = str(tmp_path / "run.sst")
        table = write_sstable(path, ((_key(i), _value(i)) for i in range(500)))
        got = [k for k, _ in table.range(_key(100), _key(149))]
        assert got == [_key(i) for i in range(100, 150)]
        table.close()

    def test_min_max_keys(self, tmp_path):
        table = write_sstable(
            str(tmp_path / "mm.sst"), ((_key(i), _value(i)) for i in range(10, 40))
        )
        assert table.min_key == _key(10)
        assert table.max_key == _key(39)
        table.close()

    def test_rejects_unsorted(self, tmp_path):
        with pytest.raises(ValueError):
            write_sstable(
                str(tmp_path / "bad.sst"), [(_key(2), _value(2)), (_key(1), _value(1))]
            )

    def test_reopen(self, tmp_path):
        path = str(tmp_path / "reopen.sst")
        write_sstable(path, ((_key(i), _value(i)) for i in range(100))).close()
        table = SSTable(path)
        assert table.get(_key(42)) == _value(42)
        table.close()

    def test_io_model_counts_logical_block_reads(self, tmp_path):
        """One seek plus the block's bytes per block a read enters."""
        path = str(tmp_path / "io.sst")
        write_sstable(path, ((_key(i), _value(i)) for i in range(300))).close()
        stats = IOStats()
        table = SSTable(path, stats)  # blocks of 128, 128 and 44 records

        def delta(read):
            before = (stats.seeks, stats.bytes_read)
            read()
            return stats.seeks - before[0], stats.bytes_read - before[1]

        assert delta(lambda: table.get(_key(10))) == (1, 4096)
        assert delta(lambda: table.get(_key(290))) == (1, 44 * 32)
        absent = [_key(i) for i in range(300, 10**4)]
        rejected = next(k for k in absent if k not in table.bloom)
        assert delta(lambda: table.get(rejected)) == (0, 0)
        false_positive = next(k for k in absent if k in table.bloom)  # lands in block 2
        assert delta(lambda: table.get(false_positive)) == (1, 44 * 32)
        assert delta(lambda: list(table.range(_key(100), _key(140)))) == (2, 8192)
        assert delta(lambda: list(table.items())) == (3, 300 * 32)
        table.close()

    def test_merge_runs_newest_wins(self, tmp_path):
        old = write_sstable(
            str(tmp_path / "old.sst"), [(_key(1), _value(1)), (_key(2), _value(2))]
        )
        new = write_sstable(str(tmp_path / "new.sst"), [(_key(1), _value(99))])
        merged = dict(merge_runs([new, old]))  # newest first
        assert merged[_key(1)] == _value(99)
        assert merged[_key(2)] == _value(2)
        old.close()
        new.close()


class TestConcurrentReads:
    def test_threads_read_what_one_thread_reads(self, tmp_path):
        """Readers of one run share no file position or block cache."""
        n = 40_000  # 313 blocks
        table = write_sstable(
            str(tmp_path / "shared.sst"), ((_key(i), _value(i)) for i in range(n))
        )
        rng = random.Random(5)
        probes = [rng.randrange(n + n // 10) for _ in range(24_000)]  # ~9% absent
        expected_ranges = {
            j: list(table.range(_key(i), _key(i + 20)))
            for j, i in enumerate(probes)
            if j % 40 == 0
        }
        expected_gets = [table.get(_key(i)) for i in probes]
        got_gets = [None] * len(probes)
        got_ranges, errors = {}, []

        def reader(slot):
            try:
                for j in range(slot, len(probes), 6):
                    got_gets[j] = table.get(_key(probes[j]))
                    if j % 40 == 0:
                        i = probes[j]
                        got_ranges[j] = list(table.range(_key(i), _key(i + 20)))
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        wrong = sum(a != b for a, b in zip(got_gets, expected_gets))
        assert wrong == 0, f"{wrong} of {len(probes)} concurrent gets were wrong"
        assert got_ranges == expected_ranges
        table.close()


class TestLSMTree:
    def test_put_get_through_layers(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=1024) as tree:
            for i in range(200):  # crosses several flushes
                tree.put(_key(i), _value(i))
            for i in range(200):
                assert tree.get(_key(i)) == _value(i)

    def test_overwrite_across_flush(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=512) as tree:
            tree.put(_key(7), _value(7))
            tree.flush()
            tree.put(_key(7), _value(777))
            assert tree.get(_key(7)) == _value(777)
            tree.flush()
            assert tree.get(_key(7)) == _value(777)

    def test_range_merges_layers(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=256) as tree:
            for i in range(0, 100, 2):
                tree.put(_key(i), _value(i))
            tree.flush()
            for i in range(1, 100, 2):
                tree.put(_key(i), _value(i))
            keys = [k for k, _ in tree.range(_key(0), _key(99))]
            assert keys == [_key(i) for i in range(100)]

    def test_wal_recovery_after_crash(self, tmp_path):
        directory = str(tmp_path / "lsm")
        tree = LSMTree(directory, memtable_limit=10**9)  # never auto-flush
        tree.put(_key(1), _value(1))
        tree.put(_key(2), _value(2))
        tree._wal.sync()
        # Simulate a crash: no flush/close; reopen from disk.
        recovered = LSMTree(directory)
        assert recovered.get(_key(1)) == _value(1)
        assert recovered.get(_key(2)) == _value(2)
        recovered.close()

    def test_compaction_collapses_runs(self, tmp_path):
        directory = str(tmp_path / "lsm")
        with LSMTree(directory, memtable_limit=64, compaction_fanin=3) as tree:
            for i in range(300):
                tree.put(_key(i), _value(i))
            tree.flush()
            runs = [f for f in os.listdir(directory) if f.endswith(".sst")]
            assert len(runs) < 3
            for i in range(0, 300, 17):
                assert tree.get(_key(i)) == _value(i)

    def test_bulk_load(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm")) as tree:
            tree.bulk_load((_key(i), _value(i)) for i in range(500))
            assert tree.get(_key(250)) == _value(250)
            assert len(tree) == 500

    def test_reopen_after_close(self, tmp_path):
        directory = str(tmp_path / "lsm")
        with LSMTree(directory, memtable_limit=512) as tree:
            for i in range(100):
                tree.put(_key(i), _value(i))
        with LSMTree(directory) as reopened:
            for i in range(100):
                assert reopened.get(_key(i)) == _value(i)

    @given(
        st.lists(
            st.tuples(st.integers(0, 150), st.integers(0, 10_000)),
            max_size=100,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_model_based_vs_dict(self, tmp_path_factory, operations):
        directory = tmp_path_factory.mktemp("lsm-model")
        model = {}
        with LSMTree(str(directory / "lsm"), memtable_limit=512) as tree:
            for i, value_seed in operations:
                tree.put(_key(i), _value(value_seed))
                model[_key(i)] = _value(value_seed)
            for key, value in model.items():
                assert tree.get(key) == value
            assert dict(tree.range(_key(0), _key(200))) == model
