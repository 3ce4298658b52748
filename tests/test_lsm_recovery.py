"""LSM crash consistency: checksummed WAL recovery and injected kills."""

import os

import pytest

from repro.storage.lsm import LSMTree, WriteAheadLog
from repro.storage.record import encode_key, encode_value
from repro.testing import FAULTS, InjectedCrash


def _key(i: int) -> bytes:
    return encode_key(i // 50, i % 50)


def _value(i: int) -> bytes:
    return encode_value(float(i), float(i) / 2)


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


class TestWalCorruption:
    def _filled(self, path, n=20):
        wal = WriteAheadLog(path)
        for i in range(n):
            wal.append(_key(i), _value(i))
        wal.close()

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        self._filled(path)
        entries = list(WriteAheadLog.replay(path))
        assert entries == [(_key(i), _value(i)) for i in range(20)]

    def test_torn_tail_recovers_to_last_good_record(self, tmp_path, caplog):
        path = str(tmp_path / "wal.log")
        self._filled(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)  # tear the final record mid-payload
        with caplog.at_level("WARNING"):
            entries = list(WriteAheadLog.replay(path))
        assert entries == [(_key(i), _value(i)) for i in range(19)]
        assert any("torn" in rec.message for rec in caplog.records)

    def test_bit_flip_detected_by_checksum(self, tmp_path, caplog):
        path = str(tmp_path / "wal.log")
        self._filled(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:  # flip one byte inside the last record
            fh.seek(size - 3)
            byte = fh.read(1)
            fh.seek(size - 3)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with caplog.at_level("WARNING"):
            entries = list(WriteAheadLog.replay(path))
        assert entries == [(_key(i), _value(i)) for i in range(19)]
        assert any("checksum" in rec.message for rec in caplog.records)

    def test_torn_append_via_fault_injection(self, tmp_path):
        """A crash mid-append leaves a tail that replay drops cleanly."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(_key(0), _value(0))
        with FAULTS.armed("lsm.wal.append", partial=5):
            with pytest.raises(InjectedCrash):
                wal.append(_key(1), _value(1))
        wal.close()
        assert list(WriteAheadLog.replay(path)) == [(_key(0), _value(0))]

    def test_garbage_prefix_drops_everything(self, tmp_path, caplog):
        path = str(tmp_path / "wal.log")
        self._filled(path, n=3)
        with open(path, "r+b") as fh:  # corrupt the very first record
            fh.write(b"\xff" * 4)
        with caplog.at_level("WARNING"):
            assert list(WriteAheadLog.replay(path)) == []


class TestLsmKillAndRestart:
    def _tree(self, directory, **kw):
        return LSMTree(str(directory), memtable_limit=64 * 1024, **kw)

    def test_kill_between_run_write_and_wal_truncate(self, tmp_path):
        """The satellite case: run written, WAL not yet truncated.

        Replay re-inserts the flushed rows into the memtable where they
        shadow the identical run rows — nothing lost, nothing duplicated.
        """
        directory = tmp_path / "lsm"
        tree = self._tree(directory)
        rows = {(i): (_key(i), _value(i)) for i in range(100)}
        for key, value in rows.values():
            tree.put(key, value)
        FAULTS.arm("lsm.flush.before-wal-truncate")
        with pytest.raises(InjectedCrash):
            tree.flush()
        FAULTS.disarm()
        # The crashed process never closed anything; reopen from disk.
        reopened = self._tree(directory)
        assert os.path.getsize(os.path.join(str(directory), "wal.log")) > 0
        for key, value in rows.values():
            assert reopened.get(key) == value
        assert len(reopened) == len(rows)
        reopened.close()

    def test_kill_before_any_flush_replays_wal(self, tmp_path):
        directory = tmp_path / "lsm"
        tree = self._tree(directory)
        for i in range(50):
            tree.put(_key(i), _value(i))
        # SIGKILL simulation: drop the handle without flush/close.  The
        # per-append flush has already pushed every record to the OS.
        del tree
        reopened = self._tree(directory)
        for i in range(50):
            assert reopened.get(_key(i)) == _value(i)
        reopened.close()

    def test_writes_after_a_torn_put_survive_the_next_kill(self, tmp_path):
        """Reopening cuts a torn WAL tail before appending behind it.

        Replay stops at the first bad frame, so puts acknowledged after
        the restart would be lost to the next kill if they were appended
        behind the torn bytes.
        """
        directory = tmp_path / "lsm"
        tree = self._tree(directory)
        for i in range(5):
            tree.put(_key(i), _value(i))
        with FAULTS.armed("lsm.wal.append", partial=5):
            with pytest.raises(InjectedCrash):
                tree.put(_key(99), _value(99))
        reopened = self._tree(directory)
        for i in range(5, 10):
            reopened.put(_key(i), _value(i))
        del tree, reopened  # SIGKILL: no flush, no close
        again = self._tree(directory)
        for i in range(10):
            assert again.get(_key(i)) == _value(i)
        assert again.get(_key(99)) is None  # never acknowledged
        again.close()

    def test_deletes_survive_the_same_crash(self, tmp_path):
        directory = tmp_path / "lsm"
        tree = self._tree(directory)
        for i in range(30):
            tree.put(_key(i), _value(i))
        tree.flush()
        for i in range(0, 30, 2):
            tree.delete(_key(i))
        FAULTS.arm("lsm.flush.before-wal-truncate")
        with pytest.raises(InjectedCrash):
            tree.flush()
        FAULTS.disarm()
        reopened = self._tree(directory)
        for i in range(30):
            expected = None if i % 2 == 0 else _value(i)
            assert reopened.get(_key(i)) == expected
        reopened.close()


class TestFaultInjector:
    def test_nth_hit_countdown(self):
        FAULTS.arm("lsm.flush.before-wal-truncate", nth=3)
        FAULTS.crash_point("lsm.flush.before-wal-truncate")
        FAULTS.crash_point("lsm.flush.before-wal-truncate")
        with pytest.raises(InjectedCrash) as excinfo:
            FAULTS.crash_point("lsm.flush.before-wal-truncate")
        assert excinfo.value.point == "lsm.flush.before-wal-truncate"
        # disarmed after firing
        FAULTS.crash_point("lsm.flush.before-wal-truncate")

    def test_injected_crash_is_not_an_exception_subclass(self):
        # `except Exception` recovery paths must not swallow the kill.
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedCrash, BaseException)

    def test_armed_context_disarms_on_exit(self):
        with FAULTS.armed("p", nth=5):
            assert FAULTS.hits("p") == 0
            FAULTS.crash_point("p")
        FAULTS.crash_point("p")  # no longer armed
