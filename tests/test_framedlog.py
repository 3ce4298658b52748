"""The framed-log contract, exhaustively, over all four on-disk formats.

``storage/framedlog.py`` sits under the LSM ``wal.log``, the feed WAL,
cold segments and ``checkpoint.bin``.  For each format this cuts the
file at every byte offset and, separately, flips every byte, then
checks that replay yields exactly the longest valid prefix of records:
never a partial record, never one after a bad frame.  For the three
appendable logs it then reopens the writer and appends one record,
which must land right after that prefix: the damaged tail is cut off,
not appended behind.  Golden bytes captured before the codec was shared
pin the three formats it left unchanged.
"""

import bisect
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.types import Convoy
from repro.extensions.streaming import MonitorState
from repro.service.durability import (
    CheckpointState,
    FeedWAL,
    ServiceJournal,
    ShardConfig,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.service.retention import (
    COLD_DIR,
    ColdSegmentReader,
    ColdSegmentStore,
)
from repro.storage.lsm import WriteAheadLog
from repro.storage.record import encode_key, encode_value


def _checkpoint_state():
    return CheckpointState(
        applied={"s": 3},
        stats={"ticks": 3, "points": 6},
        sharder=ShardConfig(2, 2, (0.0, 0.0, 10.0, 10.0), 1.5),
        index_next_id=4,
        chain=MonitorState(
            last_time=3,
            active=(((1, 2), 1),),
            window=((
                3,
                np.array([1, 2], dtype=np.int64),
                np.array([0.5, 1.0]),
                np.array([2.0, 2.5]),
            ),),
        ),
        shards=(MonitorState(last_time=None, active=(), window=()),),
    )


class LsmWal:
    """``wal.log``: headerless, one ``(key, value)`` per frame."""

    name = "lsm-wal"
    header = b""
    records = [
        (encode_key(i, i + 1), encode_value(float(i), i / 2)) for i in range(4)
    ]
    extra = (encode_key(99, 7), encode_value(9.0, 9.5))

    def path(self, directory):
        return os.path.join(directory, "wal.log")

    def write(self, directory, records):
        """Append ``records`` to a reopened log; file size after each."""
        wal = WriteAheadLog(self.path(directory))
        ends = []
        for key, value in records:
            wal.append(key, value)
            ends.append(os.path.getsize(self.path(directory)))
        wal.close()
        return ends

    def replay(self, directory):
        return list(WriteAheadLog.replay(self.path(directory)))


class FeedWal:
    """``feed.wal``: headerless, one snapshot batch or finish per frame."""

    name = "feed-wal"
    header = b""
    records = [
        ("snapshot", 1, 5, [1, 2], [0.0, 1.0], [2.0, 3.0]),
        ("snapshot", 2, 6, [1], [0.5], [-1.0]),
        ("finish", 3),
        ("snapshot", 4, 7, [3, 4, 5], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
    ]
    extra = ("snapshot", 9, 9, [7], [7.0], [7.5])

    def path(self, directory):
        return os.path.join(directory, "feed.wal")

    def write(self, directory, records):
        wal = FeedWAL(self.path(directory))
        ends = []
        for record in records:
            if record[0] == "finish":
                wal.append_finish("s", record[1])
            else:
                _, seq, t, oids, xs, ys = record
                wal.append_snapshot(
                    "s", seq, t, np.array(oids, dtype=np.int64),
                    np.array(xs), np.array(ys),
                )
            ends.append(os.path.getsize(self.path(directory)))
        wal.close()
        return ends

    def replay(self, directory):
        return [
            ("finish", r.seq) if r.oids is None else (
                "snapshot", r.seq, r.t,
                r.oids.tolist(), r.xs.tolist(), r.ys.tolist(),
            )
            for r in FeedWAL.replay(self.path(directory))
        ]


class ColdSegment:
    """``cold/segment-000000.seg``: ``RCS1`` header, one convoy per frame."""

    name = "cold-segment"
    header = b"RCS1\x00\x01\x00\x00"  # magic, u16 version 1, u16 reserved
    records = [
        (1, Convoy.of([1, 2, 3], 0, 4), None),
        (2, Convoy.of([4, 5], 1, 6), (0.0, 1.0, 2.0, 3.0)),
        (3, Convoy.of(list(range(10, 80)), 2, 9), None),
        (4, Convoy.of([6, 7, 8], 3, 5), (-1.0, -2.0, 5.0, 6.0)),
    ]
    extra = (9, Convoy.of([40, 41], 7, 12), (1.5, 2.5, 3.5, 4.5))

    def path(self, directory):
        return os.path.join(directory, COLD_DIR, "segment-000000.seg")

    def write(self, directory, records):
        store = ColdSegmentStore(os.path.join(directory, COLD_DIR))
        ends = []
        for cid, convoy, bbox in records:
            store.append(
                SimpleNamespace(convoy_id=cid, convoy=convoy, bbox=bbox)
            )
            ends.append(os.path.getsize(self.path(directory)))
        store.close()
        return ends

    def replay(self, directory):
        reader = ColdSegmentReader(os.path.join(directory, COLD_DIR))
        return [(c.convoy_id, c.convoy, c.bbox) for c in reader.records()]


class Checkpoint:
    """``checkpoint.bin``: ``RCP1`` header, then the state in one frame.

    Written whole by temp file + rename, so it has no append half.
    """

    name = "checkpoint"
    header = b"RCP1"
    records = [encode_checkpoint(_checkpoint_state())]
    extra = None

    def path(self, directory):
        return os.path.join(directory, "checkpoint.bin")

    def write(self, directory, records):
        journal = ServiceJournal(directory)
        (payload,) = records
        journal.write_checkpoint(decode_checkpoint(payload))
        journal.close()
        return [os.path.getsize(self.path(directory))]

    def replay(self, directory):
        journal = ServiceJournal(directory)
        state = journal.load_checkpoint()
        journal.close()
        return [] if state is None else [encode_checkpoint(state)]


@pytest.fixture(
    params=[LsmWal(), FeedWal(), ColdSegment(), Checkpoint()],
    ids=lambda fmt: fmt.name,
)
def built(request, tmp_path):
    """A format, its file holding every record, and each record's end."""
    fmt = request.param
    directory = str(tmp_path / "built")
    os.makedirs(os.path.join(directory, COLD_DIR))
    ends = fmt.write(directory, fmt.records)
    assert fmt.replay(directory) == fmt.records
    with open(fmt.path(directory), "rb") as handle:
        data = handle.read()
    assert data.startswith(fmt.header)
    return fmt, data, ends


def _check(fmt, tmp_path, data, intact):
    """``data`` replays as the first ``intact`` records, then appends.

    A damaged header (not one merely cut short) marks a foreign file:
    cold segments refuse it, a checkpoint reads as absent.
    """
    directory = str(tmp_path / "work")
    os.makedirs(os.path.join(directory, COLD_DIR), exist_ok=True)
    with open(fmt.path(directory), "wb") as handle:
        handle.write(data)
    damaged = not fmt.header.startswith(data[:len(fmt.header)])
    if damaged and isinstance(fmt, ColdSegment):
        with pytest.raises(ValueError, match="not a cold segment"):
            fmt.replay(directory)
        with pytest.raises(ValueError, match="not a cold segment"):
            fmt.write(directory, [fmt.extra])
        return
    prefix = fmt.records[:intact]
    assert fmt.replay(directory) == prefix
    if fmt.extra is not None:
        fmt.write(directory, [fmt.extra])
        assert fmt.replay(directory) == prefix + [fmt.extra]


def test_cut_at_every_offset_replays_the_longest_valid_prefix(built, tmp_path):
    fmt, data, ends = built
    for cut in range(len(data) + 1):
        _check(fmt, tmp_path, data[:cut], bisect.bisect_right(ends, cut))


def test_flipped_byte_ends_replay_before_its_record(built, tmp_path):
    fmt, data, ends = built
    for offset in range(len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 0xFF
        intact = bisect.bisect_right(ends, offset)
        _check(fmt, tmp_path, bytes(flipped), intact)


class TestGoldenBytes:
    """Files byte-for-byte as written before the codec was shared."""

    def _written(self, fmt, tmp_path, records):
        directory = str(tmp_path)
        os.makedirs(os.path.join(directory, COLD_DIR), exist_ok=True)
        fmt.write(directory, records)
        with open(fmt.path(directory), "rb") as handle:
            return handle.read().hex()

    def test_feed_wal_record(self, tmp_path):
        assert self._written(FeedWal(), tmp_path, FeedWal.records[:1]) == (
            "490a32d500000048010001730000000000000001000000000000000500000002"
            "010000000000000002000000000000000000000000000000000000000000f03f"
            "00000000000000400000000000000840"
        )

    def test_cold_segment_frame(self, tmp_path):
        record = (7, Convoy.of([1, 2, 3], 0, 4), (0.0, 1.0, 2.0, 3.0))
        assert self._written(ColdSegment(), tmp_path, [record]) == (
            "524353310001000063958a36000000a000010000000000070000000000000000"
            "0000000000000000000000000000000400030000000000070000000000000000"
            "0000000000000001000000000000000200030000000000070000000000000001"
            "0000000000000003ffffffffffffffff00020000000000070000000000000000"
            "00000000000000003ff000000000000000020000000000070000000000000001"
            "40000000000000004008000000000000"
        )

    def test_checkpoint(self, tmp_path):
        assert self._written(Checkpoint(), tmp_path, Checkpoint.records) == (
            "5243503168ecf44d0000010e0000000100017300000000000000030000000000"
            "0000030000000000000006000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000100000002000000020000000000000000000000000000000040240000"
            "0000000040240000000000003ff8000000000000000000000000000401000000"
            "0000000003000000010000000000000001000000020100000000000000020000"
            "0000000000000000010000000000000003000000020100000000000000020000"
            "0000000000000000000000e03f000000000000f03f0000000000000040000000"
            "0000000440000000010000000000000000000000000000000000"
        )
