"""Service-level durability: feed WAL, checkpoints, crash recovery.

The storage backends already journal their *own* writes, but a killed
server still lost everything the index cannot hold: the open streaming
candidates, the retained validation window, the last observed tick, and
which feed batches were already applied.  This module makes the whole
ingest pipeline resume mid-feed:

* :class:`FeedWAL` — an append-only :mod:`~repro.storage.framedlog`
  journal of every ingested snapshot batch ``(src, seq, t, oids, xs,
  ys)`` plus feed ``finish`` markers, one frame each.  Appends are
  flushed to the OS per record, so a SIGKILL'd process loses nothing it
  acknowledged.
* **checkpoints** — a periodic atomic snapshot (`checkpoint.bin`, the
  ``RCP1`` header and one frame; temp file + fsync + rename) of the
  global candidate chain, the per-shard monitors, the per-source
  applied-sequence watermarks, the ingest counters and the index id
  watermark.  After a successful checkpoint the WAL is truncated;
  between checkpoints it holds exactly the batches the checkpoint does
  not cover.
* :class:`ServiceJournal` — both halves behind one handle, stored inside
  the service's catalog directory next to ``service.json``.

Recovery (:meth:`ConvoyIngestService.recover
<repro.service.ingest.ConvoyIngestService.recover>`) loads the newest
valid checkpoint, restores the monitors, then replays WAL records whose
sequence number lies past the checkpoint's watermark — re-closing (and
re-indexing, idempotently via the index's maximality update) anything
the crash interrupted.  A torn WAL tail or a partially written
checkpoint temp file is detected by checksum and discarded with a logged
warning; recovery then falls back to the previous consistent state.
"""

from __future__ import annotations

import logging
import os
import struct
import time
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterator, Optional, Tuple

import numpy as np

from ..core.types import Timestamp
from ..extensions.streaming import MonitorState
from ..obs import METRICS
from ..storage import framedlog
from ..testing.faults import FAULTS

logger = logging.getLogger(__name__)

_WAL_APPEND_SECONDS = METRICS.histogram(
    "repro_service_wal_append_seconds",
    "Time to frame + write + flush one feed-WAL record.",
)
_WAL_APPENDS = METRICS.counter(
    "repro_service_wal_appends_total", "Feed-WAL records appended."
)
_WAL_BYTES = METRICS.counter(
    "repro_service_wal_bytes_total", "Bytes appended to the feed WAL."
)
_CHECKPOINT_SECONDS = METRICS.histogram(
    "repro_service_checkpoint_seconds",
    "Time to encode + atomically persist one service checkpoint.",
)
_CHECKPOINT_BYTES = METRICS.counter(
    "repro_service_checkpoint_bytes_total",
    "Bytes written into service checkpoints.",
)

WAL_FILE = "feed.wal"
CHECKPOINT_FILE = "checkpoint.bin"

_WAL_NAME = "feed WAL"
_CHECKPOINT_MAGIC = b"RCP1"

#: WAL record kinds.
KIND_SNAPSHOT = 1
KIND_FINISH = 2

#: Fixed field order of the persisted ingest counters.
STAT_FIELDS = (
    "ticks", "points", "halo_copies", "clusters", "border_merges",
    "closed_convoys", "indexed_convoys", "duplicates", "checkpoints",
)


@dataclass(frozen=True)
class WalRecord:
    """One journaled feed event."""

    kind: int
    src: str
    seq: int
    t: Timestamp = 0
    oids: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ShardConfig:
    """Enough of a :class:`~repro.service.sharding.GridSharder` to rebuild it."""

    nx: int
    ny: int
    bounds: Tuple[float, float, float, float]
    eps: float


@dataclass(frozen=True)
class CheckpointState:
    """Everything a restarted service needs to resume mid-feed."""

    applied: Dict[str, int]  # per-source sequence watermark
    stats: Dict[str, int]  # IngestStats counters (STAT_FIELDS order)
    sharder: Optional[ShardConfig]
    index_next_id: int
    chain: MonitorState
    shards: Tuple[MonitorState, ...]


# -- binary helpers -----------------------------------------------------------


class _Writer:
    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts = [bytearray()]

    def pack(self, fmt: str, *values) -> None:
        self.parts[0] += struct.pack(fmt, *values)

    def raw(self, data: bytes) -> None:
        self.parts[0] += data

    def text(self, value: str) -> None:
        encoded = value.encode()
        self.pack(">H", len(encoded))
        self.raw(encoded)

    def array(self, values: np.ndarray, dtype: str) -> None:
        self.raw(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def getvalue(self) -> bytes:
        return bytes(self.parts[0])


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values if len(values) > 1 else values[0]

    def text(self) -> str:
        length = self.unpack(">H")
        raw = self.data[self.offset : self.offset + length]
        self.offset += length
        return raw.decode()

    def array(self, count: int, dtype: str) -> np.ndarray:
        size = count * np.dtype(dtype).itemsize
        values = np.frombuffer(
            self.data, dtype=dtype, count=count, offset=self.offset
        ).copy()
        self.offset += size
        return values


def _encode_monitor(writer: _Writer, state: MonitorState) -> None:
    writer.pack(">B", 1 if state.last_time is not None else 0)
    writer.pack(">q", state.last_time if state.last_time is not None else 0)
    writer.pack(">I", len(state.active))
    for members, since in state.active:
        writer.pack(">qI", since, len(members))
        writer.array(np.asarray(members, dtype=np.int64), "<i8")
    writer.pack(">I", len(state.window))
    for t, oids, xs, ys in state.window:
        writer.pack(">qI", t, len(oids))
        writer.array(oids, "<i8")
        writer.array(xs, "<f8")
        writer.array(ys, "<f8")


def _decode_monitor(reader: _Reader) -> MonitorState:
    has_last = reader.unpack(">B")
    last_time = reader.unpack(">q")
    n_active = reader.unpack(">I")
    active = []
    for _ in range(n_active):
        since, count = reader.unpack(">qI")
        members = tuple(int(v) for v in reader.array(count, "<i8"))
        active.append((members, since))
    n_window = reader.unpack(">I")
    window = []
    for _ in range(n_window):
        t, count = reader.unpack(">qI")
        oids = reader.array(count, "<i8").astype(np.int64)
        xs = reader.array(count, "<f8").astype(np.float64)
        ys = reader.array(count, "<f8").astype(np.float64)
        window.append((t, oids, xs, ys))
    return MonitorState(
        last_time=last_time if has_last else None,
        active=tuple(active),
        window=tuple(window),
    )


def encode_checkpoint(state: CheckpointState) -> bytes:
    writer = _Writer()
    writer.pack(">I", len(state.applied))
    for src in sorted(state.applied):
        writer.text(src)
        writer.pack(">Q", state.applied[src])
    for name in STAT_FIELDS:
        writer.pack(">Q", int(state.stats.get(name, 0)))
    if state.sharder is None:
        writer.pack(">B", 0)
    else:
        writer.pack(">B", 1)
        writer.pack(">II", state.sharder.nx, state.sharder.ny)
        writer.pack(">dddd", *state.sharder.bounds)
        writer.pack(">d", state.sharder.eps)
    writer.pack(">Q", state.index_next_id)
    _encode_monitor(writer, state.chain)
    writer.pack(">I", len(state.shards))
    for shard_state in state.shards:
        _encode_monitor(writer, shard_state)
    return writer.getvalue()


def decode_checkpoint(payload: bytes) -> CheckpointState:
    reader = _Reader(payload)
    applied: Dict[str, int] = {}
    for _ in range(reader.unpack(">I")):
        src = reader.text()
        applied[src] = reader.unpack(">Q")
    stats = {name: reader.unpack(">Q") for name in STAT_FIELDS}
    sharder = None
    if reader.unpack(">B"):
        nx, ny = reader.unpack(">II")
        bounds = reader.unpack(">dddd")
        eps = reader.unpack(">d")
        sharder = ShardConfig(nx=nx, ny=ny, bounds=tuple(bounds), eps=eps)
    index_next_id = reader.unpack(">Q")
    chain = _decode_monitor(reader)
    shards = tuple(_decode_monitor(reader) for _ in range(reader.unpack(">I")))
    return CheckpointState(
        applied=applied, stats=stats, sharder=sharder,
        index_next_id=index_next_id, chain=chain, shards=shards,
    )


# -- the feed WAL -------------------------------------------------------------


def _wal_segments(path: str) -> list:
    """Sealed (rotated) WAL segment paths for ``path``, oldest first."""
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path) + "."
    if not os.path.isdir(directory):
        return []
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(base) and name[len(base):].isdigit()
    ]
    return [os.path.join(directory, name) for name in sorted(names)]


def _write_wal(handle: BinaryIO, data: bytes) -> None:
    FAULTS.partial_write("service.wal.append", handle, data)


class FeedWAL:
    """Append-only journal of feed events, one framed record per event.

    Each file is a headerless :mod:`~repro.storage.framedlog` file, so a
    torn or bit-flipped tail is detected on replay and the log recovers
    to the last good record; reopening truncates that tail first.

    With ``segment_bytes`` set, the log rotates: once the active file
    (``feed.wal``) exceeds the limit it is atomically renamed to
    ``feed.wal.NNNNNN`` and a fresh active file starts.  Replay walks
    the rotated segments in order, then the active file; truncation
    (after a covering checkpoint) removes the whole chain.  Rotation
    keeps any single append cheap and lets the checkpoint byte budget
    bound total WAL disk between checkpoints.
    """

    def __init__(self, path: str, segment_bytes: Optional[int] = None):
        if segment_bytes is not None and segment_bytes < framedlog.FRAME.size:
            raise ValueError(f"segment_bytes too small: {segment_bytes}")
        self.path = path
        self.segment_bytes = segment_bytes
        rotated = _wal_segments(path)
        self._rotate_seq = (
            int(rotated[-1].rsplit(".", 1)[1]) + 1 if rotated else 0
        )
        self._log = framedlog.FramedLog(path, _write_wal, _WAL_NAME)

    def append_snapshot(
        self,
        src: str,
        seq: int,
        t: Timestamp,
        oids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        writer = _Writer()
        writer.pack(">B", KIND_SNAPSHOT)
        writer.text(src)
        writer.pack(">Qq", seq, t)
        writer.pack(">I", len(oids))
        writer.array(oids, "<i8")
        writer.array(xs, "<f8")
        writer.array(ys, "<f8")
        self._append(writer.getvalue())

    def append_finish(self, src: str, seq: int) -> None:
        writer = _Writer()
        writer.pack(">B", KIND_FINISH)
        writer.text(src)
        writer.pack(">Q", seq)
        self._append(writer.getvalue())

    def _append(self, payload: bytes) -> None:
        with _WAL_APPEND_SECONDS.time():
            written = self._log.append(payload)
        _WAL_APPENDS.inc()
        _WAL_BYTES.inc(written)
        if (
            self.segment_bytes is not None
            and self._log.size >= self.segment_bytes
        ):
            self._rotate()

    def _rotate(self) -> None:
        """Seal the active file as a numbered segment, start a fresh one.

        Crash-safe at every boundary: before the rename the oversized
        active file simply rotates on the next append after reopen;
        after it, the reopened WAL starts a new (empty) active file and
        replay finds the sealed segment by name.
        """
        self._log.close()
        FAULTS.crash_point("service.wal.rotate")
        os.replace(self.path, f"{self.path}.{self._rotate_seq:06d}")
        self._rotate_seq += 1
        self._log = framedlog.FramedLog(self.path, _write_wal, _WAL_NAME)

    def truncate(self) -> None:
        """Discard the log (its contents are covered by a checkpoint)."""
        for segment in _wal_segments(self.path):
            os.remove(segment)
        self._log.truncate()

    def bytes_total(self) -> int:
        """On-disk WAL bytes: sealed segments plus the active file."""
        total = self._log.size
        for segment in _wal_segments(self.path):
            try:
                total += os.path.getsize(segment)
            except OSError:
                pass
        return total

    def close(self) -> None:
        self._log.close()

    @staticmethod
    def replay(path: str) -> Iterator[WalRecord]:
        """Yield verified records in append order; stop at a bad tail.

        Walks sealed segments oldest-first, then the active file.  A
        torn or corrupt record anywhere ends the replay — records after
        it (even in later segments) are beyond the consistent prefix.
        """
        for segment in _wal_segments(path) + [path]:
            scan = framedlog.read(segment, _WAL_NAME)
            for payload in scan.payloads:
                yield FeedWAL._decode(payload)
            if scan.valid < scan.size:
                return

    @staticmethod
    def _decode(payload: bytes) -> WalRecord:
        reader = _Reader(payload)
        kind = reader.unpack(">B")
        src = reader.text()
        if kind == KIND_FINISH:
            seq = reader.unpack(">Q")
            return WalRecord(kind=KIND_FINISH, src=src, seq=seq)
        seq, t = reader.unpack(">Qq")
        count = reader.unpack(">I")
        oids = reader.array(count, "<i8").astype(np.int64)
        xs = reader.array(count, "<f8").astype(np.float64)
        ys = reader.array(count, "<f8").astype(np.float64)
        return WalRecord(
            kind=KIND_SNAPSHOT, src=src, seq=seq, t=t, oids=oids, xs=xs, ys=ys
        )


# -- the journal handle -------------------------------------------------------


class ServiceJournal:
    """WAL + checkpoint pair living inside a service catalog directory.

    Parameters
    ----------
    directory:
        The service's index directory (``catalog.py`` layout); created if
        missing.
    checkpoint_every:
        Snapshot batches between automatic checkpoints.  The knob trades
        checkpoint write cost against WAL replay length after a crash.
    wal_budget_bytes:
        Auto-checkpoint as soon as the WAL (all segments) exceeds this
        many bytes, independent of the record count — so disk usage
        between checkpoints stays bounded even when batches are huge.
        ``None`` disables the byte trigger.
    max_checkpoint_age:
        Auto-checkpoint once this many seconds have passed since the
        last one (only if the WAL holds new records).  ``None`` disables
        the age trigger.
    """

    def __init__(
        self,
        directory: str,
        checkpoint_every: int = 64,
        wal_budget_bytes: Optional[int] = 4 << 20,
        max_checkpoint_age: Optional[float] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if wal_budget_bytes is not None and wal_budget_bytes < 1:
            raise ValueError(
                f"wal_budget_bytes must be >= 1, got {wal_budget_bytes}"
            )
        if max_checkpoint_age is not None and max_checkpoint_age <= 0:
            raise ValueError(
                f"max_checkpoint_age must be > 0, got {max_checkpoint_age}"
            )
        self.directory = directory
        self.checkpoint_every = checkpoint_every
        self.wal_budget_bytes = wal_budget_bytes
        self.max_checkpoint_age = max_checkpoint_age
        # A budget-triggered checkpoint then covers a handful of sealed
        # segments rather than one huge file.
        segment_bytes = None
        if wal_budget_bytes is not None:
            segment_bytes = max(64 * 1024, wal_budget_bytes // 4)
        os.makedirs(directory, exist_ok=True)
        self.wal = FeedWAL(self.wal_path, segment_bytes=segment_bytes)
        self.records_since_checkpoint = 0
        self.last_checkpoint_trigger: Optional[str] = None
        self._last_checkpoint_time = time.monotonic()

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, WAL_FILE)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILE)

    # -- journaling -----------------------------------------------------------

    def log_snapshot(
        self,
        src: str,
        seq: int,
        t: Timestamp,
        oids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        self.wal.append_snapshot(src, seq, t, oids, xs, ys)
        self.records_since_checkpoint += 1

    def log_finish(self, src: str, seq: int) -> None:
        self.wal.append_finish(src, seq)
        self.records_since_checkpoint += 1

    def should_checkpoint(self) -> Optional[str]:
        """The reason a checkpoint is due now, or ``None`` (truthy/falsy).

        Reasons: ``"count"`` (records since the last checkpoint reached
        ``checkpoint_every``), ``"bytes"`` (WAL grew past
        ``wal_budget_bytes``), ``"age"`` (``max_checkpoint_age`` seconds
        elapsed with records pending).
        """
        if self.records_since_checkpoint >= self.checkpoint_every:
            return "count"
        if self.records_since_checkpoint == 0:
            return None
        if (
            self.wal_budget_bytes is not None
            and self.wal.bytes_total() >= self.wal_budget_bytes
        ):
            return "bytes"
        if (
            self.max_checkpoint_age is not None
            and time.monotonic() - self._last_checkpoint_time
            >= self.max_checkpoint_age
        ):
            return "age"
        return None

    # -- checkpointing --------------------------------------------------------

    def write_checkpoint(
        self, state: CheckpointState, trigger: str = "manual"
    ) -> None:
        """Atomically persist ``state``, then truncate the covered WAL.

        Write order is the recovery contract: temp file + fsync, rename
        over ``checkpoint.bin``, directory fsync, *then* WAL truncate.  A
        crash anywhere in between leaves either the old checkpoint with
        the full WAL or the new checkpoint with a (harmlessly) stale WAL
        whose records are filtered out by their sequence numbers.
        """
        with _CHECKPOINT_SECONDS.time():
            blob = _CHECKPOINT_MAGIC + framedlog.frame(encode_checkpoint(state))
            tmp_path = self.checkpoint_path + ".tmp"
            with open(tmp_path, "wb") as handle:
                FAULTS.partial_write("service.checkpoint.write", handle, blob)
                handle.flush()
                os.fsync(handle.fileno())
            FAULTS.crash_point("service.checkpoint.before-rename")
            os.replace(tmp_path, self.checkpoint_path)
            self._fsync_directory()
            FAULTS.crash_point("service.checkpoint.before-wal-truncate")
            self.wal.truncate()
            self.records_since_checkpoint = 0
            self.last_checkpoint_trigger = trigger
            self._last_checkpoint_time = time.monotonic()
        _CHECKPOINT_BYTES.inc(len(blob))

    def load_checkpoint(self) -> Optional[CheckpointState]:
        """The newest valid checkpoint, or ``None`` (fresh or corrupt)."""
        try:
            scan = framedlog.read(
                self.checkpoint_path, "checkpoint", _CHECKPOINT_MAGIC
            )
        except ValueError as exc:
            logger.warning("%s; ignoring it", exc)
            return None
        return decode_checkpoint(scan.payloads[0]) if scan.payloads else None

    def pending_records(
        self, applied: Optional[Dict[str, int]] = None
    ) -> Iterator[WalRecord]:
        """WAL records past the ``applied`` per-source watermarks."""
        watermarks = applied or {}
        for record in FeedWAL.replay(self.wal_path):
            if record.seq > watermarks.get(record.src, 0):
                yield record

    def close(self) -> None:
        self.wal.close()

    def _fsync_directory(self) -> None:
        if not hasattr(os, "O_DIRECTORY"):  # non-POSIX: best effort
            return
        fd = os.open(self.directory, os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def has_durable_state(directory: str) -> bool:
    """True when ``directory`` holds feed-WAL or checkpoint state to resume."""
    wal_path = os.path.join(directory, WAL_FILE)
    return (
        os.path.exists(os.path.join(directory, CHECKPOINT_FILE))
        or os.path.exists(wal_path)
        or bool(_wal_segments(wal_path))
    )
