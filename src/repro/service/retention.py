"""Retention: time-partitioned eviction to self-describing cold segments.

A convoy service that runs for months cannot let :class:`ConvoyIndex`
grow without bound.  A :class:`RetentionPolicy` bounds it two ways:

* **keep-window** — closed convoys whose end tick falls more than
  ``window`` ticks behind the feed frontier age out, in
  ``partition``-tick batches (so the row-count ceiling is the window's
  population plus at most one partition width of stragglers);
* **max rows** — a hard row cap, evicting oldest-end-first.

Evicted rows are not lost: before the index forgets a convoy, its rows
are appended to an append-only **cold segment** under the catalog
directory (``cold/segment-NNNNNN.seg``), a :mod:`~repro.storage.framedlog`
file with an 8-byte ``RCS1`` header and one frame per convoy: its HEAD,
MEMBER and BBOX rows in the 16-byte key/value codec the live backends
store (:mod:`repro.service.records`).  A torn tail (crash mid-append)
loses only the final frame, exactly like the feed WAL.
:class:`ColdSegmentReader` scans the segments back into convoys for the
query engine's ``include_cold=`` paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Optional, Tuple

from ..core.types import Convoy
from ..obs import METRICS
from ..storage import framedlog
from ..testing.faults import FAULTS
from .records import (
    TAG_BBOX,
    TAG_HEAD,
    TAG_MEMBER,
    decode_pair,
    decode_result_key,
    decode_xy,
    encode_pair,
    encode_xy,
    member_chunks,
    result_key,
    unpack_members,
)

BBox = Tuple[float, float, float, float]

#: Subdirectory of a catalog dir holding the cold segments.
COLD_DIR = "cold"

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".seg"

_MAGIC = b"RCS1"
_VERSION = 1
_HEADER = _MAGIC + _VERSION.to_bytes(2, "big") + bytes(2)  # + u16 reserved
_NAME = "cold segment"
_ROW = 32  # 16-byte key + 16-byte value

_COLD_BYTES = METRICS.gauge(
    "repro_cold_segment_bytes",
    "Total bytes across this process's cold flatfile segments.",
)
_COLD_SEGMENTS = METRICS.gauge(
    "repro_cold_segments",
    "Cold segment files currently on disk.",
)


@dataclass(frozen=True)
class RetentionPolicy:
    """How much closed-convoy history the live index keeps.

    ``window``
        Keep convoys whose end tick is within ``window`` ticks of the
        feed frontier; older ones age out.  ``None`` disables the
        time bound.
    ``max_rows``
        Hard cap on live index rows, enforced oldest-end-first after
        the window.  ``None`` disables the cap.
    ``partition``
        Eviction granularity in ticks: the window cutoff only advances
        in multiples of ``partition``, so eviction work is batched and
        the live row count overshoots the window by at most one
        partition's worth of convoys.  Defaults to ``window // 8``
        (minimum 1) when a window is set, else 1.
    """

    window: Optional[int] = None
    max_rows: Optional[int] = None
    partition: Optional[int] = None

    def __post_init__(self):
        if self.window is None and self.max_rows is None:
            raise ValueError("retention needs a window and/or max_rows")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.partition is not None and self.partition < 1:
            raise ValueError(f"partition must be >= 1, got {self.partition}")

    @property
    def effective_partition(self) -> int:
        if self.partition is not None:
            return self.partition
        if self.window is not None:
            return max(1, self.window // 8)
        return 1

    def cutoff(self, frontier: int) -> Optional[int]:
        """End ticks strictly below this age out (partition-aligned)."""
        if self.window is None:
            return None
        raw = frontier - self.window
        part = self.effective_partition
        aligned = (raw // part) * part
        return aligned if aligned > 0 else None


def _segment_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"{_SEGMENT_PREFIX}{seq:06d}{_SEGMENT_SUFFIX}")


def _write_cold(handle: BinaryIO, data: bytes) -> None:
    FAULTS.partial_write("service.cold.append", handle, data)


def _segment_files(directory: str) -> List[str]:
    if not os.path.isdir(directory):
        return []
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ]
    return [os.path.join(directory, name) for name in sorted(names)]


def _record_rows(record) -> bytes:
    """One evicted convoy as concatenated 16-byte key/value rows."""
    convoy = record.convoy
    cid = record.convoy_id
    rows = [
        result_key(TAG_HEAD, cid, 0) + encode_pair(convoy.start, convoy.end)
    ]
    for chunk, value in member_chunks(tuple(sorted(convoy.objects))):
        rows.append(result_key(TAG_MEMBER, cid, chunk) + value)
    if record.bbox is not None:
        bbox = record.bbox
        rows.append(result_key(TAG_BBOX, cid, 0) + encode_xy(bbox[0], bbox[1]))
        rows.append(result_key(TAG_BBOX, cid, 1) + encode_xy(bbox[2], bbox[3]))
    return b"".join(rows)


@dataclass(frozen=True)
class ColdConvoy:
    """One convoy recovered from a cold segment."""

    convoy_id: int
    convoy: Convoy
    bbox: Optional[BBox]


class ColdSegmentReader:
    """Read-only view over a ``cold/`` directory (no active writer needed)."""

    def __init__(self, directory: str):
        self.directory = directory

    def records(self) -> List[ColdConvoy]:
        """Every archived convoy, id-ordered, deduplicated by id."""
        out: Dict[int, ColdConvoy] = {}
        for path in _segment_files(self.directory):
            for payload in framedlog.read(path, _NAME, _HEADER).payloads:
                cold = _decode_frame(payload)
                if cold is not None:
                    out[cold.convoy_id] = cold
        return [out[cid] for cid in sorted(out)]

    def time_range(self, start: int, end: int) -> List[ColdConvoy]:
        return [
            cold for cold in self.records()
            if cold.convoy.start <= end and cold.convoy.end >= start
        ]

    def object_history(self, oid: int) -> List[ColdConvoy]:
        return [
            cold for cold in self.records()
            if oid in cold.convoy.objects
        ]

    def bytes_total(self) -> int:
        return sum(os.path.getsize(p) for p in _segment_files(self.directory))

    def segment_count(self) -> int:
        return len(_segment_files(self.directory))

    # A no-op so an index can close its cold attachment uniformly,
    # whether it holds a writer (ColdSegmentStore) or just this reader.
    def close(self) -> None:
        pass


class ColdSegmentStore(ColdSegmentReader):
    """Append-only cold archive of retention-evicted convoys.

    One instance owns a ``cold/`` directory: appends go to the active
    segment (rolled at ``segment_bytes``), reads scan every segment.
    Re-appending a convoy id (possible when a crash lands between the
    cold append and the index eviction and retention re-fires after
    recovery) is harmless: readers keep the last frame per id.
    """

    def __init__(self, directory: str, *, segment_bytes: int = 1 << 20):
        super().__init__(directory)
        if segment_bytes < len(_HEADER) + framedlog.FRAME.size + _ROW:
            raise ValueError(f"segment_bytes too small: {segment_bytes}")
        self.segment_bytes = segment_bytes
        os.makedirs(directory, exist_ok=True)
        existing = _segment_files(directory)
        self._seq = 0
        if existing:
            base = os.path.basename(existing[-1])
            self._seq = int(base[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
        self._log = self._open_segment()
        self._publish_gauges()

    def _open_segment(self) -> framedlog.FramedLog:
        return framedlog.FramedLog(
            _segment_path(self.directory, self._seq), _write_cold, _NAME,
            _HEADER,
        )

    # -- write side -----------------------------------------------------------

    def append(self, record) -> None:
        """Archive one evicted :class:`IndexedConvoy` (one CRC frame)."""
        payload = _record_rows(record)
        if (
            self._log.size > len(_HEADER)
            and self._log.size + framedlog.FRAME.size + len(payload)
            > self.segment_bytes
        ):
            self._log.close()
            self._seq += 1
            self._log = self._open_segment()
        self._log.append(payload)
        self._publish_gauges()

    def close(self) -> None:
        self._log.close()

    def _publish_gauges(self) -> None:
        _COLD_BYTES.set(self.bytes_total())
        _COLD_SEGMENTS.set(self.segment_count())


def _decode_frame(payload: bytes) -> Optional[ColdConvoy]:
    if len(payload) % _ROW:
        return None
    head: Optional[Tuple[int, int, int]] = None  # (cid, start, end)
    member_values: List[bytes] = []
    corners: Dict[int, Tuple[float, float]] = {}
    for offset in range(0, len(payload), _ROW):
        key = payload[offset:offset + 16]
        value = payload[offset + 16:offset + _ROW]
        tag, a, b = decode_result_key(key)
        if tag == TAG_HEAD:
            start, end = decode_pair(value)
            head = (a, start, end)
        elif tag == TAG_MEMBER:
            member_values.append(value)
        elif tag == TAG_BBOX:
            corners[b] = decode_xy(value)
    if head is None:
        return None
    cid, start, end = head
    objects = unpack_members(iter(member_values))
    bbox: Optional[BBox] = None
    if 0 in corners and 1 in corners:
        bbox = (*corners[0], *corners[1])
    return ColdConvoy(cid, Convoy.of(objects, start, end), bbox)
