"""Write-ahead log: durability for the memtable between flushes.

``wal.log`` is a headerless :mod:`~repro.storage.framedlog` file; each
frame's payload is one write: ``>I`` key length, the key, then the
value.  Replay keeps every verified entry up to the first torn or
corrupt frame and logs a warning for whatever was dropped — the same
contract real LSM engines ship (RocksDB's ``kTolerateCorruptedTailRecords``).
Reopening cuts that tail off, so writes acknowledged after a crash are
never hidden behind it.

Appends are flushed to the OS on every record, so a killed *process*
(SIGKILL) loses nothing that ``append`` returned for; surviving a killed
*machine* additionally needs :meth:`WriteAheadLog.sync` (fsync), which
callers invoke at their own durability boundary.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator, Tuple

from ...testing.faults import FAULTS
from .. import framedlog

_KEY_LEN = struct.Struct(">I")
_NAME = "WAL"


def _write(handle: BinaryIO, data: bytes) -> None:
    FAULTS.partial_write("lsm.wal.append", handle, data)


class WriteAheadLog:
    """Append-only, checksummed log of key/value writes."""

    def __init__(self, path: str):
        self.path = path
        self._log = framedlog.FramedLog(path, _write, _NAME)

    def append(self, key: bytes, value: bytes) -> None:
        self._log.append(_KEY_LEN.pack(len(key)) + key + value)

    def sync(self) -> None:
        self._log.sync()

    def truncate(self) -> None:
        """Discard the log after a successful memtable flush."""
        self._log.truncate()

    def close(self) -> None:
        self._log.close()

    @staticmethod
    def replay(path: str) -> Iterator[Tuple[bytes, bytes]]:
        """Yield verified entries in write order; stop at a bad tail."""
        for payload in framedlog.read(path, _NAME).payloads:
            (key_len,) = _KEY_LEN.unpack_from(payload)
            split = _KEY_LEN.size + key_len
            yield payload[_KEY_LEN.size:split], payload[split:]
