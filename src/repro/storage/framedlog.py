"""Framed log: the one on-disk codec under every append-only file.

The LSM ``wal.log``, the service feed WAL and its sealed segments, the
cold segments and ``checkpoint.bin`` all hold an optional fixed header,
then frames ``[u32 crc32(payload)][u32 len(payload)][payload]``
(big-endian).  A scan keeps every verified frame up to the first torn or
corrupt one, whose length field can no longer be trusted to find the
next, and logs one warning for what it dropped.  So an append handle
reopens a file at its *valid prefix*: a record appended after a crash
never sits behind a torn tail.

Callers keep their payload codec, file naming and crash points: each
passes a ``write(handle, data)`` hook that puts a frame on disk through
its own ``FAULTS.partial_write``.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from typing import BinaryIO, Callable, List, NamedTuple

logger = logging.getLogger(__name__)

FRAME = struct.Struct(">II")  # crc32(payload), len(payload)

Write = Callable[[BinaryIO, bytes], None]


class Scan(NamedTuple):
    """The verified frames of one file."""

    payloads: List[bytes]
    valid: int  # bytes in the verified prefix, header included
    size: int  # bytes on disk; 0 when the file is missing


def frame(payload: bytes) -> bytes:
    return FRAME.pack(zlib.crc32(payload), len(payload)) + payload


def read(path: str, name: str, header: bytes = b"") -> Scan:
    """Scan ``path``: its ``header``, then frames up to the first bad one.

    A missing file, or one shorter than ``header``, reads as empty; one
    that starts with other bytes is not a ``name`` and raises
    :class:`ValueError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return Scan([], 0, 0)
    if len(data) < len(header):
        return Scan([], 0, len(data))
    if not data.startswith(header):
        raise ValueError(
            f"{path}: not a {name} (header {data[:len(header)]!r})"
        )
    payloads = []
    offset = len(header)
    while offset < len(data):
        start = offset + FRAME.size
        if start > len(data):
            reason = "torn frame header"
        else:
            crc, length = FRAME.unpack_from(data, offset)
            payload = data[start:start + length]
            if len(payload) < length:
                reason = "torn frame"
            elif zlib.crc32(payload) != crc:
                reason = "checksum mismatch"
            else:
                payloads.append(payload)
                offset = start + length
                continue
        logger.warning(
            "%s %s: %s at offset %d (%d bytes dropped)",
            name, path, reason, offset, len(data) - offset,
        )
        break
    return Scan(payloads, offset, len(data))


class FramedLog:
    """Append handle on one framed file, opened at its valid prefix.

    Opening writes only when it must: it truncates a torn tail, and
    gives a new file (or one with a torn header) its header.  Each
    :meth:`append` is flushed to the OS, so a killed process loses
    nothing an append returned for; a killed machine also needs
    :meth:`sync`.
    """

    def __init__(self, path: str, write: Write, name: str, header: bytes = b""):
        self.path = path
        self._write = write
        self._header = header
        scan = read(path, name, header)
        if scan.valid < len(header):
            self._file = self._create()
        else:
            if scan.valid < scan.size:
                os.truncate(path, scan.valid)
            self._file = open(path, "ab")
        #: Bytes in the file, header included.
        self.size = self._file.tell()

    def _create(self) -> BinaryIO:
        handle = open(self.path, "wb")
        handle.write(self._header)
        handle.flush()
        return handle

    def append(self, payload: bytes) -> int:
        """Write and flush one frame; returns its size in bytes."""
        data = frame(payload)
        self._write(self._file, data)
        self._file.flush()
        self.size += len(data)
        return len(data)

    def truncate(self) -> None:
        """Drop every frame, keeping the header."""
        self._file.close()
        self._file = self._create()
        self.size = len(self._header)

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()
