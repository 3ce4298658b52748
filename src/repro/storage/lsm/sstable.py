"""SSTable: immutable sorted run on disk.

Layout::

    [block 0][block 1]...[block n-1][bloom][index][footer]

Blocks hold consecutive fixed-size records (16-byte key + 16-byte value).
The sparse index maps each block's first key to its offset, so a point
lookup is: bloom check -> binary search of the in-memory index -> binary
search within one block's records.  Range scans start at the block
containing ``lo`` and read forward.  Exactly the access profile §5.2 wants:
co-located timestamp runs for benchmark scans, single-block point gets.

A run is read through a read-only memory map: records are sliced straight
out of it, so the OS page cache is the block cache and concurrent readers
share no file position.  With no cache in user space, ``IOStats`` counts
logical block reads: a get that passes the bloom and lands in a block
counts one seek plus that block's bytes, a get the bloom rejects counts
nothing, and ``range``/``items`` count the same for every block they enter.
"""

from __future__ import annotations

import mmap
import os
import struct
from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

from ..interface import IOStats
from ..record import KEY_SIZE, RECORD_SIZE
from .bloom import BloomFilter

_FOOTER = struct.Struct(">QQQQ4s")  # bloom_off, index_off, n_records, n_blocks, magic
_MAGIC = b"SST1"
BLOCK_RECORDS = 128  # 4 KiB blocks
BLOCK_SIZE = BLOCK_RECORDS * RECORD_SIZE


def write_sstable(
    path: str, entries: Iterable[Tuple[bytes, bytes]], stats: Optional[IOStats] = None
) -> "SSTable":
    """Write sorted unique entries to a new SSTable file and open it."""
    index: List[Tuple[bytes, int]] = []
    n_records = 0
    previous: Optional[bytes] = None
    keys_for_bloom: List[bytes] = []
    with open(path, "wb") as handle:
        block: List[bytes] = []

        def flush_block() -> None:
            nonlocal block
            if block:
                index.append((block[0][:KEY_SIZE], handle.tell()))
                handle.write(b"".join(block))
                block = []

        for key, value in entries:
            if previous is not None and key <= previous:
                raise ValueError("sstable entries must be strictly ascending")
            previous = key
            record = key + value
            if len(record) != RECORD_SIZE:
                raise ValueError("fixed-size records expected")
            block.append(record)
            keys_for_bloom.append(key)
            n_records += 1
            if len(block) == BLOCK_RECORDS:
                flush_block()
        flush_block()

        bloom = BloomFilter.with_capacity(n_records)
        for key in keys_for_bloom:
            bloom.add(key)
        bloom_off = handle.tell()
        bloom_bytes = bloom.to_bytes()
        handle.write(struct.pack(">I", len(bloom_bytes)))
        handle.write(bloom_bytes)

        index_off = handle.tell()
        for first_key, offset in index:
            handle.write(first_key)
            handle.write(struct.pack(">Q", offset))
        handle.write(
            _FOOTER.pack(bloom_off, index_off, n_records, len(index), _MAGIC)
        )
    if stats is not None:
        stats.bytes_written += os.path.getsize(path)
    return SSTable(path, stats)


class SSTable:
    """Read-only view of one sorted run."""

    def __init__(self, path: str, stats: Optional[IOStats] = None):
        self.path = path
        self.stats = stats if stats is not None else IOStats()
        with open(path, "rb") as handle:
            self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        bloom_off, index_off, self.num_records, n_blocks, magic = _FOOTER.unpack(
            self._map[-_FOOTER.size :]
        )
        if magic != _MAGIC:
            raise ValueError(f"{path} is not an SSTable")
        (bloom_len,) = struct.unpack(">I", self._map[bloom_off : bloom_off + 4])
        self.bloom = BloomFilter.from_bytes(
            self._map[bloom_off + 4 : bloom_off + 4 + bloom_len]
        )
        entries = range(index_off, index_off + n_blocks * (KEY_SIZE + 8), KEY_SIZE + 8)
        self._index_keys = [self._map[at : at + KEY_SIZE] for at in entries]
        offsets = [
            struct.unpack(">Q", self._map[at + KEY_SIZE : at + KEY_SIZE + 8])[0]
            for at in entries
        ]
        # Records are fixed-size and the blocks contiguous, so block b starts
        # at b * BLOCK_SIZE and a get can slice it without an offset table.
        self._data_end = self.num_records * RECORD_SIZE
        if bloom_off != self._data_end or offsets != list(
            range(0, self._data_end, BLOCK_SIZE)
        ):
            raise ValueError(f"{path}: blocks are not contiguous fixed-size records")

    # -- reads ---------------------------------------------------------------

    @property
    def min_key(self) -> Optional[bytes]:
        return self._index_keys[0] if self._index_keys else None

    @property
    def max_key(self) -> Optional[bytes]:
        if not self.num_records:
            return None
        return self._map[self._data_end - RECORD_SIZE : self._data_end - KEY_SIZE]

    def _enter_block(self, block_no: int) -> Tuple[int, int]:
        """Byte span ``[start, end)`` of one block, counted as one block read."""
        start = block_no * BLOCK_SIZE
        end = min(start + BLOCK_SIZE, self._data_end)
        self.stats.seeks += 1
        self.stats.bytes_read += end - start
        return start, end

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup (bloom-checked): binary search within one block."""
        if key not in self.bloom:
            return None
        block_no = bisect_right(self._index_keys, key) - 1
        if block_no < 0:
            return None
        start, end = self._enter_block(block_no)
        data = self._map
        lo, hi = 0, (end - start) // RECORD_SIZE
        while lo < hi:
            mid = (lo + hi) >> 1
            offset = start + mid * RECORD_SIZE
            probe = data[offset : offset + KEY_SIZE]
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                return data[offset + KEY_SIZE : offset + RECORD_SIZE]
        return None

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Yield entries with ``lo <= key <= hi`` in key order."""
        for key, value in self._scan(max(0, bisect_right(self._index_keys, lo) - 1)):
            if key > hi:
                return
            if key >= lo:
                yield key, value

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return self._scan(0)

    def _scan(self, first_block: int) -> Iterator[Tuple[bytes, bytes]]:
        """Every record from the start of ``first_block`` on, in key order."""
        data = self._map
        for block_no in range(first_block, len(self._index_keys)):
            start, end = self._enter_block(block_no)
            for offset in range(start, end, RECORD_SIZE):
                yield data[offset : offset + KEY_SIZE], data[
                    offset + KEY_SIZE : offset + RECORD_SIZE
                ]

    def close(self) -> None:
        self._map.close()
