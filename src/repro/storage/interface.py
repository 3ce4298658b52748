"""Store protocol and I/O accounting.

§5 of the paper derives k/2-hop's storage requirements: fast scans over
benchmark snapshots, fast keyed access by ``(t, oid)`` for everything else.
Every store here implements the same read-side protocol as
:class:`repro.data.Dataset` (so miners are storage-agnostic) and counts its
physical I/O, which the storage benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """I/O counters, accumulated per store instance.

    Stores that read through their own buffers count physical reads.  The
    LSM's SSTable runs are memory-mapped, so the OS page cache is their only
    block cache and they count *logical* block reads instead: one seek plus
    the block's bytes for every block a get or scan enters, cached or not.
    """

    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    range_scans: int = 0
    point_queries: int = 0
    full_scans: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    compaction_drops: int = 0  # live rows aged out during LSM compaction

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def summary(self) -> str:
        return (
            f"pages r/w {self.pages_read}/{self.pages_written}  "
            f"bytes r/w {self.bytes_read}/{self.bytes_written}  "
            f"seeks {self.seeks}  scans {self.full_scans}  "
            f"ranges {self.range_scans}  points {self.point_queries}  "
            f"buffer hit/miss {self.buffer_hits}/{self.buffer_misses}  "
            f"compaction drops {self.compaction_drops}"
        )
