"""Trajectory stores (§5): memory, flat file, relational B+tree, LSM.

:func:`build_store` builds any of the :data:`STORE_KINDS` from a dataset.
"""

from .bptree import BPlusTree
from .flatfile import FlatFileStore
from .interface import IOStats
from .kinds import STORE_KINDS, build_store
from .lsm.tree import LSMTree
from .lsmstore import LSMTStore
from .memory import MemoryStore
from .pager import PAGE_SIZE, BufferPool, Pager
from .record import decode_key, decode_value, encode_key, encode_value
from .relational import RelationalStore

__all__ = [
    "BPlusTree",
    "BufferPool",
    "FlatFileStore",
    "IOStats",
    "LSMTStore",
    "LSMTree",
    "MemoryStore",
    "PAGE_SIZE",
    "Pager",
    "RelationalStore",
    "STORE_KINDS",
    "build_store",
    "decode_key",
    "decode_value",
    "encode_key",
    "encode_value",
]
