"""The trajectory-store kinds of §5 and the one function that builds them.

The paper runs k/2-hop over four access paths: the dataset in memory, a
flat file (k2-File), a relational table clustered on ``(t, oid)``
(k2-RDBMS; here the B+tree of :mod:`repro.storage.bptree`) and an LSM
tree (k2-LSMT).  ``ConvoySession.read_from``, the CLI's ``mine --store``
and the paper benchmarks all build their store through
:func:`build_store`.
"""

from __future__ import annotations

import os
from typing import Optional

from ..data.dataset import Dataset
from .flatfile import FlatFileStore
from .lsmstore import LSMTStore
from .memory import MemoryStore
from .relational import RelationalStore

#: Trajectory-store kinds a batch mine can read from.
STORE_KINDS = ("memory", "file", "rdbms", "lsmt")

#: What each on-disk kind writes under its directory.
_FILE_NAMES = {"file": "data.bin", "rdbms": "data.db", "lsmt": "lsm"}


def build_store(kind: str, dataset: Dataset, directory: Optional[str] = None):
    """Load ``dataset`` into a fresh store of ``kind``.

    The on-disk kinds write ``data.bin`` (file), ``data.db`` (rdbms) or
    the ``lsm/`` directory (lsmt) under ``directory``; ``memory`` writes
    nothing and needs no directory.
    """
    if kind == "memory":
        return MemoryStore(dataset)
    if kind not in _FILE_NAMES:
        raise ValueError(
            f"unknown trajectory store {kind!r}; choose from {STORE_KINDS}"
        )
    if directory is None:
        raise ValueError(f"trajectory store {kind!r} needs a directory")
    path = os.path.join(directory, _FILE_NAMES[kind])
    if kind == "file":
        return FlatFileStore.create(path, dataset)
    if kind == "rdbms":
        return RelationalStore.create(path, dataset)
    return LSMTStore.create(path, dataset)
