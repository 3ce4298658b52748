"""On-disk layout of a persistent service index directory.

A serve run leaves behind a self-describing directory::

    <dir>/service.json    # backend "lsmt" + the (m, k, eps) query
    <dir>/convoys.lsm/    # the LSM tree of HEAD/MEMBER/BBOX rows

so a later ``repro-convoy query`` (or another process entirely) can
reopen the index without being told how it was written.  Older builds
could also persist into a B+tree (``"backend": "bptree"``); such a
directory is refused, and has to be served again.
"""

from __future__ import annotations

import json
import os
from typing import Tuple

from ..core.params import ConvoyQuery
from ..storage.lsm.tree import LSMTree
from .index import ConvoyIndex

META_FILE = "service.json"

#: The one persistent index backend, as ``service.json`` names it.
_BACKEND = "lsmt"
_TREE_DIR = "convoys.lsm"


def _require_lsmt(kind: str, where: str) -> None:
    if kind != _BACKEND:
        raise ValueError(
            f"{where}: index backend {kind!r} is not supported; only "
            f"{_BACKEND!r} persists (serve the feed again into a new directory)"
        )


def create_index(directory: str, kind: str, query: ConvoyQuery) -> ConvoyIndex:
    """Create (or reopen) a persistent index directory.

    ``kind`` must be ``"lsmt"``; anything else is refused before the
    directory is touched.  Reopening an existing directory requires the
    same backend and query parameters — an index must never mix convoys
    mined under different ``(m, k, eps)`` while its descriptor claims
    one set.
    """
    _require_lsmt(kind, directory)
    meta_path = os.path.join(directory, META_FILE)
    if os.path.exists(meta_path):
        existing = _read_meta(meta_path)
        wanted = {"m": query.m, "k": query.k, "eps": query.eps}
        if existing["backend"] != kind or existing["query"] != wanted:
            raise ValueError(
                f"{directory} already holds a {existing['backend']} index for "
                f"query {existing['query']}; refusing to mix it with "
                f"{kind}/{wanted}"
            )
    os.makedirs(directory, exist_ok=True)
    index = ConvoyIndex(LSMTree(os.path.join(directory, _TREE_DIR)))
    # The descriptor is written last, so a directory with a meta file is
    # always one whose tree actually opened.
    meta = {
        "format": "repro-convoy-service",
        "backend": kind,
        "query": {"m": query.m, "k": query.k, "eps": query.eps},
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return index


def _read_meta(meta_path: str) -> dict:
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("format") != "repro-convoy-service":
        raise ValueError(f"{meta_path} is not a service index descriptor")
    meta["query"] = {
        "m": int(meta["query"]["m"]),
        "k": int(meta["query"]["k"]),
        "eps": float(meta["query"]["eps"]),
    }
    return meta


def open_index(directory: str) -> Tuple[ConvoyIndex, ConvoyQuery]:
    """Reopen a persisted index directory; returns (index, original query)."""
    meta_path = os.path.join(directory, META_FILE)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{directory} is not a service index (missing {META_FILE})"
        )
    meta = _read_meta(meta_path)
    _require_lsmt(meta["backend"], directory)
    query = ConvoyQuery(**meta["query"])
    return ConvoyIndex(LSMTree(os.path.join(directory, _TREE_DIR))), query
