"""Density-based clustering substrate (DBSCAN + spatial indexes)."""

from .csr import build_neighbor_csr, csr_degrees
from .dbscan import (
    cluster_snapshot,
    cluster_snapshot_with_cores,
    dbscan_labels,
    dbscan_labels_scalar,
    dbscan_reference,
    density_cluster_indices,
    density_cluster_indices_scalar,
)
from .grid import GridIndex
from .neighbors import BruteForceIndex
from .unionfind import UnionFind
from .whole import one_cluster_ticks

__all__ = [
    "BruteForceIndex",
    "GridIndex",
    "UnionFind",
    "build_neighbor_csr",
    "cluster_snapshot",
    "cluster_snapshot_with_cores",
    "csr_degrees",
    "dbscan_labels",
    "dbscan_labels_scalar",
    "dbscan_reference",
    "density_cluster_indices",
    "density_cluster_indices_scalar",
    "one_cluster_ticks",
]
