"""The paper's primary contribution: the k/2-hop convoy miner."""

from .bench_points import HopWindow, benchmark_points, hop_windows
from .bitset import ObjectInterner, is_submask, mask_size
from .enginemode import engine_mode, scalar_engine, set_engine_mode, vectorized_engine
from .k2hop import K2Hop, MiningResult
from .params import ConvoyQuery
from .stats import MiningStats
from .types import (
    Cluster,
    Convoy,
    ConvoySet,
    TimeInterval,
    as_cluster,
    cached_mask,
    maximal_convoys,
    sort_convoys,
    update_maximal,
)

__all__ = [
    "Cluster",
    "Convoy",
    "ConvoySet",
    "ConvoyQuery",
    "ObjectInterner",
    "HopWindow",
    "K2Hop",
    "MiningResult",
    "MiningStats",
    "TimeInterval",
    "as_cluster",
    "benchmark_points",
    "cached_mask",
    "engine_mode",
    "hop_windows",
    "is_submask",
    "mask_size",
    "maximal_convoys",
    "scalar_engine",
    "set_engine_mode",
    "sort_convoys",
    "update_maximal",
    "vectorized_engine",
]
