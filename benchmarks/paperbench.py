"""Shared harness for the paper-reproduction benchmarks.

Each ``test_fig*.py`` / ``test_table*.py`` module regenerates one figure or
table of §6 of the paper at laptop scale: same workload structure, same
parameter sweeps (scaled to our dataset durations), same comparisons.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.

Datasets are generated once per session and cached; all timings are
single-shot wall-clock (the regime the paper measures — cold queries over
stores, not microbenchmark loops).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.baselines import mine_vcoda, mine_vcoda_star
from repro.core import ConvoyQuery, K2Hop, MiningStats
from repro.data import (
    BrinkhoffConfig,
    BrinkhoffGenerator,
    Dataset,
    TDriveConfig,
    TrucksConfig,
    generate_tdrive,
    generate_trucks,
)
from repro.storage import build_store

# ---------------------------------------------------------------------------
# Workloads (scaled-down stand-ins for §6.2; see DESIGN.md substitutions)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def trucks_dataset() -> Dataset:
    """Trucks-like: small fleet, day-split trajectories (§6.2.1)."""
    return generate_trucks(
        TrucksConfig(n_trucks=12, n_days=3, day_length=120, seed=21)
    )


@lru_cache(maxsize=None)
def tdrive_dataset() -> Dataset:
    """T-Drive-like: taxi fleet, irregular sampling + interpolation (§6.2.2)."""
    return generate_tdrive(TDriveConfig(n_taxis=90, duration=150, seed=33))


@lru_cache(maxsize=None)
def brinkhoff_dataset() -> Dataset:
    """Brinkhoff-style network traffic — the largest workload (§6.2.3)."""
    return BrinkhoffGenerator(
        BrinkhoffConfig(
            max_time=200, obj_begin=120, obj_per_time=4, ext_obj_begin=4,
            routes_per_object=3, seed=13,
        )
    ).generate()


@lru_cache(maxsize=None)
def small_dataset(name: str) -> Dataset:
    """Reduced variants for the expensive distributed comparisons."""
    if name == "trucks":
        return generate_trucks(
            TrucksConfig(n_trucks=8, n_days=2, day_length=80, seed=21)
        )
    if name == "tdrive":
        return generate_tdrive(TDriveConfig(n_taxis=40, duration=80, seed=33))
    if name == "brinkhoff":
        return BrinkhoffGenerator(
            BrinkhoffConfig(max_time=80, obj_begin=60, obj_per_time=2, seed=13)
        ).generate()
    raise ValueError(name)


#: Default queries per dataset: eps tuned to each map's scale so that the
#: workloads contain some — but not wall-to-wall — convoys, mirroring the
#: paper's observation that the convoy is a rare pattern.
DEFAULT_QUERIES: Dict[str, ConvoyQuery] = {
    "trucks": ConvoyQuery(m=3, k=20, eps=40.0),
    "tdrive": ConvoyQuery(m=3, k=20, eps=250.0),
    "brinkhoff": ConvoyQuery(m=3, k=20, eps=30.0),
}

DATASETS: Dict[str, Callable[[], Dataset]] = {
    "trucks": trucks_dataset,
    "tdrive": tdrive_dataset,
    "brinkhoff": brinkhoff_dataset,
}

#: k sweep standing in for the paper's 200..1200 (scaled to our durations).
K_SWEEP = (10, 20, 30, 40, 50, 60)
M_SWEEP = (3, 6, 9)


def eps_sweep(name: str) -> Tuple[float, float, float]:
    """Three-decade eps sweep per dataset (paper: 6e-6 .. 6e-4 degrees)."""
    base = DEFAULT_QUERIES[name].eps
    return (base / 10.0, base, base * 10.0)


# ---------------------------------------------------------------------------
# Timed runners
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    label: str
    seconds: float
    convoys: int
    stats: MiningStats = None


def run_k2(dataset: Dataset, query: ConvoyQuery, store: str = "memory") -> RunResult:
    """Time one cold k/2-hop run over the chosen storage backend."""
    workdir = tempfile.mkdtemp(prefix="k2bench-")
    try:
        source = build_store(store, dataset, workdir)
        started = time.perf_counter()
        result = K2Hop(query).mine(source)
        elapsed = time.perf_counter() - started
        source.close()
        return RunResult(
            label=f"k2-{store}",
            seconds=elapsed,
            convoys=len(result.convoys),
            stats=result.stats,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_vcoda_star(dataset: Dataset, query: ConvoyQuery) -> RunResult:
    started = time.perf_counter()
    convoys = mine_vcoda_star(dataset, query)
    return RunResult("VCoDA*", time.perf_counter() - started, len(convoys))


def run_vcoda(dataset: Dataset, query: ConvoyQuery) -> RunResult:
    started = time.perf_counter()
    convoys = mine_vcoda(dataset, query)
    return RunResult("VCoDA", time.perf_counter() - started, len(convoys))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Paper-style fixed-width table on stdout (visible with ``-s``)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def gain(baseline_seconds: float, ours_seconds: float) -> float:
    """The paper's "Gain": baseline time / k2 time."""
    if ours_seconds <= 0:
        return float("inf")
    return baseline_seconds / ours_seconds


def fmt(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"
