"""The batch workloads: k/2-hop over the LSM store and over memory.

``mine-lsm`` is the paper's regime (rare convoys, most points pruned,
keyed ``(t, oid)`` lookups into the LSM store dominate); ``mine-mem``
mines the same traffic at a wider ``eps`` over the in-memory store, where
little is pruned and HWMT, extension and validation compute dominate.  A
storage change should move the first and not the second.
"""

from __future__ import annotations

import os
import time
from statistics import median

from inputs import MINE_LSM_QUERY, MINE_MEM_QUERY, mining_dataset
from measure import SETUPS, Outcome, cleanup, io_counters, peak_rss_mb, workdir
from probes import STORAGE_SPANS, Spans, TimedSource

from repro.core import K2Hop, scalar_engine
from repro.core.stats import PHASES
from repro.storage import LSMTStore, MemoryStore

#: Fewest timed mines per run, whatever ``--seconds`` says.
MIN_MINES = 3


def run(workload: str, size: str, seed: int, seconds: float,
        trace: bool) -> Outcome:
    query = MINE_LSM_QUERY if workload == "mine-lsm" else MINE_MEM_QUERY
    work = workdir(workload)
    store = None
    try:
        setups = []
        for attempt in range(SETUPS):
            if store is not None:
                store.close()
            started = time.perf_counter()
            dataset = mining_dataset(size, seed)
            if workload == "mine-lsm":
                store = LSMTStore.create(
                    os.path.join(work, f"lsm-{attempt}"), dataset
                )
            else:
                store = MemoryStore(dataset)
            setups.append(time.perf_counter() - started)
        miner = K2Hop(query)
        expected = miner.mine(store).convoys  # warm-up, untimed
        if trace:
            outcome = _traced(miner, store, seconds)
        else:
            times = []
            deadline = time.perf_counter() + seconds
            while len(times) < MIN_MINES or time.perf_counter() < deadline:
                started = time.perf_counter()
                result = miner.mine(store)
                times.append(time.perf_counter() - started)
                if result.convoys != expected:
                    raise AssertionError("repeated mines disagree")
            outcome = Outcome(
                metrics={
                    "setup_s": median(setups),
                    "op_p50_ms": median(times) * 1e3,
                    "rss_peak_mb": peak_rss_mb(),
                },
                attempted=len(times) + 1,
            )
        outcome.problems += _check(workload, query, dataset, expected)
        return outcome
    finally:
        if store is not None:
            store.close()
        cleanup(work)


def _check(workload, query, dataset, convoys) -> list:
    """The correctness gate, outside the timed region.

    mine-lsm must equal the in-memory result; mine-mem must equal the
    scalar (loop-based) engine, the repository's reference path.
    """
    if workload == "mine-lsm":
        reference = K2Hop(query).mine(MemoryStore(dataset)).convoys
        label = "the MemoryStore result"
    else:
        with scalar_engine():
            reference = K2Hop(query).mine(MemoryStore(dataset)).convoys
        label = "the scalar-engine result"
    if convoys != reference:
        return [f"{workload}: {len(convoys)} convoys differ from {label} "
                f"({len(reference)} convoys)"]
    return []


def _traced(miner, store, seconds: float) -> Outcome:
    """Alternate bare and probed mines; per-layer numbers per mine."""
    spans = Spans()
    probed = TimedSource(store, spans)
    bare, traced, phases, stats = [], [], {p: 0.0 for p in PHASES}, None
    io = {}
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_MINES or time.perf_counter() < deadline:
        started = time.perf_counter()
        miner.mine(store)
        bare.append(time.perf_counter() - started)
        before = io_counters(store.stats)
        started = time.perf_counter()
        stats = miner.mine(probed).stats
        traced.append(time.perf_counter() - started)
        for name, value in io_counters(store.stats).items():
            io[name] = io.get(name, 0) + value - before[name]
        for phase, spent in stats.phase_times.items():
            phases[phase] += spent
    n = len(traced)
    wall = sum(traced) / n
    storage_s = spans.total(STORAGE_SPANS) / n
    points = sum(spans.items[name] for name in STORAGE_SPANS)
    metrics = {
        "storage.s": storage_s,
        "storage.share": storage_s / wall,
        "storage.io.bytes_read": io["bytes_read"] / n,
        "storage.io.bytes_per_point": io["bytes_read"] / max(points, 1),
        "storage.io.seeks": io["seeks"] / n,
        "core.compute_s": wall - storage_s,
        "core.points_processed": stats.points_processed,
        "core.pruning_ratio": stats.pruning_ratio,
        "core.candidates": stats.candidate_cluster_count,
        "core.pre_validation_convoys": stats.pre_validation_convoy_count,
        "core.convoys": stats.convoy_count,
        "core.validation_yield": (
            stats.convoy_count / max(stats.pre_validation_convoy_count, 1)
        ),
        "trace.overhead_frac": median(traced) / median(bare) - 1.0,
        "trace.coverage": sum(phases.values()) / n / wall,
        "trace.wall_s": wall,
    }
    for name in STORAGE_SPANS:
        metrics[f"{name}.calls"] = spans.calls[name] / n
        metrics[f"{name}.s"] = spans.seconds[name] / n
        metrics[f"{name}.points"] = spans.items[name] / n
    for phase, spent in phases.items():
        metrics[f"core.phase_s.{phase}"] = spent / n
    return Outcome(metrics=metrics, attempted=len(bare) + n + 1)
