"""Deterministic cluster simulator for the distributed baselines.

The paper benchmarks SPARE on Spark (single machine, YARN cluster, NUMA box)
and DCM on Hadoop YARN.  We have no cluster, so — per the reproduction's
substitution rule — tasks are executed *really* (their CPU time measured)
and the cluster is *simulated*: the job's wall-clock is computed from the
measured task durations scheduled over ``P`` workers (LPT list scheduling,
the same greedy policy Spark/YARN's locality-free scheduling approximates),
plus per-job and per-task overheads and a bandwidth-limited shuffle.

The simulation preserves exactly what Figures 7d-7g measure: how the
*work/critical-path structure* of each algorithm scales with parallelism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated execution platform."""

    workers: int
    #: Fixed job submission cost (scheduler round trips, container start).
    job_overhead_s: float = 0.0
    #: Cost added to every task (JVM task deserialisation, etc.).
    task_overhead_s: float = 0.0
    #: Shuffle bandwidth in bytes/second (0 disables shuffle cost).
    shuffle_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("cluster needs at least one worker")

    @staticmethod
    def local(workers: int) -> "ClusterSpec":
        """Spark local[P]: negligible scheduling cost, in-memory shuffle."""
        return ClusterSpec(
            workers=workers,
            job_overhead_s=0.1,
            task_overhead_s=0.005,
            shuffle_bandwidth=500e6,
        )

    @staticmethod
    def yarn(workers: int) -> "ClusterSpec":
        """YARN cluster: expensive containers, network shuffle."""
        return ClusterSpec(
            workers=workers,
            job_overhead_s=2.0,
            task_overhead_s=0.05,
            shuffle_bandwidth=100e6,
        )

    @staticmethod
    def standalone(workers: int) -> "ClusterSpec":
        """Spark standalone on one NUMA box: mid-way overheads."""
        return ClusterSpec(
            workers=workers,
            job_overhead_s=0.5,
            task_overhead_s=0.01,
            shuffle_bandwidth=300e6,
        )


def makespan(durations: Sequence[float], workers: int) -> float:
    """LPT (longest processing time first) schedule length on ``workers``."""
    if not durations:
        return 0.0
    loads = [0.0] * min(workers, len(durations))
    heapq.heapify(loads)
    for duration in sorted(durations, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration)
    return max(loads)


@dataclass
class StageReport:
    """Simulated timing of one stage (map wave, shuffle, reduce wave)."""

    name: str
    task_durations: List[float] = field(default_factory=list)
    shuffle_bytes: int = 0

    def simulated_seconds(self, spec: ClusterSpec) -> float:
        padded = [d + spec.task_overhead_s for d in self.task_durations]
        total = makespan(padded, spec.workers)
        if self.shuffle_bytes and spec.shuffle_bandwidth:
            total += self.shuffle_bytes / spec.shuffle_bandwidth
        return total


@dataclass
class JobReport:
    """Simulated timing of one job = ordered stages + job overhead."""

    stages: List[StageReport] = field(default_factory=list)

    def simulated_seconds(self, spec: ClusterSpec) -> float:
        return spec.job_overhead_s + sum(
            stage.simulated_seconds(spec) for stage in self.stages
        )
