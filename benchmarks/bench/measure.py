"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, Sequence

#: Every workload sets up this many times per run and reports the median.
SETUPS = 3


@dataclass
class Outcome:
    """What one workload run measured and whether its output was right."""

    metrics: Dict[str, float]
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 1]); failures sort last as inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM, from Linux ``/proc``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def io_counters(stats) -> Dict[str, int]:
    """A copy of a store's ``IOStats`` counters."""
    return {name: getattr(stats, name) for name in stats.__dataclass_fields__}


#: Scratch space of a run, inside the checkout (removed when it ends).
WORK_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    ".bench_work",
)


def workdir(name: str) -> str:
    """A fresh scratch directory for one run."""
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def cleanup(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)  # gone once the last concurrent run ends
    except OSError:
        pass
