"""One query, four storage backends — the §5 storage comparison.

Runs the same convoy query against the in-memory store, the flat file, the
B+tree-clustered relational store and the LSM tree via
``ConvoySession.read_from``, and prints each backend's physical I/O
profile (captured on ``result.source_io``; counters include the one-time
store load).  Mirrors the paper's k2-File / k2-RDBMS / k2-LSMT comparison.
Exits nonzero when any backend's convoys differ from the in-memory ones.

Run with::

    python examples/storage_backends.py
"""

import sys
import time

from repro.api import ConvoySession
from repro.data import plant_convoys
from repro.storage import STORE_KINDS


def main() -> int:
    workload = plant_convoys(
        n_convoys=4, convoy_size=5, convoy_duration=30, n_noise=80,
        duration=150, seed=3,
    )
    session = ConvoySession.from_dataset(workload.dataset).params(
        m=4, k=20, eps=workload.eps
    )
    print(
        f"dataset: {workload.dataset.num_points} points, "
        f"{workload.dataset.num_objects} objects\n"
    )

    reference = None
    disagree = []
    for kind in STORE_KINDS:
        started = time.perf_counter()
        result = session.read_from(kind).mine()
        elapsed = time.perf_counter() - started
        if reference is None:
            reference = result.convoys
        agrees = result.convoys == reference
        if not agrees:
            disagree.append(kind)
        print(f"{kind:<8s}  {elapsed * 1e3:8.1f} ms  convoys={len(result.convoys)} "
              f"[{'OK ' if agrees else 'DIFF'}]")
        print(f"          io: {result.source_io or '(in-memory, none)'}")
    if disagree:
        print(f"backends disagree with {STORE_KINDS[0]}: {disagree}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
