"""The benchmark's server process for the HTTP workloads.

Builds the workload's service through ``ConvoySession``, serves it with
``serve_in_background`` and prints one JSON line ``{"host", "port"}``
once it accepts requests.  It serves until its standard input closes,
then stops gracefully (drain, final checkpoint, close) and exits.  The
load generator runs in another process, so the two never share an
interpreter lock::

    python3 benchmarks/bench/server.py --workload feed --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"), HERE]

from inputs import (  # noqa: E402
    FEED_CHECKPOINT_EVERY,
    FEED_HISTORY,
    FEED_RETAIN_WINDOW,
    FEED_SHARDS,
    REGION_CELL,
    SERVE_QUERY,
    feed_base,
)

from repro.api import ConvoySession  # noqa: E402
from repro.server import serve_in_background  # noqa: E402


def build(workload: str, size: str, seed: int, directory: str):
    """The served handle: a live durable feed, or a query-only index."""
    if workload == "feed":
        return (
            ConvoySession.from_dataset(feed_base(size, seed))
            .params(SERVE_QUERY.m, SERVE_QUERY.k, SERVE_QUERY.eps)
            .shards(FEED_SHARDS)
            .history(FEED_HISTORY)
            .store("lsm", directory)
            .durable(checkpoint_every=FEED_CHECKPOINT_EVERY)
            .retain(window=FEED_RETAIN_WINDOW)
            .feed()
        )
    service = ConvoySession.open(directory)
    # Attach what the first request would otherwise build lazily.
    service.analytics(region_cell_size=REGION_CELL)
    service.query.convoy_count()
    return service


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("feed", "query"), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    service = build(args.workload, args.size, args.seed, args.dir)
    handle = serve_in_background(service)
    try:
        print(json.dumps({"host": handle.host, "port": handle.port}), flush=True)
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        handle.stop(timeout=60)
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
