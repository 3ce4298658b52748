"""Compare two sets of benchmark runs, one row per workload and metric.

Each input holds the JSON lines ``run.py --out`` appends (runs of both
trace modes may be mixed; only end-to-end runs are compared).  For every
workload x end-to-end metric the table gives each side's median and
quartiles, the change of B against A, and a verdict against the bound in
``BENCHMARK.json``::

    python3 benchmarks/bench/compare.py parent.jsonl change.jsonl

Verdicts: ``ok`` (no worse than the bound), ``REGRESSION`` (worse by more
than the bound), ``gain`` (B wins at least 9 in 10 of the runs paired in
file order, over at least 10 pairs, and the medians differ by more than
A's interquartile range), ``unresolved`` (a side's spread exceeds the
bound, so the comparison cannot tell; reported ``better`` instead only
when every run of B beats every run of A).  Exits 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per end-to-end run, in file order]}}``."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            metrics = runs.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], bound: float, lower: bool) -> str:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)

    def better(x, y):  # x reads better than y
        return x < y if lower else x > y

    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        if all(better(x, y) for x in b for y in a):
            return "better"
        return "unresolved"
    worse = (bm - am) / abs(am) if am else 0.0
    if not lower:
        worse = -worse
    if worse > bound:
        return "REGRESSION"
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and better(bm, am) and abs(bm - am) > a3 - a1):
        return "gain"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="runs of the parent (JSON lines)")
    parser.add_argument("b", help="runs of the change (JSON lines)")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    a, b = load_runs(args.a), load_runs(args.b)
    header = (f"{'workload':9s} {'metric':17s} {'unit':5s} {'n':>5s} "
              f"{'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
              f"{'delta':>8s} {'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"{workload:9s} {name:17s} missing in "
                      f"{'A' if not va else 'B'}")
                continue
            result = verdict(va, vb, metric["bound"],
                             metric["better"] == "lower")
            regressions += result == "REGRESSION"
            am, bm = statistics.median(va), statistics.median(vb)
            delta = (bm - am) / abs(am) * 100 if am else 0.0
            print(f"{workload:9s} {name:17s} {metric['unit']:5s} "
                  f"{len(va):>2d}/{len(vb):<2d} {_cell(va):>30s} "
                  f"{_cell(vb):>30s} {delta:+7.1f}% "
                  f"{metric['bound'] * 100:5.0f}%  {result}")
    return 1 if regressions else 0


def _cell(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
