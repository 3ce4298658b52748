"""The repository benchmark: one command, four workloads.

Runs one workload, checks its output is correct, prints every metric as
``name value unit`` and, as the last line, one JSON object::

    python3 benchmarks/bench/run.py --workload mine-lsm --seed 1 --seconds 12 --trace 0
    python3 benchmarks/bench/run.py --workload all --seed 1 --traced --out runs.jsonl

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``
(measured with no probes); with ``--trace 1`` (or ``--traced``) a separate
traced run reports the per-layer metrics instead, zero for the layers a
workload does not exercise.  ``--out`` appends the result as one JSON
line, the input of ``compare.py``.  The exit status is 0 only when the
correctness gates passed and no operation failed.

Workloads: ``mine-lsm``, ``mine-mem`` (batch k/2-hop, in this process),
``feed`` and ``query`` (the HTTP server in a separate process).  See
``README.md`` beside this file for what each measures and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("mine-lsm", "mine-mem", "feed", "query")
#: The seed runs use unless told otherwise; claims also need HOLDOUT_SEED.
DEFAULT_SEED = 1
HOLDOUT_SEED = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke test's input size")
    parser.add_argument("--out", help="append the result as a JSON line")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    return args


def measure(args):
    if args.workload in ("mine-lsm", "mine-mem"):
        import mining

        return mining.run(args.workload, args.size, args.seed, args.seconds,
                          args.trace)
    import serving

    run = serving.run_feed if args.workload == "feed" else serving.run_query
    return run(args.size, args.seed, args.seconds, args.trace)


def report(outcome, spec, trace: bool) -> dict:
    """Exactly the declared metrics, with units, in declared order."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {entry["name"] for entry in declared}
    extra = sorted(set(outcome.metrics) - names)
    if extra:
        raise KeyError(f"undeclared metrics {extra}")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in outcome.metrics:
            value = float(outcome.metrics[name])
        elif trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        if not math.isfinite(value):
            outcome.problems.append(f"{name} is not finite ({value})")
            value = 1e12
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload, each in its own process (peak memory is per process)."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)), "--size", args.size,
        ] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return run_all(args)
    outcome = measure(args)
    result = report(outcome, spec, args.trace)
    for problem in outcome.problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": int(args.trace), "size": args.size, **result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
