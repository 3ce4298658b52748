"""Append-only journal for the repository's perf trajectory.

``BENCH_k2hop.json`` holds a list of entries — one per benchmark run —
instead of a single overwritten report, so regressions show up as a time
series.  Entries carry a ``kind`` (``"soak"`` from ``soak.py``; the
``"mining"`` and ``"serve"`` entries came from harnesses since retired
onto ``benchmarks/bench/``) plus whatever payload the producing harness
reports.
"""

from __future__ import annotations

import json
import os
from typing import Dict

JOURNAL_BENCHMARK = "k2hop-trajectory"


def load_journal(path: str) -> Dict:
    """Load the benchmark journal (an empty one if the file is missing)."""
    if not os.path.exists(path):
        return {"benchmark": JOURNAL_BENCHMARK, "entries": []}
    with open(path) as fh:
        return json.load(fh)


def append_entry(path: str, entry: Dict) -> Dict:
    """Append one entry and rewrite the journal; returns the journal."""
    journal = load_journal(path)
    journal["entries"].append(entry)
    with open(path, "w") as fh:
        json.dump(journal, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return journal

