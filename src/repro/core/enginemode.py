"""Process-wide switch between the vectorized and scalar hot paths.

The k/2-hop pipeline ships two interchangeable implementations of its hot
paths: the vectorized CSR + union-find clustering engine with bitset
convoy algebra (the default), and the original scalar code, kept as the
correctness oracle.  Tests assert bit-identical results across the two,
and the ``mine-mem`` workload of ``benchmarks/bench/`` gates on the same
equality.

The switch is intentionally global rather than threaded through every
call: the pipeline fans out through ~10 modules and the mode is a
process-level property of a benchmark run, not of a single query.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

VECTORIZED = "vectorized"
SCALAR = "scalar"

_MODES = (VECTORIZED, SCALAR)
_mode = VECTORIZED


def engine_mode() -> str:
    """Currently selected engine: ``"vectorized"`` or ``"scalar"``."""
    return _mode


def use_scalar() -> bool:
    """True when the scalar oracle paths should run."""
    return _mode == SCALAR


def set_engine_mode(mode: str) -> None:
    global _mode
    if mode not in _MODES:
        raise ValueError(f"unknown engine mode {mode!r}; expected one of {_MODES}")
    _mode = mode


@contextmanager
def scalar_engine() -> Iterator[None]:
    """Run the enclosed block on the scalar oracle paths."""
    previous = _mode
    set_engine_mode(SCALAR)
    try:
        yield
    finally:
        set_engine_mode(previous)


@contextmanager
def vectorized_engine() -> Iterator[None]:
    """Run the enclosed block on the vectorized engine (the default)."""
    previous = _mode
    set_engine_mode(VECTORIZED)
    try:
        yield
    finally:
        set_engine_mode(previous)
