"""Validated parameter dataclasses shared by every session mode.

The facade's three run modes — batch ``mine()``, streaming ``feed()``,
replayed ``serve()`` — are configured from the same small vocabulary:

* :class:`MiningParams` — the paper's ``(m, k, eps)`` plus any
  algorithm-specific extras (``theta``, ``history``, ...), validated on
  construction;
* :class:`SourceSpec` — which trajectory store the batch miner reads
  from (the §5 storage comparison);
* :class:`StoreSpec` — whether closed convoys persist, and where;
* :class:`ServeSpec` — the spatial shard grid and validation window of
  the serving pipeline.

All specs are frozen so a configured session can be shared and re-run
without aliasing surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from ..core.params import ConvoyQuery

#: Canonical result-store kinds plus the aliases the facade accepts.
RESULT_STORE_KINDS = ("memory", "lsmt")
_RESULT_STORE_ALIASES = {"mem": "memory", "lsm": "lsmt", "lsm-tree": "lsmt"}

#: Trajectory-store kinds a batch mine can read from (CLI ``--store``).
SOURCE_STORE_KINDS = ("memory", "file", "rdbms", "lsmt")


def normalize_store_kind(kind: str) -> str:
    """Map a result-store name or alias onto its canonical kind."""
    canonical = _RESULT_STORE_ALIASES.get(kind.lower(), kind.lower())
    if canonical not in RESULT_STORE_KINDS:
        raise ValueError(
            f"unknown result store {kind!r}; choose from "
            f"{RESULT_STORE_KINDS} (aliases: {sorted(_RESULT_STORE_ALIASES)})"
        )
    return canonical


@dataclass(frozen=True)
class MiningParams:
    """The ``(m, k, eps)`` convoy query plus algorithm-specific extras."""

    m: int
    k: int
    eps: float
    extras: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        ConvoyQuery(m=self.m, k=self.k, eps=self.eps)  # validate eagerly

    @staticmethod
    def of(m: int, k: int, eps: float, **extras: Any) -> "MiningParams":
        return MiningParams(m=m, k=k, eps=eps, extras=tuple(sorted(extras.items())))

    @property
    def query(self) -> ConvoyQuery:
        return ConvoyQuery(m=self.m, k=self.k, eps=self.eps)

    @property
    def extra(self) -> Dict[str, Any]:
        return dict(self.extras)


@dataclass(frozen=True)
class SourceSpec:
    """Which trajectory store a batch mine reads the dataset through."""

    kind: str = "memory"
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_STORE_KINDS:
            raise ValueError(
                f"unknown trajectory store {self.kind!r}; choose from "
                f"{SOURCE_STORE_KINDS}"
            )


@dataclass(frozen=True)
class StoreSpec:
    """Whether mined/served convoys persist (``lsmt``, at ``path``)."""

    kind: str = "memory"
    path: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", normalize_store_kind(self.kind))
        if self.kind != "memory" and not self.path:
            raise ValueError(
                f"result store {self.kind!r} is persistent and needs a path"
            )

    @property
    def persistent(self) -> bool:
        return self.kind != "memory"


@dataclass(frozen=True)
class ServeSpec:
    """Sharding and validation-window knobs of the serving pipeline.

    ``history`` is the number of snapshots retained for close-time
    validation and bounding boxes: ``"full"`` retains the feed's whole
    duration (known only when a dataset is attached), an integer retains
    that many, ``0`` disables validation (emissions are then partially
    connected, like CMC/PCCD).

    ``workers`` is the thread count for per-shard snapshot clustering:
    ``0`` (the default) clusters shards serially on the caller's thread.

    ``durable`` journals every fed batch (WAL) and checkpoints the open
    state every ``checkpoint_every`` batches into the persistent store
    directory, so a killed process resumes mid-feed; it requires a
    persistent result store.

    ``retain_window`` / ``retain_max_rows`` bound the live convoy index
    for continuous operation: closed convoys ending more than
    ``retain_window`` ticks behind the feed frontier (or beyond the
    ``retain_max_rows`` cap, oldest first) age out of the index — into
    flatfile cold segments when the store is persistent, so
    ``include_cold=True`` queries still reach them.
    """

    nx: int = 1
    ny: int = 1
    history: Union[str, int] = "full"
    workers: int = 0
    durable: bool = False
    checkpoint_every: int = 64
    retain_window: Optional[int] = None
    retain_max_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"shard grid {self.nx}x{self.ny} must be >= 1x1")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.retain_window is not None and self.retain_window < 1:
            raise ValueError(
                f"retain_window must be >= 1, got {self.retain_window}"
            )
        if self.retain_max_rows is not None and self.retain_max_rows < 1:
            raise ValueError(
                f"retain_max_rows must be >= 1, got {self.retain_max_rows}"
            )
        if isinstance(self.history, str):
            if self.history != "full":
                raise ValueError(
                    f"history must be 'full' or an int >= 0, got {self.history!r}"
                )
        elif self.history < 0:
            raise ValueError(f"history must be >= 0, got {self.history}")

    @staticmethod
    def parse_shards(spec: Union[str, Tuple[int, int]]) -> Tuple[int, int]:
        """Parse a ``"2x2"`` grid spec (or pass a tuple through)."""
        if isinstance(spec, tuple):
            nx, ny = spec
        else:
            try:
                nx, ny = (int(part) for part in str(spec).lower().split("x"))
            except ValueError:
                raise ValueError(
                    f"bad shard spec {spec!r}; expected e.g. '2x2'"
                ) from None
        return nx, ny

    def resolve_history(self, duration: Optional[int]) -> int:
        """The concrete snapshot count to retain for a feed."""
        if self.history == "full":
            return duration if duration is not None else 0
        return int(self.history)


@dataclass(frozen=True)
class SessionConfig:
    """The one config object all three session modes are built from."""

    algorithm: Optional[str] = None
    params: Optional[MiningParams] = None
    source: SourceSpec = field(default_factory=SourceSpec)
    store: StoreSpec = field(default_factory=StoreSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)
