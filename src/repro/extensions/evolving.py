"""Evolving convoys (Aung & Tan, SSDBM 2010) — related work §2.

An *evolving convoy* relaxes the convoy's fixed-membership rule: objects
may join and leave during the lifespan, as long as each *stage* is itself
a convoy and consecutive stages hand over enough common members.  This
module implements the simplified stage-graph formulation:

* stages are the maximal (partially connected) convoys of the data;
* stage ``v`` can follow stage ``u`` when it starts during or immediately
  after ``u`` (no coverage gap) and shares at least ``min_common`` objects;
* an evolving convoy is a maximal stage chain, its *permanent members*
  being the objects present in every stage (Aung & Tan's "dynamic members"
  are the rest).

The full dynamic-convoy model additionally grades members by commitment
ratio; :attr:`EvolvingConvoy.commitment` exposes the per-object ratio so
callers can apply any threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..baselines.pccd import mine_pccd
from ..core.params import ConvoyQuery
from ..core.source import TrajectorySource
from ..core.types import Convoy, TimeInterval


@dataclass(frozen=True)
class EvolvingConvoy:
    """A maximal chain of convoy stages with overlapping membership."""

    stages: Tuple[Convoy, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("an evolving convoy needs at least one stage")

    @property
    def interval(self) -> TimeInterval:
        return TimeInterval(self.stages[0].start, self.stages[-1].end)

    @property
    def start(self) -> int:
        return self.interval.start

    @property
    def end(self) -> int:
        return self.interval.end

    @property
    def duration(self) -> int:
        return self.interval.duration

    @property
    def permanent_members(self) -> FrozenSet[int]:
        members = set(self.stages[0].objects)
        for stage in self.stages[1:]:
            members &= stage.objects
        return frozenset(members)

    @property
    def all_members(self) -> FrozenSet[int]:
        members: Set[int] = set()
        for stage in self.stages:
            members |= stage.objects
        return frozenset(members)

    def commitment(self) -> Dict[int, float]:
        """Fraction of the lifespan each object participates in."""
        total = self.duration
        covered: Dict[int, int] = {}
        for stage in self.stages:
            for oid in stage.objects:
                covered[oid] = covered.get(oid, 0) + stage.duration
        # Overlapping stages double-count boundary ticks; clamp at 1.
        return {oid: min(1.0, ticks / total) for oid, ticks in covered.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvolvingConvoy({len(self.stages)} stages, "
            f"[{self.start},{self.end}], perm={sorted(self.permanent_members)})"
        )


def mine_evolving_convoys(
    source: TrajectorySource,
    query: ConvoyQuery,
    min_common: Optional[int] = None,
) -> List[EvolvingConvoy]:
    """Mine maximal evolving convoys via the stage graph.

    ``min_common`` defaults to ``query.m`` — a handover must itself be a
    viable group.  Single-stage chains (plain convoys) are included, so
    the result is a strict generalisation of convoy mining; the test suite
    checks the degeneration property.
    """
    threshold = query.m if min_common is None else min_common
    stages = mine_pccd(source, query)
    successors = stage_edges(stages, threshold)
    has_predecessor: Set[int] = set()
    for targets in successors.values():
        has_predecessor.update(targets)
    chains: List[Tuple[int, ...]] = []
    roots = [i for i in range(len(stages)) if i not in has_predecessor]
    for root in roots:
        _extend_chain(root, (root,), successors, chains)
    result = [
        EvolvingConvoy(tuple(stages[i] for i in chain)) for chain in chains
    ]
    return sorted(
        result, key=lambda ec: (ec.start, ec.end, sorted(ec.all_members))
    )


def stage_link(u: Convoy, v: Convoy, threshold: int) -> bool:
    """True when stage ``v`` can take over from stage ``u``.

    The handover relation behind both :func:`mine_evolving_convoys` and
    the serving layer's lineage analytic
    (:meth:`~repro.analytics.engine.ConvoyAnalytics.lineage`): ``v``
    starts during ``u`` (or immediately after — no coverage gap),
    outlives it, and shares at least ``threshold`` members.
    """
    return (
        v.start > u.start
        and v.start <= u.end + 1
        and v.end > u.end
        and len(u.objects & v.objects) >= threshold
    )


def stage_edges(
    stages: Sequence[Convoy], threshold: int
) -> Dict[int, List[int]]:
    """``u -> v`` when v takes over from u without a coverage gap."""
    successors: Dict[int, List[int]] = {}
    for i, u in enumerate(stages):
        for j, v in enumerate(stages):
            if i != j and stage_link(u, v, threshold):
                successors.setdefault(i, []).append(j)
    return successors


def _extend_chain(
    node: int,
    chain: Tuple[int, ...],
    successors: Dict[int, List[int]],
    output: List[Tuple[int, ...]],
) -> None:
    """Depth-first enumeration of maximal chains from ``node``."""
    nexts = successors.get(node, [])
    if not nexts:
        output.append(chain)
        return
    for nxt in nexts:
        _extend_chain(nxt, chain + (nxt,), successors, output)
