"""The pyramid index ``P`` (Section V-A).

A *pyramid* is a suite of ``⌈log₂ n⌉`` Voronoi partitions with
``2^{l-1}`` uniformly sampled seeds at granularity level ``l`` (one seed at
level 1, up to ~n/2 at the top — the seed counts of the paper's Figure 2
example).  The index ``P`` holds ``k`` independent pyramids (default 4)
that later act as a voting system.

All ``k·⌈log₂ n⌉`` partitions share one edge-weight table (the anchored
reciprocal similarities ``1/S*_t``); an activation updates the table once
and then runs the bounded Update-Decrease / Update-Increase on each
partition in turn.  Lemma 13 is what makes that loop correct: the
partitions share nothing but the weight table, so their repairs are
independent.  A new edge takes the same path, as a decrease from +∞
(:func:`repro.index.dynamic.insert_edge_into_index`).

Index time is ``O(n log² n + m log n)`` and size ``O(n log² n)``
(Lemma 7): ``log n`` levels × amortized Dijkstra cost per level, per
pyramid.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, cast

from ..graph.graph import Edge, Graph, edge_key
from .voronoi import VoronoiPartition

__all__ = ["levels_for", "seeds_at_level", "Pyramid", "PyramidIndex"]

RngLike = Optional[random.Random]

T = TypeVar("T")


def levels_for(n: int) -> int:
    """Number of granularity levels: ``⌈log₂ n⌉`` (min 1)."""
    if n < 1:
        raise ValueError("graph must have at least one node")
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def seeds_at_level(level: int, n: int) -> int:
    """Seed count at ``level``: ``min(2^{l-1}, n)``."""
    if level < 1:
        raise ValueError(f"levels are 1-based, got {level}")
    return min(1 << (level - 1), n)


class Pyramid:
    """One pyramid: a Voronoi partition per granularity level."""

    def __init__(
        self,
        graph: Graph,
        weight: Callable[[int, int], float],
        rng: random.Random,
    ) -> None:
        self.graph = graph
        self.levels: Dict[int, VoronoiPartition] = {}
        n = graph.n
        nodes = list(graph.nodes())
        for level in range(1, levels_for(n) + 1):
            seeds = rng.sample(nodes, seeds_at_level(level, n))
            self.levels[level] = VoronoiPartition(graph, seeds, weight)

    @property
    def num_levels(self) -> int:
        """``⌈log₂ n⌉``."""
        return len(self.levels)

    def partition(self, level: int) -> VoronoiPartition:
        """The Voronoi partition at ``level`` (1-based)."""
        try:
            return self.levels[level]
        except KeyError:
            raise ValueError(
                f"level {level} out of range 1..{self.num_levels}"
            ) from None

    def memory_cost(self) -> int:
        """Nominal payload bytes across all levels."""
        return sum(p.memory_cost() for p in self.levels.values())


class PyramidIndex:
    """The index ``P``: ``k`` pyramids over a shared edge-weight table.

    Parameters
    ----------
    graph:
        Relation network.
    weights:
        Initial edge weights (anchored reciprocal similarities); copied.
    k:
        Number of pyramids (the paper's default is 4; its sweeps use
        2–16).
    seed:
        RNG seed for the uniform seed sampling — same seed, same index.
    support:
        Voting threshold θ (default 0.7): two nodes cluster together at a
        level iff at least ``θ·k`` pyramids agree on their seed.
    """

    def __init__(
        self,
        graph: Graph,
        weights: Dict[Edge, float],
        *,
        k: int = 4,
        seed: Optional[int] = 0,
        support: float = 0.7,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 < support <= 1.0:
            raise ValueError(f"support must be in (0, 1], got {support}")
        missing = [e for e in graph.edges() if e not in weights]
        if missing:
            raise ValueError(f"weights missing for {len(missing)} edges, e.g. {missing[0]}")
        bad = [(e, w) for e, w in weights.items() if w <= 0]
        if bad:
            raise ValueError(f"weights must be positive, got {bad[0]}")
        self.graph = graph
        self.k = k
        self.support = support
        self._weights: Dict[Edge, float] = dict(weights)
        self._weight_fn = self._make_weight_fn()
        rng = random.Random(seed)
        self.pyramids: List[Pyramid] = [
            Pyramid(graph, self._weight_fn, random.Random(rng.randrange(2**63)))
            for _ in range(k)
        ]
        self._init_counters()

    def _init_counters(self) -> None:
        """Zero the observability counters, reset the weight scale and
        empty the graph-derived cache (every construction path calls
        this)."""
        #: Stored weight = incoming weight × ``_scale``; see :meth:`on_rescale`.
        self._scale = 1.0
        #: name -> (graph.m, value) behind :meth:`graph_cache`.
        self._graph_cache: Dict[str, Tuple[int, object]] = {}
        #: Cumulative touched-node count across updates (Fig 8 observability).
        self.total_touched = 0
        #: Number of weight updates dispatched.
        self.update_count = 0
        #: Updates dispatched as Update-Increase (weight grew).
        self.update_increases = 0
        #: Updates dispatched as Update-Decrease (weight shrank; edge
        #: insertions count here — a new edge is a decrease from +∞).
        self.update_decreases = 0
        #: level -> cumulative touched nodes across that level's partitions.
        self.touched_by_level: Dict[int, int] = {}
        #: level -> repair dispatches (k per level per update).
        self.repairs_by_level: Dict[int, int] = {}

    def _store_weight(self, key: Edge, value: float) -> None:
        """Write one weight-table entry.

        The single mutation point every weight write funnels through
        (:meth:`update_edge_weight`, the +∞ placeholder of a dynamic
        insert) so that array-backed subclasses can mirror the value into
        their flat storage by overriding exactly one method.
        """
        self._weights[key] = value

    def _make_weight_fn(self) -> Callable[[int, int], float]:
        weights = self._weights

        def weight(u: int, v: int) -> float:
            return weights[(u, v) if u < v else (v, u)]

        return weight

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Granularity levels per pyramid."""
        return self.pyramids[0].num_levels

    def graph_cache(self, name: str, build: Callable[[Graph], T]) -> T:
        """``build(self.graph)``, recomputed only when the graph grows.

        For values derived from the graph alone, such as the vote
        kernel's edge-endpoint arrays.  Edges are only ever appended to
        ``graph.edges()``, so ``graph.m`` tells whether a stored value is
        still current.
        """
        m = self.graph.m
        hit = self._graph_cache.get(name)
        if hit is None or hit[0] != m:
            hit = (m, build(self.graph))
            self._graph_cache[name] = hit
        return cast(T, hit[1])

    def weight(self, u: int, v: int) -> float:
        """Current stored weight of edge ``{u, v}``: the weight last set
        times the weight scale (1 until the first :meth:`on_rescale`)."""
        return self._weights[edge_key(u, v)]

    def weights_view(self) -> Dict[Edge, float]:
        """Read-only snapshot of the weight table."""
        return dict(self._weights)

    def partitions(self) -> Iterator[VoronoiPartition]:
        """All ``k · num_levels`` partitions."""
        for pyramid in self.pyramids:
            for partition in pyramid.levels.values():
                yield partition

    def partitions_at(self, level: int) -> List[VoronoiPartition]:
        """The ``k`` partitions at one granularity level."""
        return [p.partition(level) for p in self.pyramids]

    def partitions_with_levels(self) -> Iterator[Tuple[int, VoronoiPartition]]:
        """All partitions as ``(level, partition)`` pairs."""
        for pyramid in self.pyramids:
            for level, partition in pyramid.levels.items():
                yield level, partition

    # ------------------------------------------------------------------
    # Updates (Section V-C)
    # ------------------------------------------------------------------
    def update_edge_weight(self, u: int, v: int, new_weight: float) -> int:
        """Set edge ``{u, v}``'s weight and repair every partition.

        ``new_weight`` is in the metric's units; the index stores it
        times its weight scale (see :meth:`on_rescale`).  Dispatches
        Update-Decrease or Update-Increase per partition based on the
        sign of the change (no-op when unchanged).  Returns the total
        number of touched nodes across partitions.
        """
        if new_weight <= 0:
            raise ValueError(f"weight must be positive, got {new_weight}")
        new_weight *= self._scale
        key = edge_key(u, v)
        old = self._weights[key]
        if new_weight == old:
            return 0
        self._store_weight(key, new_weight)
        touched = 0
        tbl = self.touched_by_level
        rbl = self.repairs_by_level
        for level, partition in self.partitions_with_levels():
            moved = partition.apply_weight_change(u, v, old, new_weight)
            touched += moved
            tbl[level] = tbl.get(level, 0) + moved
            rbl[level] = rbl.get(level, 0) + 1
        self.total_touched += touched
        self.update_count += 1
        if new_weight > old:
            self.update_increases += 1
        else:
            self.update_decreases += 1
        return touched

    def on_rescale(self, g: float) -> None:
        """Absorb a batched rescale of the global decay factor (Lemma 10).

        The metric's weights are NegM: they scale by ``1/g``.  Scaling
        the index's weights and distances by ``1/g`` too would round, and
        two distances an ulp apart could come out equal: the index would
        then keep the larger seed where a rebuild takes the smaller one.
        So the index scales by the nearest power of two instead, which is
        exact and changes no sum or comparison, and keeps the remaining
        factor in its weight scale, which every later incoming weight is
        multiplied by.
        """
        p = self._rescale_factor(g)
        for key in self._weights:
            self._weights[key] *= p
        for partition in self.partitions():
            partition.absorb_scale(p)

    def _rescale_factor(self, g: float) -> float:
        """The power of two nearest ``1/(scale·g)``; updates the scale."""
        target = 1.0 / (self._scale * g)
        mantissa, exponent = math.frexp(target)
        if mantissa < math.sqrt(0.5):
            exponent -= 1
        p = math.ldexp(1.0, exponent)
        self._scale = p / target
        return p

    def rebuild(self) -> None:
        """Rebuild every partition from scratch (the RECONSTRUCT baseline)."""
        for partition in self.partitions():
            partition.rebuild()

    def set_all_weights(self, weights: Dict[Edge, float]) -> None:
        """Replace the whole weight table without incremental repair.

        Callers must follow with :meth:`rebuild`; this is the offline
        (ANCF / RECONSTRUCT) path where incremental maintenance is
        deliberately bypassed.
        """
        missing = [e for e in self.graph.edges() if e not in weights]
        if missing:
            raise ValueError(f"weights missing for {len(missing)} edges")
        self._weights.clear()
        self._weights.update(weights)
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Voting (Section V-B)
    # ------------------------------------------------------------------
    def vote_count(self, u: int, v: int, level: int) -> int:
        """Number of pyramids whose level-``l`` seed for u and v agree."""
        count = 0
        for pyramid in self.pyramids:
            part = pyramid.partition(level)
            su = part.seed[u]
            if su >= 0 and su == part.seed[v]:
                count += 1
        return count

    def same_cluster_vote(self, u: int, v: int, level: int) -> bool:
        """The voting function ``H_l(u, v)`` (Section V-B).

        True iff at least ``θ·k`` pyramids put ``u`` and ``v`` under the
        same seed at this level.
        """
        return self.vote_count(u, v, level) >= self.support * self.k

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def memory_cost(self) -> int:
        """Nominal index payload in bytes (excludes the graph, as Fig 6)."""
        return sum(p.memory_cost() for p in self.pyramids) + 12 * len(self._weights)

    def check_consistency(self) -> None:
        """Validate every partition's forest invariants; raises
        :class:`~repro.index.voronoi.InconsistentPartition` on the first
        violation (a restore runs it too)."""
        for partition in self.partitions():
            partition.check_consistency()
