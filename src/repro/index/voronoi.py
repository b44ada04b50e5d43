"""Voronoi partitions with incremental maintenance (Section V-A, V-C).

A :class:`VoronoiPartition` is the building block of the pyramid index: a
seed set ``S`` of ``2^{l-1}`` nodes, and for every node ``v`` its closest
seed ``seed[v]``, the distance ``dist[v]`` to it, and the shortest-path
forest (``parent[v]`` / ``children[v]``) rooted at the seeds — all under
the reciprocal-similarity edge weights ``S_t^{-1}``.

Construction is one multi-source Dijkstra (Lemma 7).  Maintenance under a
changing edge weight implements the paper's Algorithms 1–3:

* :meth:`probe` (Algorithm 2) — recompute a node's distance upper bound
  through one neighbor; adopt it if better.
* :meth:`update_decrease` (Algorithm 1) — a weight decrease can only
  shrink distances; seed the priority queue with the probed endpoints and
  relax outward.
* :meth:`update_increase` (Algorithm 3) — a weight increase matters only
  if the edge is a forest edge; reset the subtree hanging below it, then
  rebuild it Dijkstra-style from its boundary.

Both updates are *bounded* (Lemma 12): they touch
``O(Σ_{x ∈ U'} deg(x))`` edges where ``U'`` is the set of nodes whose
distance or seed actually changed (plus the trigger endpoints), never the
whole graph.  The partition counts touched nodes per update so benchmarks
(Fig 8) and tests can observe the locality.

Tie-breaking matches :func:`repro.graph.traversal.multi_source_dijkstra`:
among equidistant seeds the smaller seed id wins, so an incrementally
maintained partition stays comparable to a fresh rebuild.  One rule
overrides the tie-break: a forest child always follows a parent whose
seed changed.  A parent can move to a larger seed while its distance
drops by less than one ulp of the child's, so the child's sum comes out
unchanged; without the rule the child would keep the old seed under a
parent in another cell.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..graph.graph import Graph
from ..graph.traversal import INF, multi_source_dijkstra

__all__ = ["VoronoiPartition", "child_sets"]

WeightFn = Callable[[int, int], float]


def child_sets(parent: Sequence[int]) -> List[Optional[Set[int]]]:
    """The forest's child sets, inverted from ``parent`` in node order.

    A leaf holds ``None``: most nodes of a shortest-path forest have no
    child, and an empty ``set`` costs 216 bytes.  A set is made by its
    node's first child, exactly as an ``add`` to an empty set would be,
    so its iteration order is the same.
    """
    children: List[Optional[Set[int]]] = [None] * len(parent)
    for v, p in enumerate(parent):
        if p >= 0:
            ch = children[p]
            if ch is None:
                children[p] = {v}
            else:
                ch.add(v)
    return children


class VoronoiPartition:
    """One Voronoi partition of the graph under a shared weight function.

    Parameters
    ----------
    graph:
        The relation network.
    seeds:
        Seed node ids (must be distinct, valid nodes).
    weight:
        Symmetric edge weight function; the pyramid passes a closure over
        its shared weight dict so all partitions see updates instantly.
    """

    __slots__ = (
        "graph",
        "seeds",
        "weight",
        "dist",
        "seed",
        "parent",
        "_children",
        "last_touched",
    )

    def __init__(self, graph: Graph, seeds: Sequence[int], weight: WeightFn) -> None:
        seen: Set[int] = set()
        for s in seeds:
            if not graph.has_node(s):
                raise ValueError(f"seed {s} is not a node")
            if s in seen:
                raise ValueError(f"duplicate seed {s}")
            seen.add(s)
        if not seeds:
            raise ValueError("need at least one seed")
        self.graph = graph
        self.seeds: Tuple[int, ...] = tuple(seeds)
        self.weight = weight
        self.dist: List[float] = []
        self.seed: List[int] = []
        self.parent: List[int] = []
        self._children: List[Optional[Set[int]]] = []
        #: Nodes touched by the most recent update (observability, Fig 8).
        self.last_touched: int = 0
        self.rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Full rebuild: one multi-source Dijkstra from the seed set."""
        self.dist, self.seed, self.parent = multi_source_dijkstra(
            self.graph, self.seeds, self.weight
        )
        self._children = child_sets(self.parent)

    # ------------------------------------------------------------------
    # Forest bookkeeping
    # ------------------------------------------------------------------
    def _set_parent(self, v: int, p: int) -> None:
        old = self.parent[v]
        if old == p:
            return
        if old >= 0:
            self._children[old].discard(v)  # type: ignore[union-attr]  # a parent holds a set
        self.parent[v] = p
        if p >= 0:
            ch = self._children[p]
            if ch is None:
                self._children[p] = {v}
            else:
                ch.add(v)

    def children(self, v: int) -> AbstractSet[int]:
        """Children of ``v`` in the shortest-path forest (read-only view)."""
        return self._children[v] or frozenset()

    def subtree(self, root: int) -> List[int]:
        """All nodes in the forest subtree rooted at ``root`` (incl. root)."""
        children = self._children
        out = [root]
        head = 0
        while head < len(out):
            ch = children[out[head]]
            if ch:
                out.extend(ch)
            head += 1
        return out

    def cells(self) -> Dict[int, List[int]]:
        """The partition as ``{seed: sorted members}`` (diagnostics/tests)."""
        out: Dict[int, List[int]] = {}
        for v in self.graph.nodes():
            s = self.seed[v]
            if s >= 0:
                out.setdefault(s, []).append(v)
        return out

    # ------------------------------------------------------------------
    # Algorithm 2: Probe
    # ------------------------------------------------------------------
    def probe(self, a: int, b: int) -> bool:
        """Recompute ``a``'s distance via neighbor ``b``; adopt if better.

        Implements Algorithm 2: ``d = dist(S[b], b) + w(a, b)``; if that
        beats ``a``'s current distance (ties broken toward the smaller
        seed id), ``a`` adopts seed, distance and parent from ``b``.  A
        child of ``b`` whose seed differs from ``b``'s adopts them
        whatever ``d`` is: its path runs through ``b``.
        """
        o = self.seed[b]
        if o < 0:
            return False
        d = self.dist[b] + self.weight(a, b)
        cur = self.dist[a]
        s = self.seed[a]
        if d < cur or (d == cur and o < s) or (o != s and self.parent[a] == b):
            self.seed[a] = o
            self.dist[a] = d
            self._set_parent(a, b)
            return True
        return False

    # ------------------------------------------------------------------
    # Algorithm 1: Update-Decrease
    # ------------------------------------------------------------------
    def update_decrease(self, u: int, v: int) -> int:
        """Handle a decreased weight on edge ``{u, v}``.

        The shared weight function must already return the new (smaller)
        weight.  Returns the number of touched nodes.
        """
        touched = 0
        pq: List[Tuple[float, int, int]] = []
        if self.probe(u, v):
            heapq.heappush(pq, (self.dist[u], self.seed[u], u))
        if self.probe(v, u):
            heapq.heappush(pq, (self.dist[v], self.seed[v], v))
        while pq:
            d, s, x = heapq.heappop(pq)
            if d > self.dist[x] or (d == self.dist[x] and s > self.seed[x]):
                continue  # stale queue entry
            touched += 1
            for y in self.graph.neighbors(x):
                if self.probe(y, x):
                    heapq.heappush(pq, (self.dist[y], self.seed[y], y))
        self.last_touched = touched
        return touched

    # ------------------------------------------------------------------
    # Algorithm 3: Update-Increase
    # ------------------------------------------------------------------
    def update_increase(self, u: int, v: int) -> int:
        """Handle an increased weight on edge ``{u, v}``.

        If the edge is not in the shortest-path forest, nothing changes
        (the new weight can only make the unused edge worse).  Otherwise
        the subtree hanging below the edge is reset and rebuilt from its
        boundary, Dijkstra-style.  Returns the number of touched nodes.
        """
        if self.parent[u] == v:
            o = u
        elif self.parent[v] == u:
            o = v
        else:
            self.last_touched = 0
            return 0
        impacted = self.subtree(o)
        impacted_set = set(impacted)
        pq: List[Tuple[float, int, int]] = []
        for x in impacted:
            self.dist[x] = INF
            self.seed[x] = -1
            self._set_parent(x, -1)
        for x in impacted:
            for y in self.graph.neighbors(x):
                if y not in impacted_set:
                    heapq.heappush(pq, (self.dist[y], self.seed[y], y))
        touched = len(impacted)
        while pq:
            d, s, x = heapq.heappop(pq)
            if d > self.dist[x] or (d == self.dist[x] and s > self.seed[x]):
                continue
            for y in self.graph.neighbors(x):
                if self.probe(y, x):
                    touched += 1
                    heapq.heappush(pq, (self.dist[y], self.seed[y], y))
        self.last_touched = touched
        return touched

    def apply_weight_change(self, u: int, v: int, old: float, new: float) -> int:
        """Dispatch to decrease/increase based on the weight delta."""
        if new < old:
            return self.update_decrease(u, v)
        if new > old:
            return self.update_increase(u, v)
        self.last_touched = 0
        return 0

    # ------------------------------------------------------------------
    # Global decay absorption (Lemma 10)
    # ------------------------------------------------------------------
    def absorb_scale(self, factor: float) -> None:
        """Multiply all stored distances by ``factor``.

        The pyramid multiplies its shared weights by the same factor at a
        batched rescale.  It passes a power of two, so every product is
        exact: each distance still equals the sum along its path, and
        the partition is the one a rebuild would find.
        """
        dist = self.dist
        for i in range(len(dist)):
            if dist[i] != INF:
                dist[i] *= factor

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def memory_cost(self) -> int:
        """Nominal payload size in bytes.

        Models the flat-array layout a native implementation would use:
        8 bytes per distance, 4 per seed id, 4 per parent id, 4 per child
        pointer, 4 per seed.  Used by the Fig 6 benchmark; the constant
        factors are a model, the growth in ``n`` and ``k`` is the claim.
        """
        n = self.graph.n
        child_entries = sum(len(c) for c in self._children if c)
        return 8 * n + 4 * n + 4 * n + 4 * child_entries + 4 * len(self.seeds)

    def check_consistency(self, tol: float = 1e-9) -> None:
        """Assert the forest invariants; raises AssertionError on violation.

        * every seed has dist 0, itself as seed, no parent;
        * every non-seed reachable node's dist equals its parent's dist
          plus the connecting edge weight, with matching seed;
        * no reachable node could improve through any neighbor (triangle
          inequality of the Voronoi assignment);
        * the child sets are exactly the inverse of ``parent``, and a
          leaf holds no set or an empty one.
        """
        seeds = set(self.seeds)
        assert len(self._children) == len(self.parent), (
            f"{len(self._children)} child sets for {len(self.parent)} nodes"
        )
        for x, p in enumerate(self.parent):
            if p >= 0:
                assert x in self.children(p), f"node {x} missing from its parent {p}'s children"
        for x, ch in enumerate(self._children):
            for c in ch or ():
                assert self.parent[c] == x, (
                    f"node {c} is a child of {x} but its parent is {self.parent[c]}"
                )
        for s in self.seeds:
            assert self.dist[s] == 0.0, f"seed {s} has dist {self.dist[s]}"
            assert self.seed[s] == s, f"seed {s} assigned to {self.seed[s]}"
            assert self.parent[s] == -1, f"seed {s} has parent {self.parent[s]}"
        for x in self.graph.nodes():
            if x in seeds:
                continue
            if self.seed[x] < 0:
                assert self.dist[x] == INF, f"unreachable {x} has finite dist"
                continue
            p = self.parent[x]
            assert p >= 0, f"reachable non-seed {x} lacks a parent"
            expect = self.dist[p] + self.weight(x, p)
            assert abs(self.dist[x] - expect) <= tol * max(1.0, abs(expect)), (
                f"node {x}: dist {self.dist[x]} != parent path {expect}"
            )
            assert self.seed[x] == self.seed[p], (
                f"node {x}: seed {self.seed[x]} != parent's seed {self.seed[p]}"
            )
        for x in self.graph.nodes():
            for y in self.graph.neighbors(x):
                if self.seed[y] < 0:
                    continue
                through = self.dist[y] + self.weight(x, y)
                assert self.dist[x] <= through + tol * max(1.0, through), (
                    f"node {x} could improve via {y}: {self.dist[x]} > {through}"
                )
