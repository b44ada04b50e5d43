"""Array-backed pyramid index: batched per-level touch/repair (ROADMAP item 1).

:class:`ArrayPyramidIndex` keeps the :class:`~repro.index.pyramid.PyramidIndex`
contract (and its dict weight table, which persistence and the
consistency checker read) but mirrors every weight into a flat
``List[float]`` indexed by the shared :class:`~repro.core.arrays.EdgeSpace`
edge id, and replaces the per-partition ``apply_weight_change`` dispatch
with an inlined Update-Decrease / Update-Increase that walks the
space's *paired* adjacency slices (``nbr[x][i]`` / ``neid[x][i]``): one
list index per relaxed edge instead of a tuple build plus two dict
probes through the weight closure.

Bit-for-bit parity with :class:`~repro.index.voronoi.VoronoiPartition`
is load-bearing (cluster assignments feed ``engine_signature``); the
inlined loops below replicate the exact probe arithmetic, the
``(dist, seed)`` lexicographic tie-breaks, the stale-pop skips and the
heap push order.  Any behavioral edit to ``voronoi.py`` must be mirrored
here (the ``backend-parity-discipline`` anclint rule holds the line).

The forest's child sets follow the same rule as the partition's: a
leaf holds ``None``, a node's first child makes its set, and a node that
loses its last child drops it.  Their iteration order fixes only the
order of Update-Increase's subtree walk, and that order reaches no
result: the walk's nodes enter a heap ordered by ``(dist, seed, node)``,
where equal entries are identical, so every pop sequence, distance, seed
and touched count is the same whatever order they were pushed in.  That
is why a set made again later changes nothing, and why
:func:`~repro.index.persistence.load_index` may rebuild the sets in node
order rather than in the order the repairs made them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..core.arrays import EdgeSpace
from ..graph.graph import Edge, Graph, edge_key
from ..graph.traversal import INF
from .pyramid import PyramidIndex
from .voronoi import VoronoiPartition

__all__ = ["ArrayPyramidIndex"]


class ArrayPyramidIndex(PyramidIndex):
    """A :class:`PyramidIndex` whose repair hot path runs over flat arrays.

    The dict ``_weights`` table remains authoritative for persistence
    (checkpoint bytes are produced from its insertion order) and for the
    partitions' weight closure (rebuild / consistency checks); ``_w`` is
    the eid-indexed mirror the inlined repair reads.
    :meth:`_store_weight` is the single mutation point that keeps the
    two in lockstep.  A dynamic edge insert repairs through the same
    inlined loop: the edge is interned in the space, stored at +∞, then
    decreased to its weight.
    """

    def __init__(
        self,
        graph: Graph,
        weights: Dict[Edge, float],
        *,
        k: int = 4,
        seed: int = 0,
        support: float = 0.7,
        space: EdgeSpace,
    ) -> None:
        super().__init__(graph, weights, k=k, seed=seed, support=support)
        self._bind_space(space)

    def _bind_space(self, space: EdgeSpace) -> None:
        """Attach the shared edge space and build the flat weight mirror.

        Split out of ``__init__`` so persistence can restore an instance
        via ``__new__`` (filling the base fields first) and then bind.
        """
        self._space = space
        self._w: List[float] = [0.0] * len(space.edges)
        eid = space.eid
        for key, value in self._weights.items():
            self._w[eid[key]] = value
        # The partition set is fixed for the index's lifetime (levels and
        # pyramids never grow); cache the flat list the per-activation
        # repair loop walks.
        self._parts: List[Tuple[int, VoronoiPartition]] = list(
            self.partitions_with_levels()
        )
        # level -> partition count, ascending — the same key-creation
        # order the base class's per-partition repair loop produces
        # (pyramid-major iteration meets each level in ascending order
        # on the first update), so the counter dicts stay key-order
        # identical across backends.
        counts: Dict[int, int] = {}
        for level, _ in self._parts:
            counts[level] = counts.get(level, 0) + 1
        self._level_counts: List[Tuple[int, int]] = sorted(counts.items())
        # True once every level key exists in the counter dicts (after
        # the first recorded update); lets all-no-op updates skip the
        # identity writes to the touched table.
        self._levels_seeded = bool(self.touched_by_level)
        space.add_listener(self._on_edge_added)

    def _on_edge_added(self, e: int, u: int, v: int) -> None:
        if e == len(self._w):
            self._w.append(0.0)

    def _store_weight(self, key: Edge, value: float) -> None:
        # Resolve the eid first: an edge the space has not interned
        # raises KeyError before either table holds the value.
        e = self._space.eid[key]
        super()._store_weight(key, value)
        self._w[e] = value

    # ------------------------------------------------------------------
    # Batched repair (inlined Update-Decrease / Update-Increase)
    # ------------------------------------------------------------------
    def update_edge_weight(self, u: int, v: int, new_weight: float) -> int:
        if new_weight <= 0:
            raise ValueError(f"weight must be positive, got {new_weight}")
        new_weight *= self._scale
        key = edge_key(u, v)
        old = self._weights[key]
        if new_weight == old:  # anclint: allow-float-equality — exact no-op guard, mirrors PyramidIndex
            return 0
        self._store_weight(key, new_weight)
        e_uv = self._space.eid[key]
        touched = 0
        moved_at: Optional[Dict[int, int]] = None
        w_uv = new_weight
        if new_weight < old:
            for level, part in self._parts:
                # Read-only no-move test: a repair mutates state only if
                # at least one initial probe succeeds, and the second
                # probe sees unmodified state exactly when the first
                # failed — so failing both here proves the full repair
                # would be a no-op for this partition.
                dist = part.dist
                seed = part.seed
                parent = part.parent
                o = seed[v]
                if o >= 0:
                    d = dist[v] + w_uv
                    cur = dist[u]
                    s = seed[u]
                    if d < cur or (d == cur and o < s) or (o != s and parent[u] == v):
                        moved = self._repair_decrease(part, u, v, e_uv)
                        touched += moved
                        if moved_at is None:
                            moved_at = {level: moved}
                        else:
                            moved_at[level] = moved_at.get(level, 0) + moved
                        continue
                o = seed[u]
                if o >= 0:
                    d = dist[u] + w_uv
                    cur = dist[v]
                    s = seed[v]
                    if d < cur or (d == cur and o < s) or (o != s and parent[v] == u):
                        moved = self._repair_decrease(part, u, v, e_uv)
                        touched += moved
                        if moved_at is None:
                            moved_at = {level: moved}
                        else:
                            moved_at[level] = moved_at.get(level, 0) + moved
                        continue
                part.last_touched = 0
        else:
            for level, part in self._parts:
                parent = part.parent
                if parent[u] != v and parent[v] != u:
                    # No tree edge severed: Update-Increase exits before
                    # touching anything.
                    part.last_touched = 0
                    continue
                moved = self._repair_increase(part, u, v)
                touched += moved
                if moved_at is None:
                    moved_at = {level: moved}
                else:
                    moved_at[level] = moved_at.get(level, 0) + moved
        # Batched counter bookkeeping: one pass per level instead of one
        # per partition, with the exact totals the base accounting
        # accumulates (a no-op repair still creates/keeps the level key).
        tbl = self.touched_by_level
        rbl = self.repairs_by_level
        if moved_at is None:
            if self._levels_seeded:
                # All-no-op update past the first: the touched table is
                # unchanged (every increment is +0) — only the dispatch
                # counters move.
                for level, cnt in self._level_counts:
                    rbl[level] = rbl.get(level, 0) + cnt
            else:
                for level, cnt in self._level_counts:
                    tbl[level] = tbl.get(level, 0)
                    rbl[level] = rbl.get(level, 0) + cnt
                self._levels_seeded = True
        else:
            for level, cnt in self._level_counts:
                tbl[level] = tbl.get(level, 0) + moved_at.get(level, 0)
                rbl[level] = rbl.get(level, 0) + cnt
            self._levels_seeded = True
        self.total_touched += touched
        self.update_count += 1
        if new_weight > old:
            self.update_increases += 1
        else:
            self.update_decreases += 1
        return touched

    def _repair_decrease(
        self, part: VoronoiPartition, u: int, v: int, e_uv: int
    ) -> int:
        space = self._space
        w = self._w
        dist = part.dist
        seed = part.seed
        parent = part.parent
        children = part._children
        touched = 0
        pq: List[Tuple[float, int, int]] = []
        push = heappush
        pop = heappop
        w_uv = w[e_uv]
        # Initial probes, inlined (``VoronoiPartition.probe`` semantics,
        # children-set op history replicated via the _set_parent shape).
        for a_, b_ in ((u, v), (v, u)):
            o = seed[b_]
            if o < 0:
                continue
            d = dist[b_] + w_uv
            cur = dist[a_]
            s_ = seed[a_]
            if d < cur or (d == cur and o < s_) or (o != s_ and parent[a_] == b_):
                seed[a_] = o
                dist[a_] = d
                old = parent[a_]
                if old != b_:
                    if old >= 0:
                        siblings = children[old]
                        siblings.discard(a_)  # type: ignore[union-attr]
                        if not siblings:
                            children[old] = None
                    parent[a_] = b_
                    ch = children[b_]
                    if ch is None:
                        children[b_] = {a_}
                    else:
                        ch.add(a_)
                push(pq, (d, o, a_))
        nbr = space.nbr
        neid = space.neid
        while pq:
            d, s, x = pop(pq)
            if d > dist[x] or (d == dist[x] and s > seed[x]):
                continue  # stale entry
            touched += 1
            # dist[x]/seed[x] are stable across x's relaxation loop: the
            # probes below only ever write y-side state (y != x).
            dx = dist[x]
            sx = seed[x]
            for y, ey in zip(nbr[x], neid[x]):
                dy = dx + w[ey]
                cur = dist[y]
                sy = seed[y]
                if dy < cur or (dy == cur and sx < sy) or (sx != sy and parent[y] == x):
                    seed[y] = sx
                    dist[y] = dy
                    old = parent[y]
                    if old != x:
                        if old >= 0:
                            siblings = children[old]
                            siblings.discard(y)  # type: ignore[union-attr]
                            if not siblings:
                                children[old] = None
                        parent[y] = x
                        ch = children[x]
                        if ch is None:
                            children[x] = {y}
                        else:
                            ch.add(y)
                    push(pq, (dy, sx, y))
        part.last_touched = touched
        return touched

    def _repair_increase(self, part: VoronoiPartition, u: int, v: int) -> int:
        space = self._space
        w = self._w
        dist = part.dist
        seed = part.seed
        parent = part.parent
        children = part._children
        if parent[u] == v:
            orphan = u
        elif parent[v] == u:
            orphan = v
        else:
            part.last_touched = 0
            return 0
        # Subtree BFS — iterates the children sets exactly as the dict
        # backend does (identical op history ⇒ identical iteration order).
        impacted = [orphan]
        head = 0
        while head < len(impacted):
            ch = children[impacted[head]]
            if ch:
                impacted.extend(ch)
            head += 1
        impacted_set = set(impacted)
        nbr = space.nbr
        neid = space.neid
        for x in impacted:
            dist[x] = INF
            seed[x] = -1
            old = parent[x]
            if old != -1:
                if old >= 0:
                    siblings = children[old]
                    siblings.discard(x)  # type: ignore[union-attr]
                    if not siblings:
                        children[old] = None
                parent[x] = -1
        pq: List[Tuple[float, int, int]] = []
        push = heappush
        pop = heappop
        for x in impacted:
            for y in nbr[x]:
                if y not in impacted_set:
                    push(pq, (dist[y], seed[y], y))
        touched = len(impacted)
        while pq:
            d, s, x = pop(pq)
            if d > dist[x] or (d == dist[x] and s > seed[x]):
                continue
            sx = seed[x]
            if sx < 0:
                # Seedless frontier node: every probe from it fails the
                # o < 0 guard, so skipping its loop is an exact shortcut.
                continue
            dx = dist[x]
            for y, ey in zip(nbr[x], neid[x]):
                dy = dx + w[ey]
                cur = dist[y]
                sy = seed[y]
                if dy < cur or (dy == cur and sx < sy) or (sx != sy and parent[y] == x):
                    seed[y] = sx
                    dist[y] = dy
                    old = parent[y]
                    if old != x:
                        if old >= 0:
                            siblings = children[old]
                            siblings.discard(y)  # type: ignore[union-attr]
                            if not siblings:
                                children[old] = None
                        parent[y] = x
                        ch = children[x]
                        if ch is None:
                            children[x] = {y}
                        else:
                            ch.add(y)
                    touched += 1
                    push(pq, (dy, sx, y))
        part.last_touched = touched
        return touched

    # ------------------------------------------------------------------
    def on_rescale(self, g: float) -> None:
        factor = self._rescale_factor(g)
        weights = self._weights
        for key in weights:
            weights[key] *= factor
        w = self._w
        for i in range(len(w)):
            w[i] *= factor  # INF * factor == INF: unset-dist semantics hold
        for partition in self.partitions():
            partition.absorb_scale(factor)

    def set_all_weights(self, weights: Dict[Edge, float]) -> None:
        super().set_all_weights(weights)
        w = self._w
        for i in range(len(w)):
            w[i] = 0.0
        eid = self._space.eid
        for key, value in self._weights.items():
            w[eid[key]] = value
