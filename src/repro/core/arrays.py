"""Structure-of-arrays stores: the hot path of every serving engine.

The dict-of-dicts pipeline (``decay`` / ``similarity`` /
``reinforcement``) pays a tuple allocation plus a hash probe for every
edge-value it touches, and on that pipeline the sampling profiler puts
most of the online time in ``reinforce`` and ``index_repair`` — almost
all of it those per-edge dict operations
(``benchmarks/bench_engine_backends.py`` profiles both engines phase by
phase).  This module re-homes the hot state in flat arrays indexed by a
dense *edge id*:

* :class:`EdgeSpace` — the id-interning table.  Every canonical edge
  ``(u, v)`` gets a dense integer ``eid`` in ``graph.edges()`` order;
  per-node *paired* adjacency lists (``nbr[v][i]`` is the i-th neighbor,
  ``neid[v][i]`` the id of the connecting edge) make "value of the edge
  to my i-th neighbor" a single list index.
* :class:`ArrayEdgeValues` — an :class:`~repro.core.decay.AnchoredEdgeValues`
  drop-in whose payload is a flat ``List[float]`` indexed by eid, so the
  batched decay rescale is one contiguous elementwise sweep (the "lazy
  global decay with deferred per-edge materialization" of Definition 1,
  now over contiguous storage).
* :class:`ArrayActiveSimilarity` — σ and roles with *exact* generation
  caches plus a marker-array common-neighbor scan that replaces the
  merge-plus-dict-lookup inner loop.
* :class:`ArrayLocalReinforcement` — Equations 2–4 applied over the
  paired adjacency slices in one batch per trigger edge.

Bit-for-bit parity contract
---------------------------
The array backend is NOT "approximately the same": every float the dict
backend produces must be reproduced bitwise, because the chaos matrix,
the replica auditor and ``engine_signature`` all compare exact
``repr``s.  Three rules make that possible and every override below is
written against them:

1. **Same operands, same operation order.**  Sequential sums iterate the
   same (sorted) neighbor sequences and group additions exactly as the
   dict code does (``num += a(u,x) + a(v,x)``); elementwise multiplies
   (rescale absorption) are order-independent and may vectorize.
2. **Caches only ever short-circuit pure recomputation.**  A cached σ or
   role is returned only when a *generation stamp* proves that no input
   of the recomputation changed (activation endpoints bump their node
   generations and their neighbors' neighbor-generations; rescales and
   graph growth bump a global generation).  All stamps are sums of
   monotone counters, so a stamp match implies every input is untouched
   and the cached value equals the fresh recompute bitwise.
3. **Identical mutation history for order-bearing containers.**
   ``items_anchored()`` yields in eid order, which equals the dict
   backend's insertion order in every engine flow (initialization walks
   ``graph.edges()``; dynamic inserts append), so checkpoint documents
   are byte-identical across backends.

See ``docs/engine-internals.md`` for the full layout and the
parity-oracle testing contract (``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from math import sqrt
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.graph import Edge, Graph, edge_key
from .decay import AnchoredEdgeValues, DecayClock, ValueKind
from .reinforcement import SIMILARITY_CAP, SIMILARITY_FLOOR, LocalReinforcement
from .similarity import ActiveSimilarity, NodeRole

__all__ = [
    "EdgeSpace",
    "ArrayEdgeValues",
    "ArrayActiveSimilarity",
    "ArrayLocalReinforcement",
]

#: Callback signature for edge-growth notifications: ``fn(eid, u, v)``
#: with ``u < v`` and ``eid == len(space.edges) - 1`` at call time.
GrowthListener = Callable[[int, int, int], None]

#: An edge's cached common neighbors ``(xs, ea, eb)``: see
#: ``ArrayActiveSimilarity._cn``.
CommonNeighbors = Tuple[List[int], List[int], List[int]]


class EdgeSpace:
    """Dense edge-id interning over one graph, shared by all array stores.

    One instance per engine: the metric's stores, σ caches and the array
    pyramid index all key their flat payloads by this table's eids, so an
    edge inserted once (``ensure_edge``) grows every structure in
    lockstep through the registered growth listeners.

    ``nbr[v]`` holds *live references* to the graph's sorted adjacency
    lists (``Graph.neighbors`` returns the backing list), so a
    ``graph.add_edge`` is visible immediately; ``neid[v]`` is maintained
    in matching positions by :meth:`ensure_edge`.  The engine's only
    graph-mutation path (:func:`repro.index.dynamic.add_relation_edge`)
    calls ``ensure_edge`` right after ``add_edge``, keeping the pair
    aligned.
    """

    __slots__ = ("graph", "eid", "edges", "nbr", "neid", "_listeners")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.eid: Dict[Edge, int] = {}
        self.edges: List[Edge] = []
        self.nbr: List[Sequence[int]] = [graph.neighbors(v) for v in graph.nodes()]
        self.neid: List[List[int]] = [[] for _ in graph.nodes()]
        self._listeners: List[GrowthListener] = []
        eid = self.eid
        for key in graph.edges():
            eid[key] = len(self.edges)
            self.edges.append(key)
        for v in graph.nodes():
            self.neid[v] = [
                eid[(v, x) if v < x else (x, v)] for x in self.nbr[v]
            ]

    def add_listener(self, listener: GrowthListener) -> None:
        """Register a growth callback invoked once per interned new edge."""
        self._listeners.append(listener)

    def ensure_edge(self, u: int, v: int) -> int:
        """Intern the (already graph-inserted) edge ``{u, v}``; return its eid.

        Idempotent.  New eids append — preserving the invariant that eid
        order equals the dict backend's insertion order — and every
        registered store/cache is grown through its listener before this
        returns.
        """
        key = edge_key(u, v)
        existing = self.eid.get(key)
        if existing is not None:
            return existing
        if not self.graph.has_edge(u, v):
            raise ValueError(f"edge {key} is not in the relation graph")
        e = len(self.edges)
        self.eid[key] = e
        self.edges.append(key)
        a, b = key
        self.neid[a].insert(bisect_left(self.nbr[a], b), e)
        self.neid[b].insert(bisect_left(self.nbr[b], a), e)
        for listener in self._listeners:
            listener(e, a, b)
        return e


class ArrayEdgeValues(AnchoredEdgeValues):
    """Flat-array :class:`AnchoredEdgeValues`: payload indexed by eid.

    The inherited ``_values`` dict is kept as an *overflow* store for
    edges that are not in the graph (the dict backend accepts those too);
    in every engine flow it stays empty, and a later ``ensure_edge``
    migrates any overflow value into the array.

    ``items_anchored()`` yields interned edges in eid order, then any
    overflow entries — exactly the dict backend's insertion order in all
    engine flows (see the module docstring), which is what keeps
    checkpoint documents byte-identical across backends.
    """

    __slots__ = ("space", "_vals", "_pres", "_count")

    def __init__(
        self, clock: DecayClock, kind: ValueKind, space: EdgeSpace, name: str = ""
    ) -> None:
        super().__init__(clock, kind, name=name)
        self.space = space
        m = len(space.edges)
        #: Anchored values by eid (0.0 when never set, matching dict .get).
        self._vals: List[float] = [0.0] * m
        #: Presence bits by eid (len/contains/items semantics).
        self._pres: List[bool] = [False] * m
        self._count = 0
        clock.attach(self)
        space.add_listener(self._on_edge_added)

    def _on_edge_added(self, e: int, u: int, v: int) -> None:
        if e == len(self._vals):
            self._vals.append(0.0)
            self._pres.append(False)
        key = (u, v)
        if key in self._values:  # migrate a pre-interning overflow value
            self._vals[e] = self._values.pop(key)
            self._pres[e] = True
            self._count += 1

    # -- anchored-space access -----------------------------------------
    def anchored(self, u: int, v: int) -> float:
        key = edge_key(u, v)
        e = self.space.eid.get(key)
        if e is None:
            return self._values.get(key, 0.0)
        return self._vals[e]

    def set_anchored(self, u: int, v: int, value: float) -> None:
        key = edge_key(u, v)
        e = self.space.eid.get(key)
        if e is None:
            self._values[key] = value
            return
        self.set_by_eid(e, value)

    def set_by_eid(self, e: int, value: float) -> None:
        """Hot-path write for a known-interned edge (no key hashing)."""
        self._vals[e] = value
        if not self._pres[e]:
            self._pres[e] = True
            self._count += 1

    def add_anchored(self, u: int, v: int, delta: float) -> float:
        key = edge_key(u, v)
        e = self.space.eid.get(key)
        if e is None:
            new = self._values.get(key, 0.0) + delta
            self._values[key] = new
            return new
        new = self._vals[e] + delta
        self._vals[e] = new
        if not self._pres[e]:
            self._pres[e] = True
            self._count += 1
        return new

    def set_actual(self, u: int, v: int, value: float) -> None:
        self.set_anchored(u, v, self.to_anchored(value))

    # -- bookkeeping -------------------------------------------------------
    def _absorb(self, g: float) -> None:
        # Per-value multiply/divide is elementwise (order-independent in
        # IEEE 754), so the contiguous sweep is free to differ from the
        # dict backend's sorted-key order and still agree bitwise.
        if self.kind is ValueKind.POSITIVE:
            vals = self._vals
            for i in range(len(vals)):
                vals[i] *= g
            for key in sorted(self._values):
                self._values[key] *= g
        elif self.kind is ValueKind.NEGATIVE:
            vals = self._vals
            for i in range(len(vals)):
                vals[i] /= g
            for key in sorted(self._values):
                self._values[key] /= g
        # NEUTRAL values are invariant under rescale.

    def items_anchored(self) -> Iterator[Tuple[Edge, float]]:
        pres = self._pres
        vals = self._vals
        for e, key in enumerate(self.space.edges):
            if pres[e]:
                yield key, vals[e]
        yield from self._values.items()

    def __len__(self) -> int:
        return self._count + len(self._values)

    def __contains__(self, key: Edge) -> bool:
        e = self.space.eid.get(key)
        if e is not None:
            return self._pres[e]
        return key in self._values


class ArrayActiveSimilarity(ActiveSimilarity):
    """σ and roles with generation-exact caches and marker-array scans.

    Cache soundness (what makes a hit bitwise-exact):

    * ``σ(u, v)`` depends only on the activeness of edges incident to
      ``u`` or ``v`` and on ``strength[u] + strength[v]``.  An activation
      on edge ``(p, q)`` changes those inputs iff ``{p,q} ∩ {u,v} ≠ ∅``,
      so stamping σ with ``gen[u] + gen[v] + ggen`` (all monotone
      counters) and bumping ``gen`` at the endpoints of every activation
      makes a stamp match a proof of unchanged inputs.
    * ``role(v)`` additionally depends on σ of every incident edge, so
      its stamp adds ``nbr_gen[v]``, bumped for every neighbor of an
      activation endpoint.
    * Rescales rescale strengths and activeness together (σ is NeuM but
      the division operands change), and graph growth changes
      common-neighbor sets — both bump the global generation ``ggen``.

    The recompute path replaces the common-neighbor merge with a *marker
    array*: a scratch ``mark`` of size n holds ``eid(a, x)`` for
    ``x ∈ N(a)`` (else -1) for up to two pinned nodes, so one σ costs a
    single pass over the other endpoint's paired adjacency with two list
    indexes per candidate — same neighbor sequence, same addition
    grouping as the dict merge, no tuples and no hashing.
    """

    def __init__(
        self,
        graph: Graph,
        activeness: "Activeness",  # noqa: F821 - forward ref, see decay module
        *,
        eps: float = 0.3,
        mu: int = 3,
        space: EdgeSpace,
    ) -> None:
        self._space = space
        n = graph.n
        #: Per-node generation: bumped when the node is an activation endpoint.
        self._gen = [0] * n
        #: Bumped when any neighbor of the node is an activation endpoint.
        self._nbr_gen = [0] * n
        #: Global generation: rescales and graph growth.
        self._ggen = 0
        m = len(space.edges)
        self._sc_val: List[float] = [0.0] * m
        self._sc_stamp: List[int] = [-1] * m
        self._role_val: List[Optional[NodeRole]] = [None] * n
        self._role_stamp: List[int] = [-1] * n
        #: Per-node adjacency-growth generation: common-neighbor sets of
        #: an edge change only when an endpoint gains a neighbor, so a
        #: cached CN list stamped with ``sgen[a] + sgen[b]`` (monotone)
        #: is exact until then — activations and rescales never touch it.
        self._sgen = [0] * n
        #: Per-eid cached CN structure: ``(xs, ea, eb)`` with ``xs`` the
        #: ascending common neighbors of the canonical edge ``(a, b)``,
        #: ``ea[i] = eid(a, xs[i])`` and ``eb[i] = eid(b, xs[i])`` — two
        #: parallel lists rather than a 2-tuple per common neighbor.
        self._cn: List[Optional[CommonNeighbors]] = [None] * m
        self._cn_stamp: List[int] = [-1] * m
        #: Cached σ numerators with *explicit* invalidation: the edge
        #: (u, v) activation changes the numerator of exactly the edges
        #: joining a common neighbor to u or to v — the eids in (u, v)'s
        #: CN eid lists — so ``on_activation_delta`` bumps ``_ngen`` for
        #: just those.  Rescales, store edits and graph growth fold in
        #: through ``ggen``.  (A σ recompute whose numerator is still
        #: fresh only re-divides by the new strength sum.)
        self._num_val: List[float] = [0.0] * m
        self._num_stamp: List[int] = [-1] * m
        self._ngen: List[int] = [0] * m
        # Two marker slots (node, eid-by-neighbor scratch array).
        self._mk_node = [-1, -1]
        self._mk_eid: List[List[int]] = [[-1] * n, [-1] * n]
        self._mk_lru = 0
        #: Direct reference to the activeness payload (hot-loop alias;
        #: ArrayEdgeValues mutates the list in place, never rebinds it).
        self._avals: List[float] = activeness.store._vals  # type: ignore[attr-defined]
        super().__init__(graph, activeness, eps=eps, mu=mu)
        space.add_listener(self._on_edge_added)

    # -- growth / invalidation -----------------------------------------
    def _on_edge_added(self, e: int, u: int, v: int) -> None:
        if e == len(self._sc_val):
            self._sc_val.append(0.0)
            self._sc_stamp.append(-1)
            self._cn.append(None)
            self._cn_stamp.append(-1)
            self._num_val.append(0.0)
            self._num_stamp.append(-1)
            self._ngen.append(0)
        # Common-neighbor sets changed for pairs around u and v.
        self._ggen += 1
        self._sgen[u] += 1
        self._sgen[v] += 1
        # Keep loaded markers structurally current.
        for s in (0, 1):
            if self._mk_node[s] == u:
                self._mk_eid[s][v] = e
            elif self._mk_node[s] == v:
                self._mk_eid[s][u] = e

    def _rebuild_strengths(self) -> None:
        super()._rebuild_strengths()
        # Arbitrary store edits may precede a rebuild; drop every cache.
        self._ggen += 1

    def on_activation_delta(self, u: int, v: int, anchored_delta: float) -> None:
        super().on_activation_delta(u, v, anchored_delta)
        self._gen[u] += 1
        self._gen[v] += 1
        ng = self._nbr_gen
        for x in self._space.nbr[u]:
            ng[x] += 1
        for x in self._space.nbr[v]:
            ng[x] += 1
        # Exact numerator invalidation: only the edges between a common
        # neighbor of (u, v) and one of the endpoints carry the changed
        # a(u, v) as a numerator term — precisely the CN eids.
        key = (u, v) if u < v else (v, u)
        e = self._space.eid.get(key)
        if e is not None:
            a, b = key
            sg = self._sgen
            cn = self._cn[e]
            if cn is None or self._cn_stamp[e] != sg[a] + sg[b]:
                cn = self._cn_build(e, a, b, b)
            eng = self._ngen
            for pa in cn[1]:
                eng[pa] += 1
            for pb in cn[2]:
                eng[pb] += 1

    def on_rescale(self, g: float) -> None:
        super().on_rescale(g)
        self._ggen += 1

    # -- marker slots ----------------------------------------------------
    def _load_marker(self, a: int) -> int:
        s = self._mk_lru
        prev = self._mk_node[s]
        mark = self._mk_eid[s]
        space = self._space
        if prev >= 0:
            for x in space.nbr[prev]:
                mark[x] = -1
        for x, e in zip(space.nbr[a], space.neid[a]):
            mark[x] = e
        self._mk_node[s] = a
        self._mk_lru = 1 - s
        return s

    def marker_for(self, a: int) -> List[int]:
        """Pin ``a`` into a marker slot; returns its eid-by-neighbor array."""
        if self._mk_node[0] == a:
            self._mk_lru = 1
            return self._mk_eid[0]
        if self._mk_node[1] == a:
            self._mk_lru = 0
            return self._mk_eid[1]
        return self._mk_eid[self._load_marker(a)]

    # -- σ and roles -----------------------------------------------------
    def sigma(self, u: int, v: int) -> float:
        space = self._space
        e = space.eid.get((u, v) if u < v else (v, u), -1)
        if e < 0:
            # Non-edge pair (diagnostics / tests): the base scan is exact
            # and reads through ArrayEdgeValues.anchored transparently.
            return ActiveSimilarity.sigma(self, u, v)
        return self.sigma_eid(e, u, v)

    def _cn_build(self, e: int, a: int, b: int, prefer: int) -> CommonNeighbors:
        """(Re)build the cached CN structure of canonical edge ``(a, b)``.

        ``prefer`` names the endpoint the *calling loop* holds fixed
        across consecutive σ calls: when neither endpoint is pinned in a
        marker slot we load ``prefer``, so a loop's second build finds
        its stable node pinned and never evicts a marker list the loop
        still holds (the two-slot LRU would otherwise thrash).
        """
        mk_node = self._mk_node
        if mk_node[0] == a:
            s, on_a = 0, True
            self._mk_lru = 1
        elif mk_node[1] == a:
            s, on_a = 1, True
            self._mk_lru = 0
        elif mk_node[0] == b:
            s, on_a = 0, False
            self._mk_lru = 1
        elif mk_node[1] == b:
            s, on_a = 1, False
            self._mk_lru = 0
        else:
            s, on_a = self._load_marker(prefer), prefer == a
        mark = self._mk_eid[s]
        space = self._space
        xs: List[int] = []
        ea: List[int] = []
        eb: List[int] = []
        # Scanning either endpoint's sorted adjacency yields the same
        # ascending common-neighbor sequence; the marker holds
        # eid(pinned, x), the scanned paired list supplies the other.
        if on_a:
            for x, eo in zip(space.nbr[b], space.neid[b]):
                m = mark[x]
                if m >= 0:
                    xs.append(x)
                    ea.append(m)
                    eb.append(eo)
        else:
            for x, eo in zip(space.nbr[a], space.neid[a]):
                m = mark[x]
                if m >= 0:
                    xs.append(x)
                    ea.append(eo)
                    eb.append(m)
        cn = (xs, ea, eb)
        self._cn[e] = cn
        self._cn_stamp[e] = self._sgen[a] + self._sgen[b]
        return cn

    def sigma_eid(self, e: int, u: int, v: int) -> float:
        """σ of the interned edge ``e = eid(u, v)`` — the hot entry point.

        Callers that walk paired adjacency slices already hold the eid;
        passing it skips the tuple build + hash probe of :meth:`sigma`.
        """
        stamp = self._gen[u] + self._gen[v] + self._ggen
        if self._sc_stamp[e] == stamp:
            return self._sc_val[e]
        strength = self._strength
        denom = strength[u] + strength[v]
        if denom <= 0.0:
            val = 0.0
        else:
            nst = self._ngen[e] + self._ggen
            if self._num_stamp[e] == nst:
                num = self._num_val[e]
            else:
                a, b = self._space.edges[e]
                sg = self._sgen
                cn = self._cn[e]
                if cn is None or self._cn_stamp[e] != sg[a] + sg[b]:
                    cn = self._cn_build(e, a, b, v)
                vals = self._avals
                num = 0.0
                # Same ascending common-neighbor sequence and the same
                # `a(u,x) + a(v,x)` per-step grouping as the dict merge;
                # IEEE addition is commutative, so the canonical (a, b)
                # orientation reproduces either call orientation bitwise.
                for pa, pb in zip(cn[1], cn[2]):
                    num += vals[pa] + vals[pb]
                self._num_val[e] = num
                self._num_stamp[e] = nst
            val = num / denom
        self._sc_val[e] = val
        self._sc_stamp[e] = stamp
        return val

    def role(self, v: int) -> NodeRole:
        stamp = self._gen[v] + self._nbr_gen[v] + self._ggen
        if self._role_stamp[v] == stamp:
            cached = self._role_val[v]
            assert cached is not None
            return cached
        space = self._space
        nbrs = space.nbr[v]
        if len(nbrs) < self.mu:
            result = NodeRole.PERIPHERY
        else:
            count = 0
            eps = self.eps
            mu = self.mu
            sigma_eid = self.sigma_eid
            sstamp = self._sc_stamp
            sval = self._sc_val
            gen = self._gen
            ggen = self._ggen
            base = gen[v] + ggen
            nstamp = self._num_stamp
            nval = self._num_val
            engen = self._ngen
            strength = self._strength
            sv = strength[v]
            result = NodeRole.P_CORE
            for u, e in zip(nbrs, space.neid[v]):
                # Inlined σ-cache hit check (σ stamp = gen[u]+gen[v]+ggen)
                # plus the cached-numerator miss path: when only the
                # strength sum changed, σ is one division (commutative
                # operand order — bitwise equal to the dict recompute).
                st = base + gen[u]
                if sstamp[e] == st:
                    val = sval[e]
                else:
                    den = strength[u] + sv
                    if den <= 0.0:
                        val = 0.0
                        sval[e] = val
                        sstamp[e] = st
                    elif nstamp[e] == engen[e] + ggen:
                        val = nval[e] / den
                        sval[e] = val
                        sstamp[e] = st
                    else:
                        val = sigma_eid(e, u, v)
                if val >= eps:
                    count += 1
                    if count >= mu:
                        result = NodeRole.CORE
                        break
        self._role_val[v] = result
        self._role_stamp[v] = stamp
        return result


class ArrayLocalReinforcement(LocalReinforcement):
    """Equations 2–4 over paired adjacency slices (batched per trigger).

    Each override walks the identical (sorted) neighbor sequence as its
    dict counterpart and groups every float operation the same way; the
    only differences are *how a value is fetched* (one list index by eid
    instead of a tuple + hash probe) and that σ values arrive through the
    generation caches (exact by construction).  ``delta_for_trigger`` and
    ``sweep`` are inherited — they dispatch through these overrides.
    """

    def __init__(
        self,
        graph: Graph,
        sigma: ArrayActiveSimilarity,
        similarity: ArrayEdgeValues,
        *,
        floor: float = SIMILARITY_FLOOR,
        cap: float = SIMILARITY_CAP,
        space: EdgeSpace,
    ) -> None:
        super().__init__(graph, sigma, similarity, floor=floor, cap=cap)
        self._space = space

        #: Direct reference to the similarity payload (hot-loop alias;
        #: ArrayEdgeValues mutates the list in place, never rebinds it).
        self._simvals: List[float] = similarity._vals
        self._asigma = sigma

    # Public per-term API: exact equivalents of the base methods (tests
    # and diagnostics call these); the eid-direct variants below are the
    # hot path.
    def direct_consolidation(self, u: int, v: int) -> float:
        e = self._space.eid[(u, v) if u < v else (v, u)]
        return self._direct_eid(e, u, v)

    def _direct_eid(self, e: int, u: int, v: int) -> float:
        deg = len(self._space.nbr[u])
        if deg == 0:
            return 0.0
        sig = self._asigma
        gen = sig._gen
        ggen = sig._ggen
        # Inlined σ-cache hit check (σ stamp = gen[u]+gen[v]+ggen) with
        # the cached-numerator miss path (see `role`).
        st = gen[u] + gen[v] + ggen
        if sig._sc_stamp[e] == st:
            s_uv = sig._sc_val[e]
        else:
            strength = sig._strength
            den = strength[u] + strength[v]
            if den <= 0.0:
                s_uv = 0.0
                sig._sc_val[e] = s_uv
                sig._sc_stamp[e] = st
            elif sig._num_stamp[e] == sig._ngen[e] + ggen:
                s_uv = sig._num_val[e] / den
                sig._sc_val[e] = s_uv
                sig._sc_stamp[e] = st
            else:
                s_uv = sig.sigma_eid(e, u, v)
        return self._simvals[e] * s_uv / deg

    def triadic_consolidation(self, u: int, v: int) -> float:
        e = self._space.eid[(u, v) if u < v else (v, u)]
        return self._triadic_eid(e, u, v)

    def _triadic_eid(self, e: int, u: int, v: int) -> float:
        space = self._space
        deg = len(space.nbr[u])
        if deg == 0:
            return 0.0
        sig = self._asigma
        a, b = space.edges[e]
        sg = sig._sgen
        cn = sig._cn[e]
        if cn is None or sig._cn_stamp[e] != sg[a] + sg[b]:
            cn = sig._cn_build(e, a, b, u)
        xs, ea, eb = cn
        simvals = self._simvals
        sigma_eid = sig.sigma_eid
        sstamp = sig._sc_stamp
        sval = sig._sc_val
        gen = sig._gen
        ggen = sig._ggen
        base = gen[u] + ggen
        nstamp = sig._num_stamp
        nval = sig._num_val
        engen = sig._ngen
        strength = sig._strength
        su = strength[u]
        sqrt_ = sqrt
        total = 0.0
        # ea[i] / eb[i] are eid(a, w) / eid(b, w); pick the (u, w) /
        # (v, w) sides by orientation.  σ(w, u) lives on the (u, w) eid.
        if u == a:
            for w, ew_u, ew_v in zip(xs, ea, eb):
                fu = simvals[ew_u]
                fv = simvals[ew_v]
                if fu <= 0.0 or fv <= 0.0:
                    continue
                st = base + gen[w]
                if sstamp[ew_u] == st:
                    s_wu = sval[ew_u]
                else:
                    # Cached-numerator miss path (see `role`): only the
                    # strength sum changed, so σ is a single division.
                    den = strength[w] + su
                    if den <= 0.0:
                        s_wu = 0.0
                        sval[ew_u] = s_wu
                        sstamp[ew_u] = st
                    elif nstamp[ew_u] == engen[ew_u] + ggen:
                        s_wu = nval[ew_u] / den
                        sval[ew_u] = s_wu
                        sstamp[ew_u] = st
                    else:
                        s_wu = sigma_eid(ew_u, w, u)
                total += sqrt_(fu * fv) * s_wu
        else:
            for w, ew_v, ew_u in zip(xs, ea, eb):
                fu = simvals[ew_u]
                fv = simvals[ew_v]
                if fu <= 0.0 or fv <= 0.0:
                    continue
                st = base + gen[w]
                if sstamp[ew_u] == st:
                    s_wu = sval[ew_u]
                else:
                    # Cached-numerator miss path (see `role`): only the
                    # strength sum changed, so σ is a single division.
                    den = strength[w] + su
                    if den <= 0.0:
                        s_wu = 0.0
                        sval[ew_u] = s_wu
                        sstamp[ew_u] = st
                    elif nstamp[ew_u] == engen[ew_u] + ggen:
                        s_wu = nval[ew_u] / den
                        sval[ew_u] = s_wu
                        sstamp[ew_u] = st
                    else:
                        s_wu = sigma_eid(ew_u, w, u)
                total += sqrt_(fu * fv) * s_wu
        return total / deg

    def wedge_stretch(self, u: int, v: int) -> float:
        space = self._space
        deg = len(space.nbr[u])
        if deg == 0:
            return 0.0
        simvals = self._simvals
        sig = self._asigma
        markv = sig.marker_for(v)
        sigma_eid = sig.sigma_eid
        sstamp = sig._sc_stamp
        sval = sig._sc_val
        gen = sig._gen
        ggen = sig._ggen
        base = gen[u] + ggen
        nstamp = sig._num_stamp
        nval = sig._num_val
        engen = sig._ngen
        strength = sig._strength
        su = strength[u]
        total = 0.0
        for w, eu in zip(space.nbr[u], space.neid[u]):
            if w == v or markv[w] >= 0:
                continue  # w ∈ N(v) ∪ {v}: not a wedge
            st = base + gen[w]
            if sstamp[eu] == st:
                s_wu = sval[eu]
            else:
                # Cached-numerator miss path (see `role`).
                den = strength[w] + su
                if den <= 0.0:
                    s_wu = 0.0
                    sval[eu] = s_wu
                    sstamp[eu] = st
                elif nstamp[eu] == engen[eu] + ggen:
                    s_wu = nval[eu] / den
                    sval[eu] = s_wu
                    sstamp[eu] = st
                else:
                    s_wu = sigma_eid(eu, w, u)
            total += simvals[eu] * s_wu
        return total / deg

    def _delta_eid(self, e: int, u: int, v: int) -> float:
        """Eid-direct :meth:`delta_for_trigger` (identical dispatch)."""
        role = self._asigma.role(u)
        if role is NodeRole.CORE:
            return self._direct_eid(e, u, v) + self._triadic_eid(e, u, v)
        if role is NodeRole.PERIPHERY:
            return -self.wedge_stretch(u, v)
        return (
            self._direct_eid(e, u, v)
            + self._triadic_eid(e, u, v)
            - self.wedge_stretch(u, v)
        )

    def apply(self, u: int, v: int) -> float:
        key = edge_key(u, v)
        return self._apply_eid(self._space.eid[key], key[0], key[1])

    def _apply_eid(self, e: int, u: int, v: int) -> float:
        delta = self._delta_eid(e, u, v) + self._delta_eid(e, v, u)
        sim: ArrayEdgeValues = self.similarity  # type: ignore[assignment]
        new = self._simvals[e] + delta
        lo = sim.to_anchored(self.floor)
        hi = sim.to_anchored(self.cap)
        new = min(max(new, lo), hi)
        sim.set_by_eid(e, new)
        return new

    def sweep(self) -> None:
        # Same canonical edge order as the base sweep (eid order equals
        # graph.edges() order), with the per-edge interning skipped.
        apply_eid = self._apply_eid
        for e, (u, v) in enumerate(self._space.edges):
            apply_eid(e, u, v)
