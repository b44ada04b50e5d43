"""Voting over pyramids (Section V-B) and the maintained vote table.

The basic voting function ``H_l(u, v)`` lives on
:meth:`repro.index.pyramid.PyramidIndex.same_cluster_vote`.  This module
adds:

* :func:`voted_edges` — materialize, for one granularity level, the edges
  of ``G`` that survive the vote, one ``H_l`` call per edge (the
  reference loop);
* :func:`voted_adjacency` — the same edges as adjacency lists (the input
  to the one-shot even/power clustering), counted for every edge at once
  by one numpy kernel over the level's ``k`` seed lists;
* :class:`LiveVotes` — one level's voted subgraph kept current between
  queries: each refresh recounts only the edges at nodes whose seed
  moved (what :class:`~repro.index.clustering.ClusterQueryEngine`
  serves from);
* :class:`VoteTable` — the "Remarks" extension of Section V-C: a per-level,
  per-edge vote count maintained in real time, so that changes around
  user-specified nodes can be reported at a cost equal to the reporting.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..graph.graph import Edge, Graph, edge_key
from .pyramid import PyramidIndex

if TYPE_CHECKING:
    import numpy as np

__all__ = ["voted_edges", "voted_adjacency", "LiveVotes", "VoteTable"]


def voted_edges(index: PyramidIndex, level: int) -> List[Edge]:
    """Edges of ``G`` whose voting result ``H_l`` is 1 at ``level``."""
    return [
        (u, v)
        for u, v in index.graph.edges()
        if index.same_cluster_vote(u, v, level)
    ]


def _edge_endpoints(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """The endpoints of ``graph.edges()``, in order, as two index arrays."""
    import numpy as np

    ends = np.array(graph.edges(), dtype=np.intp).reshape(graph.m, 2)
    return ends[:, 0].copy(), ends[:, 1].copy()


def voted_adjacency(index: PyramidIndex, level: int) -> List[List[int]]:
    """Adjacency lists of the voted subgraph at ``level``.

    Yields exactly :func:`voted_edges`' edges in the same order (each
    appended to both endpoints' lists), but counts every edge's votes in
    one vectorized pass per pyramid: a pyramid votes for ``(u, v)`` when
    both endpoints have the same seed and that seed is not ``-1``.
    """
    # numpy loads on the first one-shot vote; serving processes answer
    # from LiveVotes and never load it.
    import numpy as np

    us, vs = index.graph_cache("edge_endpoints", _edge_endpoints)
    votes = np.zeros(len(us), dtype=np.intp)
    for partition in index.partitions_at(level):
        seed = np.array(partition.seed, dtype=np.intp)
        su = seed[us]
        votes += (su >= 0) & (su == seed[vs])
    keep = np.flatnonzero(votes >= index.support * index.k)
    adj: List[List[int]] = [[] for _ in range(index.graph.n)]
    for u, v in zip(us[keep].tolist(), vs[keep].tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


class LiveVotes:
    """The voted subgraph of one level, kept live by diffing seed lists.

    Holds a copy of the level's ``k`` seed lists and, in :attr:`adj`,
    the voted neighbors of every node — the edges of
    :func:`voted_adjacency`, as sets.  :meth:`refresh` compares the live
    seeds with the copy and recounts the votes only on edges incident to
    a node whose seed moved in some pyramid: an edge's vote reads its
    endpoints' seeds and nothing else, so no other vote can have
    changed.  Edges are only ever appended to the graph, so a changed
    ``graph.m`` is the one case that recounts every edge.
    """

    def __init__(self, index: PyramidIndex, level: int) -> None:
        self.index = index
        self.level = level
        self.threshold = index.support * index.k
        #: adj[v] = the neighbors of v whose edge to v carries the vote.
        self.adj: List[Set[int]] = []
        self._seeds: List[List[int]] = []
        self._m = -1

    def refresh(self) -> bool:
        """Catch up with the live seeds; True when any vote flipped."""
        graph = self.index.graph
        live = [part.seed for part in self.index.partitions_at(self.level)]
        if graph.m != self._m:
            self._m = graph.m
            self._seeds = [list(seed) for seed in live]
            self.adj = [set() for _ in graph.nodes()]
            for u, v in graph.edges():
                if self._voted(u, v):
                    self.adj[u].add(v)
                    self.adj[v].add(u)
            return True
        nodes = graph.nodes()
        moved: Set[int] = set()
        for old, new in zip(self._seeds, live):
            moved.update(compress(nodes, map(ne, old, new)))
        if not moved:
            return False
        self._seeds = [list(seed) for seed in live]
        adj = self.adj
        flipped = False
        for x in moved:
            near = adj[x]
            for y in graph.neighbors(x):
                if self._voted(x, y) != (y in near):
                    if y in near:
                        near.discard(y)
                        adj[y].discard(x)
                    else:
                        near.add(y)
                        adj[y].add(x)
                    flipped = True
        return flipped

    def _voted(self, u: int, v: int) -> bool:
        """``H_l(u, v)`` counted on the held seed lists."""
        votes = 0
        for seed in self._seeds:
            su = seed[u]
            if su >= 0 and su == seed[v]:
                votes += 1
        return votes >= self.threshold


class VoteTable:
    """Real-time per-edge vote counts for every granularity level.

    After every index update, :meth:`refresh_around` recounts only the
    edges incident to the touched nodes — the "local feature of the
    update" the paper's Remarks exploit.  :meth:`changed_edges` drains the
    set of edges whose vote flipped since last drained, which is exactly
    what a user-facing change feed would report.
    """

    def __init__(self, index: PyramidIndex) -> None:
        self.index = index
        self.threshold = index.support * index.k
        # counts[level][edge] = number of agreeing pyramids
        self.counts: Dict[int, Dict[Edge, int]] = {}
        self._changed: Dict[int, Set[Edge]] = {}
        for level in range(1, index.num_levels + 1):
            table: Dict[Edge, int] = {}
            for u, v in index.graph.edges():
                table[(u, v)] = index.vote_count(u, v, level)
            self.counts[level] = table
            self._changed[level] = set()

    def vote(self, u: int, v: int, level: int) -> bool:
        """``H_l(u, v)`` from the maintained table (edges of ``G`` only).

        Edges inserted after construction count as 0 until the first
        :meth:`refresh_around` that covers them.
        """
        return self.counts[level].get(edge_key(u, v), 0) >= self.threshold

    def refresh_around(self, nodes: Iterable[int], level: Optional[int] = None) -> int:
        """Recount votes for all edges incident to ``nodes``.

        Returns the number of edges whose vote result flipped.  When
        ``level`` is None all levels refresh.
        """
        node_set = set(nodes)
        levels = range(1, self.index.num_levels + 1) if level is None else (level,)
        graph = self.index.graph
        flips = 0
        edges_to_check: Set[Edge] = set()
        for x in node_set:
            for y in graph.neighbors(x):
                edges_to_check.add(edge_key(x, y))
        for lvl in levels:
            table = self.counts[lvl]
            for key in edges_to_check:
                # Edges inserted after construction (index growth) enter
                # the table here with an implicit prior count of 0.
                old = table.get(key, 0)
                new = self.index.vote_count(key[0], key[1], lvl)
                if new != old or key not in table:
                    table[key] = new
                    was = old >= self.threshold
                    now = new >= self.threshold
                    if was != now:
                        self._changed[lvl].add(key)
                        flips += 1
        return flips

    def changed_edges(self, level: int) -> List[Edge]:
        """Drain and return the edges whose vote flipped at ``level``."""
        out = sorted(self._changed[level])
        self._changed[level].clear()
        return out
