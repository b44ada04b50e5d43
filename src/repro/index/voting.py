"""Voting over pyramids (Section V-B) and the live voted subgraph.

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
  moved and reports the endpoints of the votes that flipped.  It is the
  "Remarks" extension of Section V-C — vote counts kept in real time, so
  that changes around user-specified nodes are reported at a cost equal
  to the reporting — and what both
  :class:`~repro.index.clustering.ClusterQueryEngine` and
  :class:`~repro.monitor.ClusterWatcher` serve from.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import TYPE_CHECKING, List, Set, Tuple

from ..graph.graph import Edge, Graph
from .pyramid import PyramidIndex

if TYPE_CHECKING:
    import numpy as np

__all__ = ["voted_edges", "voted_adjacency", "LiveVotes"]


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

    def refresh(self) -> Set[int]:
        """Catch up with the live seeds.

        Returns the endpoints of the edges whose vote flipped since the
        previous refresh — empty when none did, every node after a full
        recount.
        """
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
            return set(graph.nodes())
        nodes = graph.nodes()
        moved: Set[int] = set()
        for old, new in zip(self._seeds, live):
            moved.update(compress(nodes, map(ne, old, new)))
        if not moved:
            return set()
        self._seeds = [list(seed) for seed in live]
        adj = self.adj
        flipped: Set[int] = set()
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
                    flipped.add(x)
                    flipped.add(y)
        return flipped

    def _voted(self, u: int, v: int) -> bool:
        """``H_l(u, v)`` counted on the held seed lists."""
        votes = 0
        for seed in self._seeds:
            su = seed[u]
            if su >= 0 and su == seed[v]:
                votes += 1
        return votes >= self.threshold
