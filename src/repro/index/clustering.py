"""Clustering with pyramids (Section V-B): even/power clustering, zooming,
and local cluster queries.

Given the voted subgraph at a granularity level:

* **Even clustering** reports its connected components.  Simple, but a
  single mis-voted edge can merge two clusters (the error amplification
  the paper warns about).
* **Power clustering** (``DirectedCluster`` in the experiments) directs
  every voted edge from the higher-degree endpoint to the lower-degree
  endpoint (node id breaks ties), then scans nodes from high rank to low:
  each still-unclustered node starts a cluster and absorbs every
  unclustered node reachable along directed edges.  High-degree "leader"
  nodes anchor clusters, so one bad vote cannot chain two leaders'
  territories together.

Both run in ``O(m log n)`` (Lemma 8) and both are search-based, so a
*local* query — the cluster of one node — costs time proportional to the
neighborhood of the reported nodes only (Lemma 9).  Zoom-in and zoom-out
move one granularity level up or down.

:func:`even_clustering` and :func:`power_clustering` are the one-shot
extraction: they vote every edge afresh.  :class:`ClusterQueryEngine`
answers from each level's live voted subgraph instead; both hand their
votes to the same search.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..obs.trace import DISABLED_OBS, Observability, perf_counter
from .pyramid import PyramidIndex
from .voting import LiveVotes, voted_adjacency

__all__ = [
    "node_rank_order",
    "even_clustering",
    "power_clustering",
    "local_cluster",
    "ClusterQueryEngine",
    "ZoomSession",
]

Clustering = List[List[int]]


def node_rank_order(graph: Graph) -> List[int]:
    """Nodes ordered from high degree to low, node id breaking ties."""
    return sorted(graph.nodes(), key=lambda v: (-graph.degree(v), v))


def _rank_and_position(graph: Graph) -> Tuple[List[int], List[int]]:
    """The rank order and ``position[v]``, v's index in it."""
    rank = node_rank_order(graph)
    position = [0] * graph.n
    for i, v in enumerate(rank):
        position[v] = i
    return rank, position


def _search(
    adj: Sequence[Iterable[int]], order: Iterable[int], position: Sequence[int]
) -> Clustering:
    """The search both methods share.

    Each node of ``order`` that is still unclustered starts a cluster and
    claims every unclustered node it reaches along voted edges
    ``x → y`` with ``position[y] >= position[x]``.  Clusters are sorted
    internally and listed in the order their first node was met.
    """
    clustered = [False] * len(position)
    clusters: Clustering = []
    for v in order:
        if clustered[v]:
            continue
        clustered[v] = True
        cluster = [v]
        head = 0
        while head < len(cluster):
            x = cluster[head]
            head += 1
            px = position[x]
            for y in adj[x]:
                if not clustered[y] and position[y] >= px:
                    clustered[y] = True
                    cluster.append(y)
        cluster.sort()
        clusters.append(cluster)
    return clusters


def _even(index: PyramidIndex, adj: Sequence[Iterable[int]]) -> Clustering:
    # Equal positions let the search follow every voted edge: components.
    n = index.graph.n
    return _search(adj, range(n), [0] * n)


def _power(index: PyramidIndex, adj: Sequence[Iterable[int]]) -> Clustering:
    # Distinct positions direct each edge down the rank order.
    rank, position = index.graph_cache("rank_order", _rank_and_position)
    return _search(adj, rank, position)


def even_clustering(index: PyramidIndex, level: int) -> Clustering:
    """Connected components of the voted subgraph at ``level``.

    Each cluster is a sorted node list; clusters are ordered by their
    minimum node.  Every node appears in exactly one cluster (isolated
    nodes form singletons).
    """
    return _even(index, voted_adjacency(index, level))


def power_clustering(index: PyramidIndex, level: int) -> Clustering:
    """Power clustering (``DirectedCluster``) at ``level``.

    Directs voted edges high-degree → low-degree, then searches in rank
    order; each search claims all unclustered nodes reachable along the
    direction.  Returns a partition of ``V`` (clusters sorted internally,
    ordered by the rank of their leader).
    """
    return _power(index, voted_adjacency(index, level))


def local_cluster(index: PyramidIndex, v: int, level: int) -> List[int]:
    """The cluster containing ``v`` at ``level`` — bounded search (Lemma 9).

    Explores only the voted component of ``v``: for each frontier node the
    votes of its incident edges are evaluated on demand, so the cost is
    proportional to the neighborhoods of the reported nodes, not to the
    graph.  Matches :func:`even_clustering`'s component for ``v``.
    """
    graph = index.graph
    seen = {v}
    comp = [v]
    head = 0
    while head < len(comp):
        x = comp[head]
        head += 1
        for y in graph.neighbors(x):
            if y not in seen and index.same_cluster_vote(x, y, level):
                seen.add(y)
                comp.append(y)
    comp.sort()
    return comp


class ClusterQueryEngine:
    """Query front-end over a :class:`PyramidIndex` (Problem 1's API).

    Supports the three operations of the problem statement: report all
    clusters at the ``Θ(√n)`` granularity with zoom-in/zoom-out, and local
    cluster queries (smallest cluster, ``√n``-granularity cluster) with
    zooming.  ``method`` selects power (default, the paper's
    DirectedCluster) or even clustering for the global reports.

    Each level it has reported keeps its voted subgraph live
    (:class:`~repro.index.voting.LiveVotes`) together with that level's
    last clustering, so a report pays for the seeds that moved since the
    previous one and searches again only when a vote flipped.  Every
    report is a fresh copy the caller owns.
    """

    def __init__(self, index: PyramidIndex, *, method: str = "power") -> None:
        if method not in ("power", "even"):
            raise ValueError(f"method must be 'power' or 'even', got {method}")
        self.index = index
        self.method = method
        self._cluster = _power if method == "power" else _even
        self._votes: Dict[int, LiveVotes] = {}
        self._clusterings: Dict[int, Clustering] = {}
        self._obs = DISABLED_OBS

    def bind_obs(self, obs: Observability) -> None:
        """Bind an observability bundle (engines call this via ``attach_obs``).

        With an enabled bundle, global and local cluster queries record
        their latency into the ``query_clusters_seconds`` /
        ``query_local_seconds`` histograms and emit ``query_*`` spans.
        """
        self._obs = obs
        if obs.enabled:
            # Create the instruments eagerly so exposition shows the
            # (empty) histograms before the first query arrives.
            obs.registry.histogram("query_clusters_seconds")
            obs.registry.histogram("query_local_seconds")

    # -- granularity handling -------------------------------------------
    @property
    def num_levels(self) -> int:
        """Total granularities ``⌈log₂ n⌉`` (O(log₂ n) as required)."""
        return self.index.num_levels

    def sqrt_n_level(self) -> int:
        """The level whose seed count is closest to ``√n`` from above.

        At level ``l`` there are ``2^{l-1}`` seeds; the number of clusters
        is at most that, so choosing ``2^{l-1} ≳ √n`` yields the
        ``Θ(√n)``-cluster granularity of Problem 1.
        """
        n = self.index.graph.n
        target = math.sqrt(n)
        best = 1
        for level in range(1, self.num_levels + 1):
            if (1 << (level - 1)) >= target:
                return level
            best = level
        return best

    def clamp_level(self, level: int) -> int:
        """Clamp a level into the valid range 1..num_levels."""
        return max(1, min(self.num_levels, level))

    def zoom_in(self, level: int) -> int:
        """Finer granularity (more, smaller clusters): level + 1."""
        return self.clamp_level(level + 1)

    def zoom_out(self, level: int) -> int:
        """Coarser granularity (fewer, larger clusters): level - 1."""
        return self.clamp_level(level - 1)

    # -- global reports ---------------------------------------------------
    def clusters(self, level: Optional[int] = None) -> Clustering:
        """All clusters at ``level`` (default: the ``√n`` granularity)."""
        if level is None:
            level = self.sqrt_n_level()
        level = self.clamp_level(level)
        obs = self._obs
        if not obs.enabled:
            return self._clusters_at(level)
        start = perf_counter()
        with obs.tracer.span("query_clusters", level=level):
            result = self._clusters_at(level)
        obs.registry.histogram("query_clusters_seconds").observe(
            perf_counter() - start
        )
        return result

    def _clusters_at(self, level: int) -> Clustering:
        votes = self._votes.get(level)
        if votes is None:
            votes = self._votes[level] = LiveVotes(self.index, level)
        if votes.refresh():
            self._clusterings[level] = self._cluster(self.index, votes.adj)
        return [list(cluster) for cluster in self._clusterings[level]]

    def clusters_closest_to(self, target_count: int, *, min_size: int = 1) -> Tuple[int, Clustering]:
        """Level whose cluster count is closest to ``target_count``.

        Clusters smaller than ``min_size`` are excluded from the count
        (the paper drops clusters under 3 nodes as noise when comparing
        against ground truth).  Returns ``(level, clusters)`` with the
        full (unfiltered) clustering of the chosen level.
        """
        best_level, best_clusters, best_gap = 1, None, None
        for level in range(1, self.num_levels + 1):
            clusters = self.clusters(level)
            count = sum(1 for c in clusters if len(c) >= min_size)
            gap = abs(count - target_count)
            if best_gap is None or gap < best_gap:
                best_level, best_clusters, best_gap = level, clusters, gap
        assert best_clusters is not None
        return best_level, best_clusters

    # -- local queries ------------------------------------------------------
    def cluster_of(self, v: int, level: Optional[int] = None) -> List[int]:
        """The cluster containing ``v`` (default level: ``√n`` granularity).

        Uses the bounded component search of Lemma 9 — cost proportional
        to the neighborhoods of the reported nodes.
        """
        if level is None:
            level = self.sqrt_n_level()
        level = self.clamp_level(level)
        obs = self._obs
        if not obs.enabled:
            return local_cluster(self.index, v, level)
        start = perf_counter()
        with obs.tracer.span("query_local", node=v, level=level):
            result = local_cluster(self.index, v, level)
        obs.registry.histogram("query_local_seconds").observe(
            perf_counter() - start
        )
        return result

    def smallest_cluster_of(self, v: int) -> Tuple[int, List[int]]:
        """The smallest cluster containing ``v`` (finest granularity).

        Returns ``(level, cluster)`` at the deepest level; repeated
        zoom-out from there answers the first local query of Problem 1.
        """
        level = self.num_levels
        return level, self.cluster_of(v, level)

    def cluster_sizes(self, level: Optional[int] = None) -> List[int]:
        """Sorted (descending) cluster sizes — a cheap fingerprint."""
        return sorted((len(c) for c in self.clusters(level)), reverse=True)

    def zoom_session(self, v: int, *, start: str = "smallest") -> "ZoomSession":
        """Interactive zoom session for node ``v`` (Problem 1's local
        queries with "repetitive zoom-out operations").

        ``start``: ``"smallest"`` begins at the finest granularity (the
        smallest cluster containing ``v``); ``"sqrt"`` begins at the
        ``Θ(√n)`` granularity.
        """
        if start == "smallest":
            level = self.num_levels
        elif start == "sqrt":
            level = self.sqrt_n_level()
        else:
            raise ValueError(f"start must be 'smallest' or 'sqrt', got {start!r}")
        return ZoomSession(self, v, level)


class ZoomSession:
    """Stateful zoom cursor over one node's local clusters.

    Each :meth:`zoom_in` / :meth:`zoom_out` moves one granularity level
    and re-queries the node's cluster with the bounded local search;
    :attr:`cluster` always reflects the current level.  The session reads
    the live index, so the same session remains valid across stream
    updates (the cluster is re-derived on each move or via
    :meth:`refresh`).
    """

    def __init__(self, engine: ClusterQueryEngine, node: int, level: int) -> None:
        if not engine.index.graph.has_node(node):
            raise ValueError(f"unknown node {node}")
        self.engine = engine
        self.node = node
        self.level = engine.clamp_level(level)
        self.cluster: List[int] = engine.cluster_of(node, self.level)

    def refresh(self) -> List[int]:
        """Re-derive the cluster at the current level (after updates)."""
        self.cluster = self.engine.cluster_of(self.node, self.level)
        return self.cluster

    def zoom_in(self) -> List[int]:
        """Finer granularity; returns the (typically smaller) cluster."""
        self.level = self.engine.zoom_in(self.level)
        return self.refresh()

    def zoom_out(self) -> List[int]:
        """Coarser granularity; returns the (typically larger) cluster."""
        self.level = self.engine.zoom_out(self.level)
        return self.refresh()

    @property
    def at_finest(self) -> bool:
        """Whether further zoom-in is a no-op."""
        return self.level >= self.engine.num_levels

    @property
    def at_coarsest(self) -> bool:
        """Whether further zoom-out is a no-op."""
        return self.level <= 1
