"""Parallel index maintenance (Lemma 13).

The ``log₂(n) × k`` Voronoi partitions in ``P`` are mutually independent
in storage, update and query processing, so an edge-weight update can be
dispatched to all of them concurrently — the paper states the update "is
embarrassingly parallel and can be deployed to achieve a speedup up to
log₂(n) × k".

:class:`ParallelUpdater` reproduces that structure with a thread pool:
each worker owns a disjoint shard of partitions and repairs them
independently; no locks are needed because nothing is shared except the
read-only graph and the weight table, which is written once *before* the
fan-out.  (CPython's GIL caps the wall-clock speedup of pure-Python
workers; the point reproduced here is the independence/correctness of
the decomposition, verified by tests against sequential updates.  A
native or subinterpreter backend would realize the full speedup.)
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Edge, Graph, edge_key
from .pyramid import Pyramid, PyramidIndex, levels_for, seeds_at_level
from .voronoi import VoronoiPartition

__all__ = ["ParallelUpdater", "build_index_parallel"]


class ParallelUpdater:
    """Fan edge-weight updates out over the independent partitions.

    Parameters
    ----------
    index:
        The pyramid index to maintain.  The updater replaces the usual
        :meth:`PyramidIndex.update_edge_weight` call path; do not mix the
        two concurrently.
    workers:
        Thread-pool size (default: min(8, number of partitions)).
    """

    def __init__(self, index: PyramidIndex, *, workers: Optional[int] = None) -> None:
        self.index = index
        self._levels: List[int] = []
        self._partitions: List[VoronoiPartition] = []
        for level, partition in index.partitions_with_levels():
            self._levels.append(level)
            self._partitions.append(partition)
        if workers is None:
            workers = min(8, len(self._partitions)) or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="pyramid-update"
        )

    def update_edge_weight(self, u: int, v: int, new_weight: float) -> int:
        """Set the weight and repair all partitions concurrently.

        Semantics identical to :meth:`PyramidIndex.update_edge_weight`;
        returns the total number of touched nodes.
        """
        if new_weight <= 0:
            raise ValueError(f"weight must be positive, got {new_weight}")
        new_weight *= self.index._scale
        key = edge_key(u, v)
        old = self.index._weights[key]
        if new_weight == old:
            return 0
        # The weight table is written exactly once, before any worker
        # reads it: every partition then sees one consistent new value.
        self.index._store_weight(key, new_weight)

        def repair(partition: VoronoiPartition) -> int:
            return partition.apply_weight_change(u, v, old, new_weight)

        moved = list(self._pool.map(repair, self._partitions))
        touched = sum(moved)
        for level, count in zip(self._levels, moved):
            self.index._record_repair(level, count)
        self.index.total_touched += touched
        self.index.update_count += 1
        if new_weight > old:
            self.index.update_increases += 1
        else:
            self.index.update_decreases += 1
        return touched

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelUpdater":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def build_index_parallel(
    graph: Graph,
    weights: Dict[Edge, float],
    *,
    k: int = 4,
    seed: Optional[int] = 0,
    support: float = 0.7,
    workers: int = 4,
) -> PyramidIndex:
    """Construct a :class:`PyramidIndex` with concurrent partition builds.

    The Das Sarma oracle's construction "can be easily parallelized/
    distributed" [31]: each (pyramid, level) Voronoi partition is an
    independent multi-source Dijkstra.  This builder derives exactly the
    same seed sets as the sequential :class:`PyramidIndex` constructor
    (same ``seed`` ⇒ identical index) but runs the Dijkstras through a
    thread pool.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Set up the index shell without building partitions: replicate the
    # constructor's validation and RNG stream, then build concurrently.
    index = PyramidIndex.__new__(PyramidIndex)
    missing = [e for e in graph.edges() if e not in weights]
    if missing:
        raise ValueError(f"weights missing for {len(missing)} edges")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    index.graph = graph
    index.k = k
    index.support = support
    index._weights = dict(weights)
    index._weight_fn = index._make_weight_fn()
    index._init_counters()
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    jobs = []  # (pyramid_idx, level, seeds) in the sequential RNG order
    for p_idx in range(k):
        sub = random.Random(rng.randrange(2**63))
        for level in range(1, levels_for(graph.n) + 1):
            seeds = sub.sample(nodes, seeds_at_level(level, graph.n))
            jobs.append((p_idx, level, seeds))

    def build(job: Tuple[int, int, List[int]]) -> Tuple[int, int, VoronoiPartition]:
        p_idx, level, seeds = job
        return p_idx, level, VoronoiPartition(graph, seeds, index._weight_fn)

    index.pyramids = []
    for p_idx in range(k):
        pyramid = Pyramid.__new__(Pyramid)
        pyramid.graph = graph
        pyramid.levels = {}
        index.pyramids.append(pyramid)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for p_idx, level, partition in pool.map(build, jobs):
            index.pyramids[p_idx].levels[level] = partition
    return index
