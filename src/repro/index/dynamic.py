"""Relation-network growth: inserting new edges into a live index.

The paper fixes the relation network ``E`` and streams activations over
it (the case study stresses "there is no edge/node insertion/deletion").
Real deployments eventually meet a *new* friendship or first-time
collaboration, so this module extends the live structures with edge
insertion — the natural extension the model needs in practice:

* a brand-new edge enters every Voronoi partition as a weight *decrease*
  from +∞, so Algorithm 1 (Update-Decrease) already repairs the
  partitions with the same bounded, affected-set-only cost (Lemma 12);
* the metric side seeds the edge with the model's initial conditions —
  current activeness 1 and current similarity 1, exactly how every
  original edge started at t = 0.

Deletion is intentionally not offered: severing a relationship in an
activation network is modelled by its activeness decaying to nothing,
not by structural removal (and the paper's partitions rely on the edge
set only growing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.metric import SimilarityFunction
from ..graph.graph import edge_key
from ..graph.traversal import INF
from .pyramid import PyramidIndex

__all__ = [
    "insert_edge_into_index",
    "register_edge_in_metric",
    "add_relation_edge",
]

if TYPE_CHECKING:  # avoid the core.anc <-> index circular import at runtime
    from ..core.anc import ANCEngineBase


def insert_edge_into_index(
    index: PyramidIndex, u: int, v: int, weight: float
) -> int:
    """Add a new edge to a live pyramid index.

    The edge must already exist in ``index.graph`` (insert it there
    first) and must not yet have a weight.  The key is stored at +∞ and
    ``weight`` then goes through :meth:`PyramidIndex.update_edge_weight`:
    a new finite weight can only shorten paths, so every partition
    repairs via Update-Decrease.  Returns the total number of touched
    nodes across partitions.
    """
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    if not index.graph.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) is not in the relation graph")
    key = edge_key(u, v)
    if key in index._weights:
        raise ValueError(f"edge {key} already has a weight; use update_edge_weight")
    index._store_weight(key, INF)
    return index.update_edge_weight(u, v, weight)


def register_edge_in_metric(metric: SimilarityFunction, u: int, v: int) -> float:
    """Seed a newly inserted edge in the metric pipeline.

    Gives the edge the t = 0 initial conditions *at the current time*:
    actual activeness 1 and actual similarity 1 (anchored via the global
    decay factor, so they decay from now on like any other value).
    Updates the cached node strengths.  Returns the new anchored
    reciprocal weight for the index.

    On array stores the edge is interned in the metric's edge space
    first, so every flat store grows (and the σ caches invalidate) in
    lockstep with the graph before the first write.
    """
    if not metric.graph.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) is not in the relation graph")
    key = edge_key(u, v)
    if key in metric.similarity:
        raise ValueError(f"edge {key} is already registered")
    if metric.space is not None:
        metric.space.ensure_edge(u, v)
    anchored_activeness = metric.activeness.store.to_anchored(1.0)
    metric.activeness.store.set_anchored(u, v, anchored_activeness)
    metric.sigma.on_activation_delta(u, v, anchored_activeness)
    metric.similarity.set_actual(u, v, 1.0)
    return 1.0 / metric.similarity.anchored(u, v)


def add_relation_edge(engine: "ANCEngineBase", u: int, v: int) -> int:
    """Grow a live engine's relation network by one edge.

    Inserts the edge into the graph, the metric and the index, keeping
    all three consistent.  Returns the number of index nodes touched by
    the repair.  No-op (returns 0) if the edge already exists.
    """
    if engine.graph.has_edge(u, v):
        return 0
    engine.graph.add_edge(u, v)
    weight = register_edge_in_metric(engine.metric, u, v)
    return insert_edge_into_index(engine.index, u, v, weight)
