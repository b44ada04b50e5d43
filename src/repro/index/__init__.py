"""Pyramid distance index: Voronoi partitions, voting, clustering queries."""

from .clustering import (
    ClusterQueryEngine,
    Clustering,
    ZoomSession,
    even_clustering,
    local_cluster,
    node_rank_order,
    power_clustering,
)
from .distances import (
    common_seed_witness,
    estimate_distance,
    estimate_eccentricity,
    rank_by_estimated_distance,
)
from .dynamic import add_relation_edge, insert_edge_into_index, register_edge_in_metric
from .pyramid import Pyramid, PyramidIndex, levels_for, seeds_at_level
from .voronoi import VoronoiPartition
from .voting import LiveVotes, voted_adjacency, voted_edges

__all__ = [
    "common_seed_witness",
    "estimate_distance",
    "estimate_eccentricity",
    "rank_by_estimated_distance",
    "add_relation_edge",
    "insert_edge_into_index",
    "register_edge_in_metric",
    "ClusterQueryEngine",
    "Clustering",
    "ZoomSession",
    "even_clustering",
    "local_cluster",
    "node_rank_order",
    "power_clustering",
    "Pyramid",
    "PyramidIndex",
    "levels_for",
    "seeds_at_level",
    "VoronoiPartition",
    "LiveVotes",
    "voted_adjacency",
    "voted_edges",
]
