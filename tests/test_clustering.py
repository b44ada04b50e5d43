"""Unit tests for even/power clustering, zooming and local queries (§V-B)."""

import math

import pytest

from repro.graph.generators import barbell_graph
from repro.index.clustering import (
    ClusterQueryEngine,
    even_clustering,
    local_cluster,
    node_rank_order,
    power_clustering,
)
from repro.index.pyramid import PyramidIndex
from repro.index.voting import LiveVotes, voted_adjacency, voted_edges


@pytest.fixture
def barbell_index():
    graph = barbell_graph(6, bridge=1)
    # Bridge edge is heavy (dissimilar); intra-clique edges light.
    weights = {}
    for u, v in graph.edges():
        cross = (u < 6) != (v < 6)
        weights[(u, v)] = 10.0 if cross else 1.0
    return PyramidIndex(graph, weights, k=4, seed=1)


@pytest.fixture
def planted_index(medium_planted):
    graph, labels = medium_planted
    weights = {}
    for u, v in graph.edges():
        weights[(u, v)] = 1.0 if labels[u] == labels[v] else 8.0
    return PyramidIndex(graph, weights, k=4, seed=2), labels


def is_partition(clusters, n):
    seen = sorted(v for c in clusters for v in c)
    return seen == list(range(n))


class TestNodeRankOrder:
    def test_high_degree_first(self, barbell_index):
        order = node_rank_order(barbell_index.graph)
        degrees = [barbell_index.graph.degree(v) for v in order]
        assert degrees == sorted(degrees, reverse=True)

    def test_ties_broken_by_id(self):
        graph = barbell_graph(4, bridge=1)
        order = node_rank_order(graph)
        same_degree = [v for v in order if graph.degree(v) == graph.degree(order[0])]
        assert same_degree == sorted(same_degree)


class TestEvenClustering:
    def test_is_partition(self, barbell_index):
        for level in range(1, barbell_index.num_levels + 1):
            clusters = even_clustering(barbell_index, level)
            assert is_partition(clusters, barbell_index.graph.n)

    def test_level1_is_connected_components(self, barbell_index):
        clusters = even_clustering(barbell_index, 1)
        assert len(clusters) == 1  # the graph is connected

    def test_separates_barbell_at_some_level(self, barbell_index):
        separated = False
        for level in range(1, barbell_index.num_levels + 1):
            clusters = even_clustering(barbell_index, level)
            lookup = {v: i for i, c in enumerate(clusters) for v in c}
            if lookup[0] != lookup[11]:
                separated = True
        assert separated


class TestPowerClustering:
    def test_is_partition(self, barbell_index):
        for level in range(1, barbell_index.num_levels + 1):
            clusters = power_clustering(barbell_index, level)
            assert is_partition(clusters, barbell_index.graph.n)

    def test_no_coarser_than_even(self, barbell_index):
        """Power clusters subdivide even clusters (they never merge
        across voted components)."""
        for level in range(1, barbell_index.num_levels + 1):
            even = even_clustering(barbell_index, level)
            power = power_clustering(barbell_index, level)
            even_of = {v: i for i, c in enumerate(even) for v in c}
            for cluster in power:
                comps = {even_of[v] for v in cluster}
                assert len(comps) == 1

    def test_recovers_planted_communities(self, planted_index):
        index, labels = planted_index
        engine = ClusterQueryEngine(index)
        # At some granularity, clustering should align well with truth.
        from repro.evalm import score_clustering

        truth = {v: labels[v] for v in index.graph.nodes()}
        best_nmi = 0.0
        for level in range(1, index.num_levels + 1):
            clusters = power_clustering(index, level)
            best_nmi = max(best_nmi, score_clustering(clusters, truth)["nmi"])
        assert best_nmi > 0.6


class TestLocalCluster:
    def test_matches_even_component(self, barbell_index):
        for level in (2, barbell_index.num_levels):
            clusters = even_clustering(barbell_index, level)
            lookup = {v: c for c in clusters for v in c}
            for v in (0, 7, 11):
                assert local_cluster(barbell_index, v, level) == lookup[v]

    def test_contains_query_node(self, planted_index):
        index, _ = planted_index
        for v in (0, 10, 50):
            cluster = local_cluster(index, v, index.num_levels)
            assert v in cluster


class TestVoting:
    def test_voted_edges_subset_of_edges(self, barbell_index):
        for level in range(1, barbell_index.num_levels + 1):
            voted = voted_edges(barbell_index, level)
            assert set(voted) <= set(barbell_index.graph.edges())

    def test_voted_adjacency_symmetric(self, barbell_index):
        adj = voted_adjacency(barbell_index, 2)
        for u in barbell_index.graph.nodes():
            for v in adj[u]:
                assert u in adj[v]

    def test_vote_table_matches_direct(self, barbell_index):
        """The live vote table (LiveVotes) holds exactly H_l's edges."""
        for level in range(1, barbell_index.num_levels + 1):
            votes = LiveVotes(barbell_index, level)
            assert votes.refresh() == set(barbell_index.graph.nodes())
            for u, v in barbell_index.graph.edges():
                assert (v in votes.adj[u]) == barbell_index.same_cluster_vote(
                    u, v, level
                )
                assert (u in votes.adj[v]) == (v in votes.adj[u])

    def test_vote_table_refresh_after_update(self, barbell_index):
        """A refresh reports exactly the endpoints of the flipped votes."""
        levels = range(1, barbell_index.num_levels + 1)
        live = {level: LiveVotes(barbell_index, level) for level in levels}
        for votes in live.values():
            votes.refresh()
        before = {level: set(voted_edges(barbell_index, level)) for level in levels}
        # Make the bridge cheap: the two bells should merge at fine levels.
        bridge = next(
            e for e in barbell_index.graph.edges() if (e[0] < 6) != (e[1] < 6)
        )
        barbell_index.update_edge_weight(*bridge, 0.01)
        flips = 0
        for level in levels:
            after = set(voted_edges(barbell_index, level))
            changed = before[level] ^ after
            flips += len(changed)
            assert live[level].refresh() == {x for e in changed for x in e}
            assert live[level].refresh() == set()
            for u, v in barbell_index.graph.edges():
                assert (v in live[level].adj[u]) == ((u, v) in after)
        assert flips > 0


class TestQueryEngine:
    def test_sqrt_n_level_has_enough_seeds(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        level = engine.sqrt_n_level()
        assert 2 ** (level - 1) >= math.sqrt(index.graph.n)

    def test_zoom_monotone_cluster_counts(self, planted_index):
        """Zooming in never decreases the number of clusters (on average
        granularity grows with level since seed count doubles)."""
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        counts = [len(engine.clusters(level)) for level in range(1, engine.num_levels + 1)]
        assert counts[0] <= counts[-1]

    def test_zoom_bounds(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        assert engine.zoom_out(1) == 1
        assert engine.zoom_in(engine.num_levels) == engine.num_levels
        assert engine.zoom_in(1) == 2

    def test_cluster_of_consistent_with_even_method(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index, method="even")
        level = engine.sqrt_n_level()
        clusters = engine.clusters(level)
        lookup = {v: c for c in clusters for v in c}
        for v in (0, 33, 99):
            assert engine.cluster_of(v, level) == lookup[v]

    def test_smallest_cluster_at_max_level(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        level, cluster = engine.smallest_cluster_of(0)
        assert level == engine.num_levels
        assert 0 in cluster

    def test_clusters_closest_to_target(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        level, clusters = engine.clusters_closest_to(6, min_size=3)
        assert 1 <= level <= engine.num_levels
        assert is_partition(clusters, index.graph.n)

    def test_invalid_method_rejected(self, planted_index):
        index, _ = planted_index
        with pytest.raises(ValueError):
            ClusterQueryEngine(index, method="magic")

    def test_cluster_sizes_sorted(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        sizes = engine.cluster_sizes()
        assert sizes == sorted(sizes, reverse=True)


class TestZoomSession:
    def test_starts_at_smallest(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        session = engine.zoom_session(5)
        assert session.level == engine.num_levels
        assert 5 in session.cluster
        assert session.at_finest

    def test_starts_at_sqrt(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        session = engine.zoom_session(5, start="sqrt")
        assert session.level == engine.sqrt_n_level()

    def test_invalid_start_rejected(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        with pytest.raises(ValueError):
            engine.zoom_session(5, start="middle")

    def test_unknown_node_rejected(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        with pytest.raises(ValueError):
            engine.zoom_session(99999)

    def test_repetitive_zoom_out_to_coarsest(self, planted_index):
        """Problem 1: smallest cluster, then repetitive zoom-out."""
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        session = engine.zoom_session(7)
        sizes = [len(session.cluster)]
        while not session.at_coarsest:
            session.zoom_out()
            assert 7 in session.cluster
            sizes.append(len(session.cluster))
        assert session.level == 1
        assert sizes[-1] >= sizes[0]

    def test_zoom_in_clamps_at_finest(self, planted_index):
        index, _ = planted_index
        engine = ClusterQueryEngine(index)
        session = engine.zoom_session(7)
        before = session.cluster
        session.zoom_in()  # already finest: no level change
        assert session.level == engine.num_levels
        assert session.cluster == before

    def test_session_tracks_index_updates(self, barbell_index):
        engine = ClusterQueryEngine(barbell_index)
        session = engine.zoom_session(0, start="sqrt")
        bridge = next(
            e for e in barbell_index.graph.edges() if (e[0] < 6) != (e[1] < 6)
        )
        barbell_index.update_edge_weight(*bridge, 0.001)
        refreshed = session.refresh()
        assert refreshed == engine.cluster_of(0, session.level)
