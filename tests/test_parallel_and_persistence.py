"""Tests for index persistence: save/load round trips and format checks."""

import random

import pytest

from repro.graph.generators import planted_partition
from repro.graph.graph import Graph
from repro.index.persistence import graph_fingerprint, load_index, save_index
from repro.index.pyramid import PyramidIndex


@pytest.fixture
def built_index(medium_planted):
    graph, _ = medium_planted
    weights = {e: 1.0 for e in graph.edges()}
    return graph, PyramidIndex(graph, weights, k=3, seed=4)


class TestPersistence:
    def test_round_trip_identical(self, built_index, tmp_path):
        graph, index = built_index
        # Perturb the index so it carries non-trivial state.
        index.update_edge_weight(*graph.edges()[5], 0.3)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(graph, path)
        assert loaded.k == index.k
        assert loaded.support == index.support
        assert loaded.weights_view() == index.weights_view()
        for p_orig, p_load in zip(index.partitions(), loaded.partitions()):
            assert p_orig.seeds == p_load.seeds
            assert p_orig.seed == p_load.seed
            assert p_orig.parent == p_load.parent
            assert p_orig.dist == p_load.dist

    def test_loaded_index_is_live(self, built_index, tmp_path):
        """A restored index supports updates and queries immediately."""
        graph, index = built_index
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(graph, path)
        e = graph.edges()[11]
        loaded.update_edge_weight(*e, 0.2)
        fresh = PyramidIndex(graph, loaded.weights_view(), k=3, seed=4)
        for p_load, p_ref in zip(loaded.partitions(), fresh.partitions()):
            assert p_load.seed == p_ref.seed
        from repro.index.clustering import power_clustering

        clusters = power_clustering(loaded, loaded.num_levels)
        assert sum(len(c) for c in clusters) == graph.n

    def test_wrong_graph_rejected(self, built_index, tmp_path):
        graph, index = built_index
        path = tmp_path / "index.json"
        save_index(index, path)
        other, _ = planted_partition(graph.n, 4, seed=99)
        with pytest.raises(ValueError, match="does not match"):
            load_index(other, path)

    def test_wrong_format_rejected(self, built_index, tmp_path):
        graph, index = built_index
        path = tmp_path / "index.json"
        path.write_text('{"format": 999}')
        with pytest.raises(ValueError, match="unsupported"):
            load_index(graph, path)

    def test_unknown_format_error_is_actionable(self, built_index, tmp_path):
        """A future-version document fails with a clear ValueError that
        names both versions — never a KeyError from missing fields."""
        graph, _ = built_index
        path = tmp_path / "index.json"
        path.write_text('{"format": 7}')
        with pytest.raises(ValueError) as excinfo:
            load_index(graph, path)
        message = str(excinfo.value)
        assert "7" in message
        from repro.index.persistence import FORMAT_VERSION

        assert str(FORMAT_VERSION) in message

    def test_missing_format_field_rejected(self, built_index, tmp_path):
        graph, _ = built_index
        path = tmp_path / "index.json"
        path.write_text('{"weights": []}')
        with pytest.raises(ValueError, match="unsupported index format"):
            load_index(graph, path)

    def test_non_object_document_rejected(self, built_index, tmp_path):
        graph, _ = built_index
        path = tmp_path / "index.json"
        path.write_text('[1, 2, 3]')
        with pytest.raises(ValueError, match="JSON object"):
            load_index(graph, path)

    def test_weight_table_round_trip_after_dynamic_updates(
        self, built_index, tmp_path
    ):
        """The weight table survives save/load after a burst of dynamic
        updates, and the restored index keeps evolving identically."""
        graph, index = built_index
        rng = random.Random(7)
        edges = list(graph.edges())
        for _ in range(30):
            u, v = rng.choice(edges)
            index.update_edge_weight(u, v, rng.choice([0.2, 0.5, 1.5, 3.0]))
        index.on_rescale(0.6)  # leaves a weight scale other than 1
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(graph, path)
        assert loaded.weights_view() == index.weights_view()
        # Continue the update stream on both; they must stay in lockstep.
        for _ in range(15):
            u, v = rng.choice(edges)
            w = rng.choice([0.25, 0.75, 2.0])
            index.update_edge_weight(u, v, w)
            loaded.update_edge_weight(u, v, w)
        assert loaded.weights_view() == index.weights_view()
        for p_orig, p_load in zip(index.partitions(), loaded.partitions()):
            assert p_orig.seed == p_load.seed
            assert p_orig.parent == p_load.parent
            assert p_orig.dist == p_load.dist
        loaded.check_consistency()

    def test_fingerprint_order_independent(self):
        g1 = Graph(4, [(0, 1), (2, 3), (1, 2)])
        g2 = Graph(4, [(1, 2), (0, 1), (2, 3)])
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_fingerprint_detects_edge_change(self):
        g1 = Graph(4, [(0, 1), (2, 3)])
        g2 = Graph(4, [(0, 1), (1, 3)])
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_inf_distances_survive(self, tmp_path):
        g = Graph(5, [(0, 1), (2, 3)])  # node 4 isolated
        index = PyramidIndex(g, {e: 1.0 for e in g.edges()}, k=2, seed=1)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(g, path)
        from repro.graph.traversal import INF

        for p_orig, p_load in zip(index.partitions(), loaded.partitions()):
            for v in g.nodes():
                if p_orig.dist[v] == INF:
                    assert p_load.dist[v] == INF
