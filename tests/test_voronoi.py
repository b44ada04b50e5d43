"""Unit tests for VoronoiPartition construction and invariants."""

import random

import pytest

from repro.core.arrays import EdgeSpace
from repro.graph.graph import Graph
from repro.graph.traversal import INF, multi_source_dijkstra
from repro.index.array_index import ArrayPyramidIndex
from repro.index.persistence import load_index_resume, save_index
from repro.index.pyramid import PyramidIndex
from repro.index.voronoi import VoronoiPartition


def unit_weight(u: int, v: int) -> float:
    return 1.0


class TestConstruction:
    def test_single_seed_owns_component(self, grid_5x5):
        part = VoronoiPartition(grid_5x5, [12], unit_weight)
        assert all(s == 12 for s in part.seed)
        assert part.dist[12] == 0.0
        assert part.dist[0] == 4.0  # Manhattan to center

    def test_matches_multi_source_dijkstra(self, medium_planted):
        graph, _ = medium_planted
        seeds = [0, 40, 90, 120]
        part = VoronoiPartition(graph, seeds, unit_weight)
        dist, seed, _ = multi_source_dijkstra(graph, seeds, unit_weight)
        assert part.dist == dist
        assert part.seed == seed

    def test_duplicate_seeds_rejected(self, triangle):
        with pytest.raises(ValueError):
            VoronoiPartition(triangle, [0, 0], unit_weight)

    def test_invalid_seed_rejected(self, triangle):
        with pytest.raises(ValueError):
            VoronoiPartition(triangle, [7], unit_weight)

    def test_empty_seeds_rejected(self, triangle):
        with pytest.raises(ValueError):
            VoronoiPartition(triangle, [], unit_weight)

    def test_cells_partition_reachable_nodes(self, grid_5x5):
        part = VoronoiPartition(grid_5x5, [0, 24], unit_weight)
        cells = part.cells()
        all_members = sorted(v for cell in cells.values() for v in cell)
        assert all_members == list(range(25))

    def test_unreachable_nodes_unassigned(self):
        g = Graph(5, [(0, 1), (2, 3)])
        part = VoronoiPartition(g, [0], unit_weight)
        assert part.seed[2] == -1
        assert part.dist[3] == INF
        assert 2 not in {v for cell in part.cells().values() for v in cell}

    def test_consistency_check_passes(self, medium_planted):
        graph, _ = medium_planted
        part = VoronoiPartition(graph, [0, 10, 20], unit_weight)
        part.check_consistency()


def both_indexes(graph):
    """A dict-backed and an array-backed pyramid index over ``graph``."""
    weights = {e: 1.0 for e in graph.edges()}
    yield PyramidIndex(graph, dict(weights), k=2, seed=0)
    yield ArrayPyramidIndex(graph, dict(weights), k=2, seed=0, space=EdgeSpace(graph))


def assert_children_inverse(index, *, fresh):
    """Every partition's child sets are exactly the inverse of its
    ``parent`` array; a leaf holds no set or an empty one, and ``None``
    in a ``fresh`` (just built or just loaded) partition."""
    for part in index.partitions():
        expected = {v: set() for v in index.graph.nodes()}
        for v, p in enumerate(part.parent):
            if p >= 0:
                expected[p].add(v)
        assert len(part._children) == index.graph.n
        for v, kids in expected.items():
            assert set(part.children(v)) == kids
            if not kids:
                assert not part._children[v]
                if fresh:
                    assert part._children[v] is None


class TestForest:
    def test_children_inverse_of_parent(self, medium_planted, tmp_path):
        """On both index classes: as built, after weight updates that
        move subtrees between parents, and after a save/load round
        trip."""
        graph, _ = medium_planted
        rng = random.Random(5)
        edges = list(graph.edges())
        for index in both_indexes(graph):
            assert_children_inverse(index, fresh=True)
            for _ in range(300):
                u, v = rng.choice(edges)
                index.update_edge_weight(u, v, rng.uniform(0.2, 5.0))
            assert_children_inverse(index, fresh=False)
            path = tmp_path / f"{type(index).__name__}.json"
            save_index(index, path)
            space = EdgeSpace(graph) if isinstance(index, ArrayPyramidIndex) else None
            restored, _ = load_index_resume(graph, path, space=space)
            assert type(restored) is type(index)
            assert_children_inverse(restored, fresh=True)

    def test_consistency_check_catches_a_corrupt_child_set(self, medium_planted):
        """A child missing from its parent's set, or a node in a set
        whose parent is elsewhere, fails ``check_consistency`` on both
        index classes."""
        graph, _ = medium_planted
        for corrupt in ("drop", "stray"):
            for index in both_indexes(graph):
                index.check_consistency()
                part = next(iter(index.partitions()))
                p = next(v for v, kids in enumerate(part._children) if kids)
                child = min(part._children[p])
                if corrupt == "drop":
                    part._children[p].discard(child)
                else:
                    leaf = next(v for v, kids in enumerate(part._children) if not kids)
                    part._children[leaf] = {child}
                with pytest.raises(AssertionError):
                    index.check_consistency()

    def test_subtree_of_seed_is_cell(self, grid_5x5):
        part = VoronoiPartition(grid_5x5, [0, 24], unit_weight)
        cells = part.cells()
        assert sorted(part.subtree(0)) == cells[0]
        assert sorted(part.subtree(24)) == cells[24]

    def test_subtree_of_leaf_is_singleton(self, path10):
        part = VoronoiPartition(path10, [0], unit_weight)
        assert part.subtree(9) == [9]

    def test_memory_cost_positive_and_monotone(self, grid_5x5, path10):
        big = VoronoiPartition(grid_5x5, [0], unit_weight)
        small = VoronoiPartition(path10, [0], unit_weight)
        assert big.memory_cost() > small.memory_cost() > 0


class TestProbe:
    def test_probe_improves_through_better_neighbor(self, path10):
        part = VoronoiPartition(path10, [0], unit_weight)
        # Artificially worsen node 5 and probe via 4.
        part.dist[5] = 100.0
        assert part.probe(5, 4) is True
        assert part.dist[5] == 5.0
        assert part.parent[5] == 4

    def test_probe_rejects_worse_route(self, path10):
        part = VoronoiPartition(path10, [0], unit_weight)
        assert part.probe(4, 5) is False  # via 5 would be 6 > 4

    def test_probe_from_unreached_neighbor_fails(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        part = VoronoiPartition(g, [0], unit_weight)
        part.seed[3] = -1
        part.dist[3] = INF
        assert part.probe(2, 3) is False
