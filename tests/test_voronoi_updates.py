"""Tests for Update-Decrease / Update-Increase (Algorithms 1-3).

The ground truth for every update is a fresh multi-source Dijkstra under
the new weights: after any weight change the incrementally maintained
``dist``/``seed`` must match it exactly (modulo float tolerance), and the
forest invariants must hold (Lemmas 11-12).
"""

import math
import random

import pytest

from repro.core.arrays import EdgeSpace
from repro.graph.generators import grid_graph, path_graph, planted_partition
from repro.graph.graph import Graph, edge_key
from repro.graph.traversal import INF, multi_source_dijkstra
from repro.index.array_index import ArrayPyramidIndex
from repro.index.pyramid import PyramidIndex
from repro.index.voronoi import VoronoiPartition


class WeightTable:
    """Mutable weight table shared with the partition under test."""

    def __init__(self, graph, default=1.0):
        self.values = {e: default for e in graph.edges()}

    def __call__(self, u, v):
        return self.values[edge_key(u, v)]

    def set(self, u, v, w):
        self.values[edge_key(u, v)] = w


def assert_matches_fresh(part, graph, weights):
    dist, seed, _ = multi_source_dijkstra(graph, part.seeds, weights)
    for v in graph.nodes():
        assert part.seed[v] == seed[v], f"node {v}: seed {part.seed[v]} != {seed[v]}"
        if dist[v] == INF:
            assert part.dist[v] == INF
        else:
            assert part.dist[v] == pytest.approx(dist[v], rel=1e-9)
    part.check_consistency()


class TestUpdateDecrease:
    def test_shortcut_pulls_far_nodes_closer(self):
        g = grid_graph(4, 4)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0], weights)
        assert part.dist[15] == 6.0
        weights.set(11, 15, 0.1)
        part.update_decrease(11, 15)
        assert_matches_fresh(part, g, weights)
        assert part.dist[15] == pytest.approx(5.1)

    def test_decrease_can_flip_seed_ownership(self):
        g = path_graph(5)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0, 4], weights)
        assert part.seed[2] == 0  # tie broken to smaller seed
        weights.set(3, 4, 0.1)  # node 3 now very close to seed 4
        part.update_decrease(3, 4)
        assert_matches_fresh(part, g, weights)

    def test_noop_when_edge_irrelevant(self):
        g = grid_graph(3, 3)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [4], weights)
        before = (list(part.dist), list(part.seed))
        # Decrease an edge between two equidistant non-tree neighbors barely.
        weights.set(0, 1, 0.999)
        touched = part.update_decrease(0, 1)
        assert_matches_fresh(part, g, weights)
        # The change is tiny and cannot re-route anything except possibly
        # its own endpoints.
        assert touched <= 2

    def test_touched_counts_bounded_by_component(self, medium_planted):
        graph, _ = medium_planted
        weights = WeightTable(graph)
        part = VoronoiPartition(graph, [0, 50, 100], weights)
        e = graph.edges()[10]
        weights.set(*e, 0.5)
        touched = part.update_decrease(*e)
        assert touched <= graph.n


@pytest.mark.parametrize("index_class", [PyramidIndex, ArrayPyramidIndex])
def test_child_follows_parent_across_sub_ulp_improvement(index_class):
    """Node 1 moves from seed 0 to seed 3 while its distance drops by 1,
    far below one ulp of node 2's 1e17: node 2's probe sum is unchanged,
    and the smaller-seed tie rule alone would leave it on seed 0 under a
    parent on seed 3 — an index ``check_consistency`` (and so checkpoint
    loading) rejects."""
    graph = Graph(4, [(0, 1), (1, 3), (1, 2)])
    weights = {(0, 1): 10.0, (1, 3): 20.0, (1, 2): 1e17}
    extra = {"space": EdgeSpace(graph)} if index_class is ArrayPyramidIndex else {}
    for rng_seed in range(100):
        index = index_class(graph, weights, k=1, seed=rng_seed, **extra)
        part = index.partitions_at(2)[0]
        if set(part.seeds) == {0, 3}:
            break
    assert part.seed == [0, 0, 0, 3]
    index.update_edge_weight(1, 3, 9.0)
    index.check_consistency()
    assert part.seed == [0, 3, 3, 3]
    assert part.parent[2] == 1


class TestUpdateIncrease:
    def test_non_tree_edge_is_noop(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0], weights)
        # Edge (1,2) is not in the SPT rooted at 0.
        assert part.parent[1] == 0 and part.parent[2] == 0
        weights.set(1, 2, 10.0)
        touched = part.update_increase(1, 2)
        assert touched == 0
        assert_matches_fresh(part, g, weights)

    def test_tree_edge_reroutes_subtree(self):
        g = grid_graph(4, 4)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0], weights)
        # Find a tree edge and make it expensive.
        child = next(v for v in g.nodes() if part.parent[v] >= 0)
        parent = part.parent[child]
        weights.set(child, parent, 5.0)
        part.update_increase(child, parent)
        assert_matches_fresh(part, g, weights)

    def test_increase_can_move_cell_boundary(self):
        g = path_graph(7)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0, 6], weights)
        # Make the first hop from seed 0 expensive: nodes drift to seed 6.
        weights.set(0, 1, 10.0)
        part.update_increase(0, 1)
        assert_matches_fresh(part, g, weights)
        assert part.seed[1] == 6

    def test_increase_on_bridge_keeps_reachability(self):
        # Bridge edge in tree; increase must not orphan the far side.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0], weights)
        weights.set(1, 2, 100.0)
        part.update_increase(1, 2)
        assert_matches_fresh(part, g, weights)
        assert part.dist[3] == pytest.approx(102.0)


class TestApplyWeightChange:
    def test_dispatch_directions(self):
        g = grid_graph(3, 3)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0], weights)
        old = weights(0, 1)
        weights.set(0, 1, 0.4)
        part.apply_weight_change(0, 1, old, 0.4)
        assert_matches_fresh(part, g, weights)
        weights.set(0, 1, 2.5)
        part.apply_weight_change(0, 1, 0.4, 2.5)
        assert_matches_fresh(part, g, weights)

    def test_equal_weight_is_noop(self):
        g = grid_graph(3, 3)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0], weights)
        assert part.apply_weight_change(0, 1, 1.0, 1.0) == 0


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_long_random_update_sequence_matches_fresh(self, seed):
        rng = random.Random(seed)
        graph, _ = planted_partition(80, 4, p_in=0.4, p_out=0.03, seed=seed)
        weights = WeightTable(graph)
        seeds = rng.sample(list(graph.nodes()), 5)
        part = VoronoiPartition(graph, seeds, weights)
        edges = list(graph.edges())
        for step in range(60):
            u, v = rng.choice(edges)
            old = weights(u, v)
            new = old * rng.choice([0.3, 0.7, 1.5, 3.0])
            weights.set(u, v, new)
            part.apply_weight_change(u, v, old, new)
        assert_matches_fresh(part, graph, weights)

    def test_alternating_increase_decrease_same_edge(self):
        g = grid_graph(5, 5)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0, 24], weights)
        e = (6, 7)
        for new in [0.2, 4.0, 0.5, 8.0, 1.0, 0.1]:
            old = weights(*e)
            weights.set(*e, new)
            part.apply_weight_change(*e, old, new)
            assert_matches_fresh(part, g, weights)


class TestAbsorbScale:
    def test_scaling_preserves_structure(self):
        g = grid_graph(4, 4)
        weights = WeightTable(g)
        part = VoronoiPartition(g, [0, 15], weights)
        seeds_before = list(part.seed)
        dist_before = list(part.dist)
        factor = 3.7
        for key in weights.values:
            weights.values[key] *= factor
        part.absorb_scale(factor)
        assert part.seed == seeds_before
        for v in g.nodes():
            assert part.dist[v] == pytest.approx(dist_before[v] * factor)
        part.check_consistency()


@pytest.mark.parametrize("index_class", [PyramidIndex, ArrayPyramidIndex])
def test_rescale_that_would_round_to_a_tie_matches_a_fresh_rebuild(index_class):
    """Node 1 is one ulp closer to seed 2 than to seed 0.  A rescale by
    1.5 would round both weights to the same value, and a fresh rebuild
    would then give node 1 the smaller seed while its distance, scaled in
    place, kept seed 2.  The index scales by a power of two instead (2
    here) and carries the rest as its weight scale."""
    factor = 1.5
    x = 1.9
    while x * factor != math.nextafter(x, 2.0) * factor:
        x = math.nextafter(x, 2.0)
    graph = Graph(3, [(0, 1), (1, 2)])
    weights = {(0, 1): math.nextafter(x, 2.0), (1, 2): x}
    extra = {"space": EdgeSpace(graph)} if index_class is ArrayPyramidIndex else {}
    for rng_seed in range(100):
        index = index_class(graph, weights, k=1, seed=rng_seed, **extra)
        part = index.partitions_at(2)[0]
        if set(part.seeds) == {0, 2}:
            break
    assert part.seed == [0, 2, 2]
    index.on_rescale(1.0 / factor)
    assert index.weight(1, 2) == 2 * x
    assert_matches_fresh(part, graph, index.weight)
    # A later weight arrives in the metric's units: times 2/1.5.
    index.update_edge_weight(0, 1, 1.0)
    assert index.weight(0, 1) == pytest.approx(2 / factor, rel=1e-15)
    assert_matches_fresh(part, graph, index.weight)
