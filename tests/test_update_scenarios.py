"""The five qualitative update scenarios of the paper's Example 6 (Fig 3).

Each case builds a small weighted graph where the expected behaviour of
Update-Decrease / Update-Increase is fully predictable, mirroring the
paper's walk-through on its Figure 2(e) partition:

(a) a decrease propagates improvements through a chain of nodes;
(b) an increase on a leaf tree edge affects only that leaf;
(c) an increase on a non-tree edge affects nothing;
(d) a large increase flips a node to the other seed's cell;
(e) a subsequent large decrease flips it back.
"""

import pytest

from repro.graph.graph import Graph, edge_key
from repro.index.voronoi import VoronoiPartition


class WeightTable:
    def __init__(self, weights):
        self.values = dict(weights)

    def __call__(self, u, v):
        return self.values[edge_key(u, v)]

    def set(self, u, v, w):
        self.values[edge_key(u, v)] = w


@pytest.fixture
def chain_partition():
    """0-1-2-3-4 path with seed 0 plus a heavy shortcut 0-4."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    weights = WeightTable({
        (0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (0, 4): 10.0,
    })
    return g, weights, VoronoiPartition(g, [0], weights)


class TestCaseA_DecreasePropagates:
    def test_shortcut_decrease_reroutes_chain_tail(self, chain_partition):
        g, weights, part = chain_partition
        assert part.dist[4] == 4.0  # via the chain
        assert part.parent[4] == 3
        weights.set(0, 4, 0.5)
        touched = part.update_decrease(0, 4)
        # Node 4 now comes directly from the seed, and node 3 improves
        # through 4 (0.5 + 1.0 = 1.5 < 3.0): the improvement propagated.
        assert part.dist[4] == 0.5
        assert part.parent[4] == 0
        assert part.dist[3] == 1.5
        assert part.parent[3] == 4
        assert touched >= 2
        part.check_consistency()


class TestCaseB_IncreaseAffectsOnlyLeaf:
    def test_leaf_edge_increase_touches_one_node(self):
        # Star from seed 0; increasing one spoke affects only its leaf.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        weights = WeightTable({(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
        part = VoronoiPartition(g, [0], weights)
        before = (list(part.dist), list(part.seed), list(part.parent))
        weights.set(0, 3, 2.0)
        part.update_increase(0, 3)
        assert part.dist[3] == 2.0
        after = (part.dist, part.seed, part.parent)
        changed = {
            v for old, new in zip(before, after) for v in g.nodes() if old[v] != new[v]
        }
        assert changed == {3}  # only the reset leaf
        part.check_consistency()


class TestCaseC_NonTreeIncreaseIsFree:
    def test_non_tree_edge_increase_touches_nothing(self, chain_partition):
        g, weights, part = chain_partition
        # The shortcut 0-4 (weight 10) is not on the tree.
        before = (list(part.dist), list(part.seed), list(part.parent))
        weights.set(0, 4, 50.0)
        touched = part.update_increase(0, 4)
        assert touched == 0
        assert (list(part.dist), list(part.seed), list(part.parent)) == before


@pytest.fixture
def two_seed_partition():
    """Fig 3(d)/(e) shape: node 2 sits between seeds 0 and 4."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    weights = WeightTable({(0, 1): 1.0, (1, 2): 1.0, (2, 3): 2.0, (3, 4): 1.0})
    return g, weights, VoronoiPartition(g, [0, 4], weights)


class TestCaseD_IncreaseFlipsSeed:
    def test_big_increase_hands_node_to_other_seed(self, two_seed_partition):
        g, weights, part = two_seed_partition
        assert part.seed[2] == 0  # dist 2 via seed 0 vs 3 via seed 4
        weights.set(1, 2, 6.0)
        part.update_increase(1, 2)
        # Now via seed 0 it would be 7; via seed 4 it is 3.
        assert part.seed[2] == 4
        assert part.dist[2] == 3.0
        part.check_consistency()


class TestCaseE_DecreaseFlipsBack:
    def test_big_decrease_reclaims_node(self, two_seed_partition):
        g, weights, part = two_seed_partition
        # First push node 2 to seed 4 (case d)...
        weights.set(1, 2, 6.0)
        part.update_increase(1, 2)
        assert part.seed[2] == 4
        # ...then make the edge cheap again: seed 0 reclaims it.
        weights.set(1, 2, 0.2)
        part.update_decrease(1, 2)
        assert part.seed[2] == 0
        assert part.dist[2] == pytest.approx(1.2)
        part.check_consistency()

    def test_reclaim_can_cascade_downstream(self, two_seed_partition):
        """Successive decreases build a cheap corridor from seed 0; the
        final one flips node 3 across the cell boundary."""
        g, weights, part = two_seed_partition
        for e, w in [((0, 1), 0.1), ((1, 2), 0.1)]:
            weights.set(*e, w)
            part.update_decrease(*e)
        assert part.dist[2] == pytest.approx(0.2)
        assert part.seed[3] == 4  # still: 0.2 + 2.0 > 1.0
        weights.set(2, 3, 0.5)
        part.update_decrease(2, 3)
        # Via the corridor: 0.1 + 0.1 + 0.5 = 0.7 < 1.0 via seed 4.
        assert part.seed[3] == 0
        assert part.dist[3] == pytest.approx(0.7)
        part.check_consistency()
