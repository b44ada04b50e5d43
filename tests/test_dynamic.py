"""Tests for live edge insertion (relation-network growth)."""

import pytest

from repro.core.activation import Activation
from repro.core.anc import ANCO, ANCParams
from repro.core.arrays import EdgeSpace
from repro.graph.graph import Graph
from repro.index.array_index import ArrayPyramidIndex
from repro.index.dynamic import (
    add_relation_edge,
    insert_edge_into_index,
    register_edge_in_metric,
)
from repro.index.pyramid import PyramidIndex

QUICK = ANCParams(rep=1, k=2, seed=0, rescale_every=64, mu=2, eps=0.25)


class TestInsertIntoIndex:
    """Live insertion into the dict index (the reference oracle)."""

    def build(self, graph, weights, **kwargs):
        return PyramidIndex(graph, weights, **kwargs)

    def grow(self, index, u, v):
        """Add ``{u, v}`` to the index's graph, ready for insertion."""
        index.graph.add_edge(u, v)

    def test_partitions_match_fresh_rebuild(self, medium_planted):
        graph, _ = medium_planted
        # Hold one edge back, build, then insert it live.
        edges = list(graph.edges())
        held = edges[17]
        reduced = Graph(graph.n, [e for e in edges if e != held])
        weights = {e: 1.0 for e in reduced.edges()}
        index = self.build(reduced, weights, k=2, seed=3)
        self.grow(index, *held)
        insert_edge_into_index(index, *held, weight=1.0)
        fresh = PyramidIndex(reduced, index.weights_view(), k=2, seed=3)
        for p_new, p_ref in zip(index.partitions(), fresh.partitions()):
            assert p_new.seed == p_ref.seed
            for v in reduced.nodes():
                assert p_new.dist[v] == pytest.approx(p_ref.dist[v], rel=1e-9)
        index.check_consistency()

    def test_insert_can_connect_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        index = self.build(g, {e: 1.0 for e in g.edges()}, k=2, seed=0)
        self.grow(index, 1, 2)
        insert_edge_into_index(index, 1, 2, weight=1.0)
        # Every partition now reaches all nodes from its level-1 seed.
        for pyramid in index.pyramids:
            part = pyramid.partition(1)
            assert all(s >= 0 for s in part.seed)
        index.check_consistency()

    def test_validation(self, triangle):
        index = self.build(triangle, {e: 1.0 for e in triangle.edges()}, k=1)
        with pytest.raises(ValueError):
            insert_edge_into_index(index, 0, 1, weight=1.0)  # already weighted
        with pytest.raises(ValueError):
            insert_edge_into_index(index, 0, 1, weight=-1.0)


class TestInsertIntoArrayIndex(TestInsertIntoIndex):
    """The same insertions into the serving array index, which repairs
    through its own inlined Update-Decrease.  As ``add_relation_edge``
    does, a new edge is interned in the shared edge space before the
    index sees it."""

    def build(self, graph, weights, **kwargs):
        return ArrayPyramidIndex(graph, weights, space=EdgeSpace(graph), **kwargs)

    def grow(self, index, u, v):
        super().grow(index, u, v)
        index._space.ensure_edge(u, v)

    def test_uninterned_insert_writes_nothing(self):
        """An insert of an edge the space has not interned fails before
        either weight table changes, so a retry after interning works
        and matches a fresh rebuild."""
        g = Graph(4, [(0, 1), (2, 3)])
        index = self.build(g, {e: 1.0 for e in g.edges()}, k=2, seed=0)
        g.add_edge(1, 2)
        with pytest.raises(KeyError):
            insert_edge_into_index(index, 1, 2, weight=0.5)
        assert (1, 2) not in index._weights
        index._space.ensure_edge(1, 2)
        insert_edge_into_index(index, 1, 2, weight=0.5)
        fresh = PyramidIndex(g, index.weights_view(), k=2, seed=0)
        for p_new, p_ref in zip(index.partitions(), fresh.partitions()):
            assert p_new.seed == p_ref.seed
            assert p_new.dist == p_ref.dist
        index.check_consistency()


class TestRegisterInMetric:
    def test_initial_conditions_at_current_time(self, small_planted):
        from repro.core.metric import SimilarityFunction

        graph, _ = small_planted
        edges = list(graph.edges())
        held = edges[5]
        reduced = Graph(graph.n, [e for e in edges if e != held])
        metric = SimilarityFunction(reduced, rep=0, mu=2, lam=0.2)
        # Advance time so the global factor is non-trivial.
        metric.clock.advance(3.0)
        reduced.add_edge(*held)
        register_edge_in_metric(metric, *held)
        assert metric.activeness.value(*held) == pytest.approx(1.0)
        assert metric.value(*held) == pytest.approx(1.0)

    def test_double_registration_rejected(self, triangle):
        from repro.core.metric import SimilarityFunction

        metric = SimilarityFunction(triangle, rep=0, mu=2)
        with pytest.raises(ValueError):
            register_edge_in_metric(metric, 0, 1)

    def test_strengths_updated(self, small_planted):
        from repro.core.metric import SimilarityFunction

        graph, _ = small_planted
        edges = list(graph.edges())
        held = edges[0]
        reduced = Graph(graph.n, [e for e in edges if e != held])
        metric = SimilarityFunction(reduced, rep=0, mu=2)
        s_before = metric.sigma.strength(held[0])
        reduced.add_edge(*held)
        register_edge_in_metric(metric, *held)
        assert metric.sigma.strength(held[0]) > s_before


class TestEngineGrowth:
    def test_add_edge_then_activate(self, small_planted):
        graph, _ = small_planted
        engine = ANCO(graph.copy(), QUICK)
        # Two nodes with no current edge.
        u, v = next(
            (a, b)
            for a in engine.graph.nodes()
            for b in engine.graph.nodes()
            if a < b and not engine.graph.has_edge(a, b)
        )
        touched = add_relation_edge(engine, u, v)
        assert engine.graph.has_edge(u, v)
        assert touched >= 0
        engine.index.check_consistency()
        # The new edge is a first-class citizen: it can be activated.
        engine.process(Activation(u, v, engine.now + 1.0))
        engine.index.check_consistency()
        assert engine.metric.activeness.value(u, v) > 1.0

    def test_existing_edge_is_noop(self, small_planted):
        graph, _ = small_planted
        engine = ANCO(graph.copy(), QUICK)
        e = engine.graph.edges()[0]
        assert add_relation_edge(engine, *e) == 0

    def test_growth_under_stream(self, small_planted):
        """Interleave insertions and activations; index stays exact."""
        graph, _ = small_planted
        engine = ANCO(graph.copy(), QUICK)
        t = 0.0
        candidates = [
            (a, b)
            for a in engine.graph.nodes()
            for b in engine.graph.nodes()
            if a < b and not engine.graph.has_edge(a, b)
        ][:5]
        edges = list(engine.graph.edges())
        for i, new_edge in enumerate(candidates):
            t += 1.0
            engine.process(Activation(*edges[i], t))
            add_relation_edge(engine, *new_edge)
        fresh = PyramidIndex(
            engine.graph, engine.index.weights_view(), k=QUICK.k, seed=QUICK.seed
        )
        for p_inc, p_ref in zip(engine.index.partitions(), fresh.partitions()):
            assert p_inc.seed == p_ref.seed
            for v in engine.graph.nodes():
                assert p_inc.dist[v] == pytest.approx(p_ref.dist[v], rel=1e-6)
