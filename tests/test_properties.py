"""Property-based tests (hypothesis) for the paper's core invariants.

* the global decay factor machinery always agrees with the naive
  Equation 1 recomputation, across arbitrary streams and rescale timings;
* σ is invariant to the anchored/actual representation (Lemma 3 / NeuM);
* incremental Voronoi maintenance always agrees with a fresh multi-source
  Dijkstra (Lemmas 11-12), for arbitrary weight-change sequences;
* power/even clustering always emit partitions; voting is symmetric.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.activation import Activation, naive_activeness
from repro.core.decay import Activeness, DecayClock, ValueKind
from repro.core.similarity import ActiveSimilarity, naive_sigma
from repro.graph.generators import erdos_renyi, planted_partition
from repro.graph.graph import Graph, edge_key
from repro.graph.traversal import INF, multi_source_dijkstra
from repro.index.clustering import even_clustering, power_clustering
from repro.index.pyramid import PyramidIndex
from repro.index.voronoi import VoronoiPartition

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategy helpers
# ----------------------------------------------------------------------

@st.composite
def small_graph(draw):
    """Connected random graph with 5-40 nodes."""
    n = draw(st.integers(min_value=5, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.08, max_value=0.4))
    return erdos_renyi(n, p, seed=seed, connect=True)


@st.composite
def activation_times(draw, max_events=30):
    """A non-decreasing sequence of timestamps."""
    deltas = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=max_events,
        )
    )
    times, t = [], 0.0
    for d in deltas:
        t += d
        times.append(t)
    return times


# ----------------------------------------------------------------------
# Decay invariants
# ----------------------------------------------------------------------

class TestDecayProperties:
    @SLOW
    @given(
        times=activation_times(),
        lam=st.floats(min_value=0.0, max_value=1.0),
        rescale_every=st.integers(min_value=1, max_value=7),
        edge_pick=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30),
    )
    def test_activeness_always_matches_equation1(self, times, lam, rescale_every, edge_pick):
        edges = [(0, 1), (1, 2), (0, 2)]
        clock = DecayClock(lam, rescale_every=rescale_every)
        act = Activeness(clock)
        stream = []
        for t, pick in zip(times, edge_pick):
            e = edges[pick % 3]
            stream.append(Activation(e[0], e[1], t))
            act.on_activation(e[0], e[1], t)
            clock.note_activation()
        final_t = times[min(len(times), len(edge_pick)) - 1]
        for e in edges:
            expected = naive_activeness(stream, e, final_t, lam)
            assert act.value(*e) == pytest.approx(expected, rel=1e-8, abs=1e-12)

    @SLOW
    @given(
        lam=st.floats(min_value=0.01, max_value=2.0),
        t1=st.floats(min_value=0.1, max_value=50.0),
        value=st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_posm_negm_duality(self, lam, t1, value):
        """1/PosM value always equals the NegM of the reciprocal."""
        clock = DecayClock(lam)
        pos = clock.register(ValueKind.POSITIVE)
        neg = clock.register(ValueKind.NEGATIVE)
        pos.set_actual(0, 1, value)
        neg.set_actual(0, 1, 1.0 / value)
        clock.advance(t1)
        assert 1.0 / pos.actual(0, 1) == pytest.approx(neg.actual(0, 1), rel=1e-9)
        clock.rescale()
        assert 1.0 / pos.actual(0, 1) == pytest.approx(neg.actual(0, 1), rel=1e-9)

    @SLOW
    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        advances=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=10),
        rescale_at=st.sets(st.integers(min_value=0, max_value=9)),
    )
    def test_rescale_never_changes_actual_values(self, lam, advances, rescale_at):
        clock = DecayClock(lam)
        store = clock.register(ValueKind.POSITIVE)
        store.set_actual(0, 1, 42.0)
        t = 0.0
        for i, d in enumerate(advances):
            t += d
            clock.advance(t)
            expected = 42.0 * math.exp(-lam * t)
            assert store.actual(0, 1) == pytest.approx(expected, rel=1e-9)
            if i in rescale_at:
                clock.rescale()
                assert store.actual(0, 1) == pytest.approx(expected, rel=1e-9)


# ----------------------------------------------------------------------
# σ invariants (Lemma 3)
# ----------------------------------------------------------------------

class TestSigmaProperties:
    @SLOW
    @given(graph=small_graph(), data=st.data())
    def test_sigma_matches_naive_and_is_bounded(self, graph, data):
        clock = DecayClock(0.1)
        act = Activeness(clock, initial={e: 1.0 for e in graph.edges()})
        sim = ActiveSimilarity(graph, act, eps=0.3, mu=2)
        # Random activations at increasing times.
        n_acts = data.draw(st.integers(min_value=0, max_value=15))
        t = 0.0
        for _ in range(n_acts):
            e = data.draw(st.sampled_from(list(graph.edges())))
            t += data.draw(st.floats(min_value=0.0, max_value=1.0))
            _, delta = act.on_activation(e[0], e[1], t)
            sim.on_activation_delta(e[0], e[1], delta)
        actual = {e: act.value(*e) for e in graph.edges()}
        for u, v in graph.edges():
            s = sim.sigma(u, v)
            assert 0.0 <= s <= 1.0 + 1e-9
            assert s == pytest.approx(naive_sigma(graph, actual, u, v), rel=1e-8, abs=1e-12)


# ----------------------------------------------------------------------
# Voronoi maintenance (Lemmas 11-12)
# ----------------------------------------------------------------------

class TestVoronoiProperties:
    @SLOW
    @given(
        graph=small_graph(),
        data=st.data(),
    )
    def test_incremental_always_matches_fresh_dijkstra(self, graph, data):
        rng_seed = data.draw(st.integers(min_value=0, max_value=999))
        rng = random.Random(rng_seed)
        n_seeds = data.draw(st.integers(min_value=1, max_value=max(1, graph.n // 3)))
        seeds = rng.sample(list(graph.nodes()), n_seeds)
        weights = {e: 1.0 for e in graph.edges()}

        def weight(u, v):
            return weights[edge_key(u, v)]

        part = VoronoiPartition(graph, seeds, weight)
        n_updates = data.draw(st.integers(min_value=1, max_value=20))
        edges = list(graph.edges())
        for _ in range(n_updates):
            e = rng.choice(edges)
            factor = rng.choice([0.25, 0.5, 0.8, 1.25, 2.0, 4.0])
            old = weights[e]
            weights[e] = old * factor
            part.apply_weight_change(e[0], e[1], old, weights[e])
        dist, seed_arr, _ = multi_source_dijkstra(graph, seeds, weight)
        assert part.seed == seed_arr
        for v in graph.nodes():
            if dist[v] == INF:
                assert part.dist[v] == INF
            else:
                assert part.dist[v] == pytest.approx(dist[v], rel=1e-9)
        part.check_consistency()


# ----------------------------------------------------------------------
# Clustering output invariants
# ----------------------------------------------------------------------

class TestClusteringProperties:
    @SLOW
    @given(graph=small_graph(), k=st.integers(min_value=1, max_value=4),
           idx_seed=st.integers(min_value=0, max_value=99))
    def test_clusterings_are_partitions_at_every_level(self, graph, k, idx_seed):
        weights = {e: 1.0 for e in graph.edges()}
        index = PyramidIndex(graph, weights, k=k, seed=idx_seed)
        for level in range(1, index.num_levels + 1):
            for clusters in (even_clustering(index, level), power_clustering(index, level)):
                flat = sorted(v for c in clusters for v in c)
                assert flat == list(graph.nodes())

    @SLOW
    @given(graph=small_graph(), idx_seed=st.integers(min_value=0, max_value=99))
    def test_voting_symmetric_and_monotone_in_level1(self, graph, idx_seed):
        weights = {e: 1.0 for e in graph.edges()}
        index = PyramidIndex(graph, weights, k=3, seed=idx_seed)
        for u, v in graph.edges():
            for level in (1, index.num_levels):
                assert index.vote_count(u, v, level) == index.vote_count(v, u, level)
        # Level 1: one seed per pyramid, so all edges in the (connected)
        # graph get full votes.
        for u, v in graph.edges():
            assert index.vote_count(u, v, 1) == 3


# ----------------------------------------------------------------------
# Sliding-window model (related-work substrate)
# ----------------------------------------------------------------------

class TestWindowProperties:
    @SLOW
    @given(
        window=st.floats(min_value=0.5, max_value=10.0),
        times=activation_times(max_events=40),
        picks=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40),
    )
    def test_window_counts_match_brute_force(self, window, times, picks):
        from repro.core.windows import SlidingWindowActiveness

        edges = [(0, 1), (1, 2), (0, 2)]
        graph = Graph(3, edges)
        model = SlidingWindowActiveness(graph, window=window)
        events = []
        for t, pick in zip(times, picks):
            e = edges[pick % 3]
            model.on_activation(e[0], e[1], t)
            events.append((e, t))
        now = events[-1][1]
        for edge in edges:
            expected = sum(
                1 for e, t in events if e == edge and t > now - window
            )
            assert model.value(*edge) == expected


# ----------------------------------------------------------------------
# End-to-end engine invariant
# ----------------------------------------------------------------------

class TestEngineProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        stream_seed=st.integers(min_value=0, max_value=500),
        n_acts=st.integers(min_value=1, max_value=40),
        rescale_every=st.integers(min_value=2, max_value=16),
    )
    # Streams whose rescales by 1/g would round two distances to a tie.
    @example(stream_seed=245, n_acts=16, rescale_every=4)
    @example(stream_seed=11, n_acts=16, rescale_every=2)
    @example(stream_seed=56, n_acts=40, rescale_every=4)
    def test_online_index_equals_fresh_rebuild(self, stream_seed, n_acts, rescale_every):
        from repro.core.anc import ANCO, ANCParams

        graph, _ = planted_partition(40, 3, p_in=0.4, p_out=0.05, seed=7)
        params = ANCParams(rep=0, k=2, seed=1, rescale_every=rescale_every, mu=2)
        engine = ANCO(graph, params)
        rng = random.Random(stream_seed)
        edges = list(graph.edges())
        t = 0.0
        for _ in range(n_acts):
            t += rng.random()
            e = rng.choice(edges)
            engine.process(Activation(e[0], e[1], t))
        fresh = PyramidIndex(graph, engine.index.weights_view(), k=2, seed=1)
        for p_inc, p_ref in zip(engine.index.partitions(), fresh.partitions()):
            assert p_inc.seed == p_ref.seed
            for v in graph.nodes():
                assert p_inc.dist[v] == pytest.approx(p_ref.dist[v], rel=1e-6)
