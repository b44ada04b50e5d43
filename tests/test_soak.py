"""Soak test: a long, mixed-operation session against one live engine.

Interleaves everything a deployment does — activations of varying burst
sizes, idle gaps, queries at random levels, reinforcement sweeps, edge
insertions, monitoring — for a few thousand operations, then verifies
every global invariant: index ≡ fresh rebuild, live votes ≡ recount,
clusterings are partitions, activeness ≡ naive recomputation on a
sampled edge.
"""

import random

import pytest

from repro.core.activation import Activation, naive_activeness
from repro.core.anc import ANCOR, ANCParams
from repro.graph.generators import planted_partition
from repro.index.dynamic import add_relation_edge
from repro.index.pyramid import PyramidIndex
from repro.index.voting import voted_edges
from repro.monitor import ClusterWatcher


@pytest.mark.parametrize("seed", [0, 1])
def test_long_mixed_session(seed):
    rng = random.Random(seed)
    graph, labels = planted_partition(90, 5, p_in=0.4, p_out=0.02, seed=seed + 50)
    params = ANCParams(
        rep=1, k=2, seed=seed, rescale_every=97, lam=0.2, eps=0.2, mu=2
    )
    engine = ANCOR(graph, params, reinforce_interval=7.0)
    watcher = ClusterWatcher(engine)
    watched = rng.sample(list(graph.nodes()), 3)
    for v in watched:
        watcher.watch(v)

    history = []
    t = 0.0
    inserted = 0
    for step in range(150):
        t += rng.choice([0.1, 0.5, 1.0, 5.0])  # includes idle-ish gaps
        op = rng.random()
        if op < 0.75:
            # A burst of activations at this timestamp.
            burst = rng.randint(1, 12)
            edges = [rng.choice(graph.edges()) for _ in range(burst)]
            batch = sorted(Activation(u, v, t) for u, v in edges)
            history.extend(batch)
            watcher.process_batch(batch)
        elif op < 0.9:
            # Queries at a random level.
            level = rng.randint(1, engine.queries.num_levels)
            v = rng.randrange(graph.n)
            cluster = engine.cluster_of(v, level)
            assert v in cluster
        elif inserted < 5:
            # Grow the network.
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            if u != v and not engine.graph.has_edge(u, v):
                add_relation_edge(engine, u, v)
                inserted += 1

    # --- invariants at the end -----------------------------------------
    engine.index.check_consistency()

    # Index equals a fresh build at the final weights.
    fresh = PyramidIndex(
        engine.graph, engine.index.weights_view(), k=params.k, seed=params.seed
    )
    for p_inc, p_ref in zip(engine.index.partitions(), fresh.partitions()):
        assert p_inc.seed == p_ref.seed
        for v in engine.graph.nodes():
            assert p_inc.dist[v] == pytest.approx(p_ref.dist[v], rel=1e-6)

    # Each watched level's live votes equal a full recount.
    for level, votes in watcher.votes.items():
        live = {(u, v) for u in engine.graph.nodes() for v in votes.adj[u] if u < v}
        assert live == set(voted_edges(engine.index, level))

    # Watched clusters are exact.
    for v in watched:
        from repro.index.clustering import local_cluster

        level = watcher.levels[0]
        assert watcher.current_cluster(v) == frozenset(
            local_cluster(engine.index, v, level)
        )

    # Clusterings are partitions at every level.
    for level in (1, engine.queries.num_levels):
        clusters = engine.clusters(level)
        assert sorted(x for c in clusters for x in c) == list(engine.graph.nodes())

    # Activeness matches the naive Equation 1 on sampled original edges
    # (inserted edges carry synthetic initial activeness, so skip them).
    original_edges = set(graph.edges())
    sampled = rng.sample(sorted(original_edges), 5)
    final_t = engine.now
    for e in sampled:
        expected = naive_activeness(history, e, final_t, params.lam)
        expected += 1.0 * pow(2.718281828459045, -params.lam * final_t)  # initial a_0 = 1
        assert engine.metric.activeness.value(*e) == pytest.approx(
            expected, rel=1e-6, abs=1e-12
        )
