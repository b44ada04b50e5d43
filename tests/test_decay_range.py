"""The decay clock's range: idle gaps and unix-second timestamps.

A rescale absorbs ``g = e^(-λ·gap)``.  After a long enough gap ``g``
underflows, and absorbing it would zero the stored similarities and
overflow the index's weights and distances.  The clock then absorbs a
capped power of two instead (``repro.core.decay``, *Range*), so every
stream below — one activation at a time, on the array engine and the
dict reference alike — stays finite, passes ``check_consistency`` and
keeps an index equal to a fresh rebuild from its own weights.

Also here: the clock's one subscriber list, and the array store's
refusal of edges its space has not interned.
"""

from __future__ import annotations

import math

import pytest

from repro.core.activation import Activation
from repro.core.anc import ANCO, ANCParams, reference_engine
from repro.core.arrays import ArrayEdgeValues, EdgeSpace
from repro.core.decay import RANGE, DecayClock, ValueKind
from repro.core.metric import SimilarityFunction
from repro.graph.generators import planted_partition
from repro.graph.graph import Graph
from repro.index.clustering import ClusterQueryEngine
from repro.index.dynamic import register_edge_in_metric
from repro.index.pyramid import PyramidIndex
from repro.service.snapshots import signature_digest
from repro.workloads.streams import community_biased_stream

PARAMS = ANCParams(rep=1, k=2, seed=0, rescale_every=64)

ENGINES = {
    "array": lambda graph: ANCO(graph, PARAMS),
    "dict": lambda graph: reference_engine("ANCO", graph, PARAMS),
}


def item1_graph_and_stream():
    graph, labels = planted_partition(30, 3, p_in=0.5, p_out=0.05, seed=10)
    stream = community_biased_stream(graph, labels, timestamps=8, fraction=0.1, seed=3)
    return graph, list(stream)[:80]


def gapped(stream, gaps):
    """``stream``, then five of its activations after each gap in turn."""
    out = list(stream)
    t = out[-1].t
    for gap in gaps:
        t += gap
        out.extend(Activation(a.u, a.v, t) for a in stream[:5])
    return out


def assert_equals_fresh_rebuild(engine):
    """The index is consistent, every reachable distance is finite, and
    a rebuild from the index's own weights gives the same seeds and the
    same clusters."""
    index = engine.index
    index.check_consistency()
    fresh = PyramidIndex(engine.graph, index.weights_view(), k=index.k, seed=PARAMS.seed)
    for inc, ref in zip(index.partitions(), fresh.partitions()):
        assert inc.seed == ref.seed
        for v in engine.graph.nodes():
            if inc.seed[v] >= 0:
                assert math.isfinite(inc.dist[v])
                assert inc.dist[v] == pytest.approx(ref.dist[v], rel=1e-6)
    assert ClusterQueryEngine(fresh, method=PARAMS.method).clusters() == engine.clusters()


CASES = {
    "gap-7090": lambda stream: gapped(stream, [7090.0]),
    "gap-7500": lambda stream: gapped(stream, [7500.0]),
    "gap-1e6": lambda stream: gapped(stream, [1e6]),
    "ten-gaps-1e5": lambda stream: gapped(stream, [1e5] * 10),
    "first-at-1.7e9": lambda stream: [Activation(a.u, a.v, 1.7e9 + a.t) for a in stream],
}


class TestRange:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_stream_stays_in_range(self, case, engine_name):
        graph, stream = item1_graph_and_stream()
        engine = ENGINES[engine_name](graph)
        for act in CASES[case](stream):
            engine.process(act)
        assert_equals_fresh_rebuild(engine)
        store = engine.metric.similarity
        assert all(
            2.0 ** -RANGE <= value < math.inf for _, value in store.items_anchored()
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_engines_agree_bitwise(self, case):
        graph, stream = item1_graph_and_stream()
        digests = set()
        for make in ENGINES.values():
            engine = make(graph.copy())
            for act in CASES[case](stream):
                engine.process(act)
            digests.add(signature_digest(engine))
        assert len(digests) == 1

    def test_a_gap_leaves_old_values_negligible(self):
        """After a capped rescale every old value sits at least 2^64
        below the unit a new activation adds."""
        graph, stream = item1_graph_and_stream()
        engine = ENGINES["array"](graph)
        for act in stream:
            engine.process(act)
        before = engine.metric.clock.rescale_count
        engine.process(Activation(stream[0].u, stream[0].v, stream[-1].t + 1e6))
        assert engine.metric.clock.rescale_count == before + 1
        touched = (stream[0].u, stream[0].v) if stream[0].u < stream[0].v else (stream[0].v, stream[0].u)
        old = [v for e, v in engine.metric.activeness.store.items_anchored() if e != touched]
        assert old and max(old) <= 2.0 ** -64

    def test_an_underflowing_factor_is_capped_at_a_power_of_two(self):
        clock = DecayClock(0.1)
        store = clock.register(ValueKind.POSITIVE)
        store.set_anchored(0, 1, 1.0)
        store.set_anchored(1, 2, 0.25)
        seen = []
        clock.add_rescale_listener(seen.append)
        clock.advance(1e9)  # g underflows to 0: a forced rescale
        (factor,) = seen
        assert factor > 0.0 and math.frexp(factor)[0] == 0.5
        assert store.anchored(1, 2) >= 2.0 ** -RANGE
        assert store.anchored(0, 1) <= 2.0 ** -64
        assert clock.anchor == clock.now == 1e9


class TestOneSubscriberList:
    @pytest.mark.parametrize("kind", [ValueKind.POSITIVE, ValueKind.NEGATIVE])
    def test_each_store_absorbs_a_rescale_once(self, kind):
        clock = DecayClock(0.5)
        graph = Graph(3, [(0, 1), (1, 2)])
        plain = clock.register(kind)
        array = ArrayEdgeValues(clock, kind, EdgeSpace(graph))
        for store in (plain, array):
            store.set_anchored(0, 1, 2.0)
        clock.advance(1.0)
        g = clock.global_factor()
        clock.rescale()
        expect = 2.0 * g if kind is ValueKind.POSITIVE else 2.0 / g
        assert plain.anchored(0, 1) == expect
        assert array.anchored(0, 1) == expect


class TestArrayStoreRefusesUninternedEdges:
    def test_write_raises_and_changes_nothing(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        store = ArrayEdgeValues(DecayClock(0.1), ValueKind.POSITIVE, EdgeSpace(graph))
        store.set_anchored(0, 1, 1.5)
        before = (len(store), list(store.items_anchored()))
        for write in (
            lambda: store.set_anchored(2, 3, 1.0),
            lambda: store.add_anchored(3, 2, 1.0),
            lambda: store.set_actual(2, 3, 1.0),
        ):
            with pytest.raises(KeyError):
                write()
        assert (len(store), list(store.items_anchored())) == before
        assert store.anchored(2, 3) == 0.0
        assert (2, 3) not in store

    def test_register_edge_in_metric_interns_the_edge(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        metric = SimilarityFunction(graph, rep=0, mu=2)
        graph.add_edge(0, 2)
        assert (0, 2) not in metric.space.eid
        weight = register_edge_in_metric(metric, 0, 2)
        assert (0, 2) in metric.space.eid
        assert metric.activeness.value(0, 2) == pytest.approx(1.0)
        assert weight == 1.0 / metric.similarity.anchored(0, 2)
