"""Tests for the cluster watcher (§V-C Remarks application)."""

import pytest

from repro.core.anc import ANCO, ANCOR, ANCParams
from repro.index.clustering import local_cluster
from repro.index.dynamic import add_relation_edge
from repro.monitor import ClusterChange, ClusterWatcher
from repro.workloads.streams import community_biased_stream

QUICK = ANCParams(rep=1, k=2, seed=0, rescale_every=128, mu=2, eps=0.2)


@pytest.fixture
def engine(small_planted):
    graph, _ = small_planted
    return ANCO(graph, QUICK)


class TestWatchBasics:
    def test_watch_returns_current_cluster(self, engine):
        watcher = ClusterWatcher(engine)
        cluster = watcher.watch(0)
        assert 0 in cluster
        assert watcher.current_cluster(0) == cluster

    def test_unknown_node_rejected(self, engine):
        watcher = ClusterWatcher(engine)
        with pytest.raises(ValueError):
            watcher.watch(10_000)

    def test_unwatched_level_rejected(self, engine):
        watcher = ClusterWatcher(engine, levels=[2])
        with pytest.raises(ValueError):
            watcher.watch(0, level=3)

    def test_invalid_level_rejected(self, engine):
        with pytest.raises(ValueError):
            ClusterWatcher(engine, levels=[99])

    def test_unwatch(self, engine):
        watcher = ClusterWatcher(engine)
        watcher.watch(0)
        watcher.unwatch(0)
        with pytest.raises(KeyError):
            watcher.current_cluster(0)


class TestChangeDetection:
    def test_tracked_cluster_stays_exact(self, small_planted):
        """After every batch, the watcher's cached cluster must equal a
        fresh local query — the whole point of the vote maintenance."""
        graph, labels = small_planted
        engine = ANCO(graph, QUICK)
        watcher = ClusterWatcher(engine)
        level = watcher.levels[0]
        watched = [0, 7, 23]
        for v in watched:
            watcher.watch(v)
        stream = community_biased_stream(
            graph, labels, timestamps=8, fraction=0.2, intra_bias=0.8, seed=4
        )
        for _, batch in stream.batches_by_timestamp():
            watcher.process_batch(batch)
            for v in watched:
                fresh = frozenset(local_cluster(engine.index, v, level))
                assert watcher.current_cluster(v) == fresh

    def test_events_describe_deltas(self, small_planted):
        graph, labels = small_planted
        engine = ANCO(graph, QUICK)
        watcher = ClusterWatcher(engine)
        watcher.watch(0)
        stream = community_biased_stream(
            graph, labels, timestamps=10, fraction=0.25, intra_bias=0.7, seed=9
        )
        changes = watcher.process_stream(stream)
        # Deltas must be internally consistent.
        for change in changes:
            assert isinstance(change, ClusterChange)
            assert not (change.joined & change.left)
            assert change.node == 0
            assert "node 0" in change.summary

    def test_no_events_when_nothing_watched(self, small_planted):
        graph, labels = small_planted
        engine = ANCO(graph, QUICK)
        watcher = ClusterWatcher(engine)
        stream = community_biased_stream(
            graph, labels, timestamps=3, fraction=0.1, seed=1
        )
        assert watcher.process_stream(stream) == []

    def test_drain_events(self, small_planted):
        graph, labels = small_planted
        engine = ANCO(graph, QUICK)
        watcher = ClusterWatcher(engine)
        watcher.watch(0)
        stream = community_biased_stream(
            graph, labels, timestamps=10, fraction=0.25, intra_bias=0.7, seed=9
        )
        watcher.process_stream(stream)
        drained = watcher.drain_events()
        assert watcher.events == []
        assert drained == sorted(drained, key=lambda c: c.t)


class TestMultiLevel:
    def test_two_levels_watched_independently(self, small_planted):
        graph, labels = small_planted
        engine = ANCO(graph, QUICK)
        levels = [2, engine.queries.num_levels]
        watcher = ClusterWatcher(engine, levels=levels)
        for level in levels:
            watcher.watch(0, level=level)
        stream = community_biased_stream(
            graph, labels, timestamps=6, fraction=0.2, seed=2
        )
        watcher.process_stream(stream)
        for level in levels:
            fresh = frozenset(local_cluster(engine.index, 0, level))
            assert watcher.current_cluster(0, level) == fresh


class TestEventsMatchReference:
    def test_observe_applied_events_equal_fresh_cluster_deltas(self, small_planted):
        """Batch by batch, the events are exactly the watched clusters'
        brute-force deltas: an event when a fresh local query differs
        from the one before the batch, joined/left the set differences.
        Runs across rescales and a mid-stream edge insertion."""
        graph, labels = small_planted
        params = ANCParams(rep=1, k=2, seed=0, rescale_every=16, mu=2, eps=0.2)
        engine = ANCOR(graph, params, reinforce_interval=3.0)
        levels = (engine.queries.sqrt_n_level(), engine.queries.num_levels)
        watcher = ClusterWatcher(engine, levels=levels)
        watched = [(v, level) for v in (0, 7, 23, 41) for level in levels]
        for v, level in watched:
            watcher.watch(v, level)
        stream = community_biased_stream(
            graph, labels, timestamps=24, fraction=0.2, intra_bias=0.7, seed=6
        )
        batches = [batch for _, batch in stream.batches_by_timestamp()]
        far = next(w for w in graph.nodes() if labels[w] != labels[0])
        assert not graph.has_edge(0, far)

        def fresh():
            return {
                (v, level): frozenset(local_cluster(engine.index, v, level))
                for v, level in watched
            }

        emitted = 0
        for step, batch in enumerate(batches):
            before = fresh()
            if step == len(batches) // 2:
                add_relation_edge(engine, 0, far)  # graph.m grows: a full recount
            engine.process_batch(batch)
            changes = watcher.observe_applied(batch)
            after = fresh()
            expected = {
                key: (after[key] - before[key], before[key] - after[key])
                for key in watched
                if after[key] != before[key]
            }
            got = {(c.node, c.level): (c.joined, c.left) for c in changes}
            assert len(got) == len(changes)
            assert got == expected, step
            assert all(c.t == engine.now for c in changes)
            for key in watched:
                assert watcher.current_cluster(*key) == after[key]
            emitted += len(changes)
        assert emitted > 0
        assert engine.graph.has_edge(0, far)
