"""Tests for the streaming service layer (``repro.service``).

Covers the ISSUE's required surface:

* micro-batching intake — flush on size, flush on latency, bounded-queue
  backpressure, clean drain on close;
* the single-writer host — applied state matches a reference engine fed
  the same activations, queries stay consistent while ingest is running,
  watches, sync barriers;
* durability — WAL round trip and torn-tail repair, checkpoint +
  WAL-tail recovery that is *byte-identical* for ANCO and ANCOR, both
  in-process and across a ``kill -9`` of a real server subprocess;
* metrics instruments and registry rendering;
* the JSON-lines protocol end to end (in-process asyncio server).

No pytest-asyncio in the toolchain: every async scenario runs through
``asyncio.run()`` inside a plain sync test.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.activation import Activation
from repro.core.anc import ANCO, ANCOR, ANCParams, make_engine
from repro.graph.generators import planted_partition
from repro.index.clustering import local_cluster
from repro.service import (
    ANCServer,
    CheckpointStore,
    EngineHost,
    MetricsRegistry,
    MicroBatcher,
    ServerConfig,
    ServiceClient,
    ServiceError,
    WriteAheadLog,
)
from repro.obs.instruments import Counter, Gauge, Histogram
from repro.service.client import RetryPolicy
from repro.service.server import MAX_PROFILE_HZ
from repro.service.snapshots import (
    CheckpointCorruptError,
    apply_activations,
    recover_to,
    restore_engine,
    signature_digest,
)
from repro.service.wire import LINE_LIMIT
from repro.workloads.streams import community_biased_stream

SRC = Path(__file__).resolve().parent.parent / "src"


def make_stream(graph, labels, *, timestamps=20, seed=3):
    return list(
        community_biased_stream(
            graph, labels, timestamps=timestamps, fraction=0.08, seed=seed
        )
    )


def assert_engines_identical(a, b):
    """Bit-for-bit equality of everything that determines query output."""
    assert a.activations_processed == b.activations_processed
    assert a.now == b.now
    assert a.metric.clock.anchor == b.metric.clock.anchor
    assert a.index.weights_view() == b.index.weights_view()
    assert dict(a.metric.similarity.items_anchored()) == dict(
        b.metric.similarity.items_anchored()
    )
    assert list(a.metric.sigma._strength) == list(b.metric.sigma._strength)
    for p_a, p_b in zip(a.index.partitions(), b.index.partitions()):
        assert p_a.seeds == p_b.seeds
        assert p_a.seed == p_b.seed
        assert p_a.parent == p_b.parent
        assert p_a.dist == p_b.dist
    for level in range(1, a.queries.num_levels + 1):
        assert a.clusters(level) == b.clusters(level)


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------

class TestMicroBatcher:
    def test_flush_on_batch_size(self):
        async def scenario():
            batcher = MicroBatcher(batch_size=4, max_latency=60.0, max_pending=16)
            for i in range(4):
                await batcher.submit(Activation(0, 1, float(i + 1)))
            batch = await asyncio.wait_for(batcher.next_batch(), 1.0)
            return batch

        batch = asyncio.run(scenario())
        assert len(batch) == 4
        assert [a.t for a in batch] == [1.0, 2.0, 3.0, 4.0]

    def test_flush_on_latency(self):
        async def scenario():
            batcher = MicroBatcher(batch_size=1000, max_latency=0.05, max_pending=2000)
            await batcher.submit(Activation(0, 1, 1.0))
            await batcher.submit(Activation(0, 1, 2.0))
            started = time.perf_counter()
            batch = await asyncio.wait_for(batcher.next_batch(), 5.0)
            return batch, time.perf_counter() - started

        batch, elapsed = asyncio.run(scenario())
        assert len(batch) == 2  # flushed well short of batch_size
        assert elapsed < 2.0

    def test_backpressure_blocks_until_drained(self):
        async def scenario():
            batcher = MicroBatcher(batch_size=2, max_latency=0.01, max_pending=2)
            await batcher.submit(Activation(0, 1, 1.0))
            await batcher.submit(Activation(0, 1, 2.0))
            assert batcher.depth == 2  # full

            blocked = asyncio.create_task(batcher.submit(Activation(0, 1, 3.0)))
            await asyncio.sleep(0.02)
            assert not blocked.done()  # still waiting on queue space

            batch = await batcher.next_batch()  # frees space
            await asyncio.wait_for(blocked, 1.0)
            return batch, batcher.depth

        batch, depth = asyncio.run(scenario())
        assert len(batch) == 2
        assert depth == 1  # the unblocked third activation

    def test_close_drains_then_ends(self):
        async def scenario():
            batcher = MicroBatcher(batch_size=10, max_latency=0.01, max_pending=16)
            for i in range(3):
                await batcher.submit(Activation(0, 1, float(i + 1)))
            await batcher.close()
            first = await batcher.next_batch()
            second = await batcher.next_batch()
            third = await batcher.next_batch()  # stays None once drained
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert [a.t for a in first] == [1.0, 2.0, 3.0]
        assert second is None
        assert third is None

    def test_submit_after_close_rejected(self):
        async def scenario():
            batcher = MicroBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit(Activation(0, 1, 1.0))

        asyncio.run(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_latency=0.0)
        with pytest.raises(ValueError):
            MicroBatcher(batch_size=8, max_pending=4)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter(self):
        c = Counter("acts")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_direct_and_callable(self):
        g = Gauge("depth")
        g.set(7.0)
        assert g.value == 7.0
        assert Gauge("fn", lambda: 3.0).value == 3.0

    def test_histogram_percentiles(self):
        h = Histogram("lat", window=100)
        for v in range(1, 101):
            h.observe(float(v))
        summary = h.summary()
        assert summary["count"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        assert 49.0 <= summary["p50"] <= 52.0
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["max"] == 100.0

    def test_histogram_window_bounds_memory(self):
        h = Histogram("lat", window=10)
        for v in range(1000):
            h.observe(float(v))
        summary = h.summary()
        assert summary["count"] == 1000.0  # lifetime count is exact
        # The window holds only the tail, 990..999: the median of all
        # 1,000 observations would be about 500.
        assert 990.0 <= summary["p50"] <= summary["max"] == 999.0
        assert sum(h.bucket_counts()) == 10.0

    def test_registry_snapshot_and_rates(self):
        registry = MetricsRegistry()
        c = registry.counter("acts")
        registry.gauge("depth", lambda: 4.0)
        registry.histogram("lat").observe(0.25)
        c.inc(10)
        doc = registry.snapshot()
        assert doc["counters"]["acts"] == 10.0
        assert doc["gauges"]["depth"] == 4.0
        assert doc["histograms"]["lat"]["count"] == 1.0
        json.dumps(doc)  # must be JSON-able as served by the metrics op

    def test_registry_idempotent_factories(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------

class TestWriteAheadLog:
    def test_round_trip_exact_floats(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        acts = [Activation(0, 1, 0.1), Activation(2, 3, 1.0 / 3.0)]
        for act in acts:
            wal.append(act)
        wal.close()
        replayed = list(WriteAheadLog.replay(path))
        assert replayed == acts  # repr round-trips floats exactly

    def test_replay_skip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for i in range(5):
            wal.append(Activation(0, 1, float(i + 1)))
        wal.close()
        tail = list(WriteAheadLog.replay(path, skip=3))
        assert [a.t for a in tail] == [4.0, 5.0]

    def test_torn_tail_tolerated_and_repaired(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(Activation(0, 1, 1.0))
        wal.append(Activation(2, 3, 2.0))
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("4 5")  # append torn mid-crash, before the timestamp
        assert len(list(WriteAheadLog.replay(path))) == 2
        # Re-opening repairs the tail so new appends stay parseable.
        wal = WriteAheadLog(path)
        assert wal.entries == 2
        wal.append(Activation(4, 5, 3.0))
        wal.close()
        replayed = list(WriteAheadLog.replay(path))
        assert [a.t for a in replayed] == [1.0, 2.0, 3.0]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("0 1 1.0\ngarbage line\n2 3 2.0\n")
        with pytest.raises(ValueError, match="corrupt"):
            list(WriteAheadLog.replay(path))

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert list(WriteAheadLog.replay(tmp_path / "absent.log")) == []


# ----------------------------------------------------------------------
# Deterministic batch hooks
# ----------------------------------------------------------------------

class TestApplyActivations:
    def test_partitioning_invariance(self, small_planted, quick_params):
        """Any micro-batch partitioning of the same sequence produces the
        same engine state — the invariant recovery relies on."""
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=12)
        whole = ANCOR(graph, quick_params)
        apply_activations(whole, acts)
        chunked = ANCOR(graph, quick_params)
        i = 0
        sizes = [1, 3, 7, 2, 11, 5]
        while i < len(acts):
            size = sizes[i % len(sizes)]
            apply_activations(chunked, acts[i : i + size])
            i += size
        assert_engines_identical(whole, chunked)


# ----------------------------------------------------------------------
# EngineHost
# ----------------------------------------------------------------------

def run_host_scenario(engine, scenario, **host_kwargs):
    """Start a host + run loop, execute ``scenario(host)``, close cleanly."""

    async def main():
        batcher = MicroBatcher(batch_size=16, max_latency=0.01, max_pending=256)
        host = EngineHost(engine, batcher, **host_kwargs)
        run_task = asyncio.create_task(host.run())
        try:
            return await scenario(host)
        finally:
            await host.close(run_task)

    return asyncio.run(main())


class TestEngineHost:
    def test_applied_state_matches_reference(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=10)

        async def scenario(host):
            for act in acts:
                await host.ingest(act)
            state = await host.wait_applied()
            level, clusters = await host.clusters()
            return state, level, clusters

        state, level, clusters = run_host_scenario(ANCO(graph, quick_params), scenario)
        assert state.activations == len(acts)

        reference = ANCO(graph, quick_params)
        apply_activations(reference, acts)
        assert clusters == reference.clusters(level)
        assert state.t == reference.now

    def test_queries_consistent_during_ingest(self, small_planted, quick_params):
        """Reads served concurrently with writes always see a complete,
        consistent partition of the node set."""
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=15)

        async def scenario(host):
            problems = []

            async def reader():
                while not done.done():
                    level, clusters = await host.clusters()
                    covered = sorted(v for c in clusters for v in c)
                    if covered != list(range(graph.n)):
                        problems.append("clusters do not partition V")
                    _, cluster = await host.cluster_of(0)
                    if 0 not in cluster:
                        problems.append("node missing from its own cluster")
                    await asyncio.sleep(0)

            async def writer():
                for act in acts:
                    await host.ingest(act)
                await host.wait_applied()

            done = asyncio.create_task(writer())
            read_task = asyncio.create_task(reader())
            await done
            await read_task
            return problems, host.applied

        problems, applied = run_host_scenario(ANCO(graph, quick_params), scenario)
        assert problems == []
        assert applied == len(acts)

    def test_ensure_level_materializes_on_demand(self, small_planted, quick_params):
        graph, labels = small_planted

        async def scenario(host):
            assert 1 not in host.state.clusters_by_level
            level, clusters = await host.clusters(1)
            return level, clusters, sorted(host.state.clusters_by_level)

        level, clusters, tracked = run_host_scenario(
            ANCO(graph, quick_params), scenario
        )
        assert level == 1
        assert sum(len(c) for c in clusters) == graph.n
        assert 1 in tracked

    def test_level_clamped_to_range(self, small_planted, quick_params):
        graph, labels = small_planted

        async def scenario(host):
            hi, _ = await host.clusters(9999)
            lo, _ = await host.clusters(-5)
            return hi, lo, host.state.num_levels

        hi, lo, num_levels = run_host_scenario(ANCO(graph, quick_params), scenario)
        assert hi == num_levels
        assert lo == 1

    def test_monotonic_time_enforced(self, small_planted, quick_params):
        graph, labels = small_planted
        (u, v) = graph.edges()[0]

        async def scenario(host):
            await host.ingest(Activation(u, v, 5.0))
            with pytest.raises(ValueError, match="non-monotonic"):
                await host.ingest(Activation(u, v, 3.0))
            assert host.clamp_time(3.0) == 5.0
            assert host.clamp_time(8.0) == 8.0
            await host.ingest(Activation(u, v, host.clamp_time(3.0)))
            state = await host.wait_applied()
            return state

        state = run_host_scenario(ANCO(graph, quick_params), scenario)
        assert state.activations == 2
        assert state.t == 5.0

    def test_wait_applied_target(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=6)

        async def scenario(host):
            waiter = asyncio.create_task(host.wait_applied(len(acts)))
            for act in acts:
                await host.ingest(act)
            state = await asyncio.wait_for(waiter, 10.0)
            return state.activations

        applied = run_host_scenario(ANCO(graph, quick_params), scenario)
        assert applied == len(acts)

    def test_watch_reports_changes(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=20, seed=9)

        async def scenario(host):
            cluster = await host.watch(0)
            assert 0 in cluster
            for act in acts:
                await host.ingest(act)
            await host.wait_applied()
            events = host.drain_watch_events()
            assert host.drain_watch_events() == []  # drained
            await host.unwatch(0)
            return cluster, events

        cluster, events = run_host_scenario(ANCO(graph, quick_params), scenario)
        # Event sequences depend on observation boundaries (the host
        # observes per micro-batch), but their *net effect* must equal
        # the reference engine's final cluster for the watched node.
        current = set(cluster)
        for event in events:
            assert event.node == 0
            assert not (event.joined & event.left)
            current |= event.joined
            current -= event.left
        reference = ANCO(graph, quick_params)
        apply_activations(reference, acts)
        level = reference.queries.sqrt_n_level()
        assert current == set(reference.cluster_of(0, level))

    def test_stats_surface(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=4)

        async def scenario(host):
            for act in acts:
                await host.ingest(act)
            await host.wait_applied()
            return host.stats()

        stats = run_host_scenario(ANCO(graph, quick_params), scenario)
        assert stats["ingested"] == len(acts)
        assert stats["applied"] == len(acts)
        assert stats["queue_depth"] == 0
        assert stats["activations"] == len(acts)
        assert "roles" in stats

    def test_host_metrics_instrumented(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=5)
        metrics = MetricsRegistry()

        async def scenario(host):
            for act in acts:
                await host.ingest(act)
            await host.wait_applied()
            await host.clusters()
            return metrics.snapshot()

        doc = run_host_scenario(
            ANCO(graph, quick_params), scenario, metrics=metrics
        )
        counters = doc["counters"]
        assert counters["activations_ingested"] == len(acts)
        assert counters["activations_applied"] == len(acts)
        assert counters["batches_applied"] >= 1
        assert counters["queries_served"] >= 1
        assert doc["histograms"]["batch_flush_seconds"]["count"] >= 1
        assert doc["gauges"]["queue_depth"] == 0.0

    def test_ingest_after_close_rejected(self, small_planted, quick_params):
        graph, labels = small_planted
        engine = ANCO(graph, quick_params)

        async def main():
            batcher = MicroBatcher(batch_size=4, max_latency=0.01, max_pending=16)
            host = EngineHost(engine, batcher)
            run_task = asyncio.create_task(host.run())
            await host.close(run_task)
            with pytest.raises(RuntimeError):
                await host.ingest(Activation(*graph.edges()[0], 1.0))

        asyncio.run(main())


# ----------------------------------------------------------------------
# Crash recovery (in-process)
# ----------------------------------------------------------------------

class TestCrashRecovery:
    @pytest.mark.parametrize("engine_name", ["ANCO", "ANCOR"])
    def test_checkpoint_plus_wal_tail_is_byte_identical(
        self, tmp_path, small_planted, quick_params, engine_name
    ):
        """The acceptance criterion: checkpoint at N, crash at N+k, and
        recovery reproduces the crashed engine exactly."""
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=25, seed=4)
        cut = 100

        store = CheckpointStore(tmp_path)
        wal = WriteAheadLog(store.wal_path)
        live = make_engine(engine_name, graph, quick_params)
        for act in acts[:cut]:
            wal.append(act)
        apply_activations(live, acts[:cut])
        store.write_checkpoint(live)
        for act in acts[cut:]:
            wal.append(act)
        apply_activations(live, acts[cut:])
        wal.close()  # simulated crash point: WAL flushed, no new checkpoint

        recovery = recover_to(graph, store, params=quick_params)
        assert recovery.replayed == len(acts) - cut
        assert type(recovery.engine).__name__ == engine_name
        assert_engines_identical(live, recovery.engine)

    def test_recovery_with_torn_wal_tail(
        self, tmp_path, small_planted, quick_params
    ):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=10)
        store = CheckpointStore(tmp_path)
        wal = WriteAheadLog(store.wal_path)
        for act in acts:
            wal.append(act)
        wal.close()
        with open(store.wal_path, "a", encoding="utf-8") as fh:
            fh.write("3 4")  # the append in flight at the crash

        recovery = recover_to(graph, store, params=quick_params)
        assert recovery.replayed == len(acts)  # torn line skipped, nothing else lost
        reference = ANCO(graph, quick_params)
        apply_activations(reference, acts)
        assert_engines_identical(reference, recovery.engine)

    def test_wal_only_recovery(self, tmp_path, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=8)
        store = CheckpointStore(tmp_path)
        wal = WriteAheadLog(store.wal_path)
        for act in acts:
            wal.append(act)
        wal.close()
        assert recover_to(graph, store, params=quick_params).replayed == len(acts)

    def test_cold_start(self, tmp_path, small_planted, quick_params):
        graph, _ = small_planted
        recovery = recover_to(graph, CheckpointStore(tmp_path), params=quick_params)
        assert recovery.replayed == 0
        assert recovery.engine.activations_processed == 0

    def test_incomplete_checkpoint_ignored(
        self, tmp_path, small_planted, quick_params
    ):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=6)
        store = CheckpointStore(tmp_path)
        wal = WriteAheadLog(store.wal_path)
        live = ANCO(graph, quick_params)
        for act in acts:
            wal.append(act)
        apply_activations(live, acts)
        wal.close()
        complete = store.write_checkpoint(live)
        # A later checkpoint torn mid-write: dir exists, MANIFEST missing.
        torn = tmp_path / "checkpoint-99999"
        torn.mkdir()
        (torn / "engine.json").write_text("{}")
        found = store.latest_checkpoint()
        assert found is not None
        assert found[0] == complete
        recovery = recover_to(graph, store, params=quick_params)
        assert recovery.replayed == 0
        assert_engines_identical(live, recovery.engine)

    def test_restore_rejects_unknown_state_version(
        self, tmp_path, small_planted, quick_params
    ):
        graph, _ = small_planted
        with pytest.raises(ValueError, match="unsupported engine-state"):
            restore_engine(graph, {"format": 42}, tmp_path / "index.json")


def checkpointed_store(tmp_path, graph, labels, params):
    """A data dir with a checkpoint at 60 activations and a WAL tail past
    it; returns ``(store, checkpoint dir, live engine)``."""
    acts = make_stream(graph, labels, timestamps=12, seed=5)
    store = CheckpointStore(tmp_path)
    wal = WriteAheadLog(store.wal_path)
    live = ANCO(graph, params)
    for act in acts:
        wal.append(act)
    apply_activations(live, acts[:60])
    path = store.write_checkpoint(live, epoch=3)
    apply_activations(live, acts[60:])
    wal.close()
    return store, path, live


def rewrite_index(path, edit):
    """Apply ``edit`` to a checkpoint's index document and re-seal its
    MANIFEST checksum, as bit rot before the checksum was taken would."""
    index_path = path / "index.json"
    doc = json.loads(index_path.read_text())
    edit(doc)
    index_path.write_text(json.dumps(doc))
    manifest = json.loads((path / "MANIFEST").read_text())
    manifest["index_crc"] = zlib.crc32(index_path.read_bytes())
    (path / "MANIFEST").write_text(json.dumps(manifest))
    return manifest


class TestCheckpointFormat:
    def test_seq_lives_in_the_dir_name_and_engine_json(
        self, tmp_path, small_planted, quick_params
    ):
        """The index document carries no ``resume`` and the MANIFEST no
        ``seq``: the seq is the directory name and ``engine.json``'s
        ``activations``, the epoch the MANIFEST's."""
        graph, labels = small_planted
        store, path, _ = checkpointed_store(tmp_path, graph, labels, quick_params)
        assert path.name == "checkpoint-60"
        assert "resume" not in json.loads((path / "index.json").read_text())
        manifest = json.loads((path / "MANIFEST").read_text())
        assert sorted(manifest) == ["engine_crc", "epoch", "index_crc"]
        assert json.loads((path / "engine.json").read_text())["activations"] == 60
        assert recover_to(graph, store).epoch == 3

    def test_a_data_dir_in_the_older_format_recovers(
        self, tmp_path, small_planted, quick_params
    ):
        """A checkpoint that still records its seq in the MANIFEST and a
        ``resume`` in ``index.json`` recovers to the same digest."""
        graph, labels = small_planted
        store, path, live = checkpointed_store(tmp_path, graph, labels, quick_params)

        def add_resume(doc):
            doc["resume"] = {"seq": 60, "epoch": 3}

        manifest = rewrite_index(path, add_resume)
        manifest["seq"] = 60
        (path / "MANIFEST").write_text(json.dumps(manifest))
        recovery = recover_to(graph, store)
        assert (recovery.epoch, recovery.replayed) == (3, len(make_stream(graph, labels, timestamps=12, seed=5)) - 60)
        assert signature_digest(recovery.engine) == signature_digest(live)

    def test_an_inconsistent_index_is_a_corrupt_checkpoint(
        self, tmp_path, small_planted, quick_params
    ):
        """An index whose checksums match but whose forest is broken (one
        distance raised by 5.0) fails recovery with the typed error."""
        graph, labels = small_planted
        store, path, _ = checkpointed_store(tmp_path, graph, labels, quick_params)

        def raise_one_dist(doc):
            dist = doc["pyramids"][0]["1"]["dist"]
            v = next(i for i, d in enumerate(dist) if d)
            dist[v] += 5.0

        rewrite_index(path, raise_one_dist)
        with pytest.raises(CheckpointCorruptError, match="inconsistent Voronoi partition"):
            recover_to(graph, store)


# ----------------------------------------------------------------------
# Server protocol (in-process)
# ----------------------------------------------------------------------

def run_server_scenario(scenario, *, names=None, config=None, params=None,
                        graph_and_labels=None):
    """Start an in-process ANCServer; run ``scenario(reader, writer, server)``."""
    graph, labels = graph_and_labels

    async def main():
        server = ANCServer(
            graph,
            names,
            config=config or ServerConfig(),
            params=params or ANCParams(rep=1, k=2, seed=0),
        )
        await server.start()
        serve_task = asyncio.create_task(server.serve_forever())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port, limit=LINE_LIMIT
        )
        try:
            return await scenario(reader, writer, server)
        finally:
            writer.close()
            await server.stop()
            await serve_task

    return asyncio.run(main())


async def rpc(reader, writer, **request):
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), 30.0))


class TestServerProtocol:
    def test_ping_and_id_echo(self, small_planted):
        async def scenario(reader, writer, server):
            return await rpc(reader, writer, op="ping", id=17)

        response = run_server_scenario(scenario, graph_and_labels=small_planted)
        assert response["ok"] is True
        assert response["id"] == 17
        assert response["applied"] == 0

    def test_ingest_sync_query_round_trip(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=10)

        async def scenario(reader, writer, server):
            items = [[a.u, a.v, a.t] for a in acts]
            accepted = await rpc(reader, writer, op="ingest_batch", items=items)
            synced = await rpc(reader, writer, op="sync")
            clusters = await rpc(reader, writer, op="clusters")
            local = await rpc(reader, writer, op="local", node=acts[0].u)
            return accepted, synced, clusters, local

        accepted, synced, clusters, local = run_server_scenario(
            scenario, graph_and_labels=small_planted, params=quick_params
        )
        assert accepted["accepted"] == len(acts)
        assert synced["applied"] == len(acts)
        reference = ANCO(graph, quick_params)
        apply_activations(reference, acts)
        expected = reference.clusters()
        assert clusters["applied"] == len(acts)
        assert clusters["clusters"] == expected
        assert acts[0].u in local["cluster"]

    def test_labels_resolved(self, small_planted):
        graph, _ = small_planted
        names = [f"user{i}" for i in range(graph.n)]
        (u, v) = graph.edges()[0]

        async def scenario(reader, writer, server):
            ingest = await rpc(
                reader, writer, op="ingest", u=f"user{u}", v=f"user{v}", t=1.0
            )
            await rpc(reader, writer, op="sync")
            local = await rpc(reader, writer, op="local", node=f"user{u}")
            return ingest, local

        ingest, local = run_server_scenario(
            scenario, names=names, graph_and_labels=small_planted
        )
        assert ingest["ok"] is True
        assert f"user{u}" in local["cluster"]
        assert all(isinstance(x, str) for x in local["cluster"])

    def test_errors_reported_not_fatal(self, small_planted):
        graph, _ = small_planted

        async def scenario(reader, writer, server):
            bad_op = await rpc(reader, writer, op="frobnicate")
            bad_node = await rpc(reader, writer, op="local", node="nope")
            not_edge = await rpc(
                reader, writer, op="ingest", u=0, v=0, t=1.0
            )
            bad_json_line = b"{not json}\n"
            writer.write(bad_json_line)
            await writer.drain()
            bad_json = json.loads(await reader.readline())
            alive = await rpc(reader, writer, op="ping")
            return bad_op, bad_node, not_edge, bad_json, alive

        bad_op, bad_node, not_edge, bad_json, alive = run_server_scenario(
            scenario, graph_and_labels=small_planted
        )
        for response in (bad_op, bad_node, not_edge, bad_json):
            assert response["ok"] is False
            assert "error" in response
        assert alive["ok"] is True  # the connection survived every error

    def test_ingest_batch_key_validation(self, small_planted):
        """Keys are non-empty, whitespace-free strings of at most 256
        characters: every WAL record of the batch carries its key."""
        graph, _ = small_planted
        (u, v) = graph.edges()[0]
        keys = ["", "a b", "k" * 256, "k" * 257, 5]

        async def scenario(reader, writer, server):
            return [
                await rpc(
                    reader, writer, op="ingest_batch",
                    items=[[u, v, float(i + 1)]], key=key,
                )
                for i, key in enumerate(keys)
            ]

        empty, spaced, longest, too_long, number = run_server_scenario(
            scenario, graph_and_labels=small_planted
        )
        for response in (empty, spaced, too_long, number):
            assert response["ok"] is False
            assert response["error_type"] == "BAD_REQUEST"
        assert "256" in too_long["error"]
        assert longest["ok"] is True and longest["accepted"] == 1

    def test_dedup_map_keeps_the_newest_keys(self, small_planted, monkeypatch):
        """Past ``DEDUP_CAPACITY`` the oldest settled keys are dropped:
        six keyed batches under a capacity of 4 leave the newest four,
        and a resend of a kept key is still answered from the map."""
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "DEDUP_CAPACITY", 4)
        graph, _ = small_planted
        (u, v) = graph.edges()[0]
        keys = [f"b{i}" for i in range(6)]

        async def scenario(reader, writer, server):
            for i, key in enumerate(keys):
                sent = await rpc(
                    reader, writer, op="ingest_batch",
                    items=[[u, v, float(i + 1)]], key=key,
                )
                assert sent["ok"] is True and "deduped" not in sent
            kept = list(server._dedup)
            resend = await rpc(
                reader, writer, op="ingest_batch",
                items=[[u, v, 4.0]], key="b3",
            )
            synced = await rpc(reader, writer, op="sync")
            return kept, resend, synced

        kept, resend, synced = run_server_scenario(
            scenario, graph_and_labels=small_planted
        )
        assert kept == keys[2:]
        assert resend["ok"] is True and resend["deduped"] is True
        assert synced["applied"] == len(keys)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(
                '{"op": "clusters", "min_size": null}',
                id="clusters-min_size-null",
            ),
            pytest.param(
                '{"op": "clusters", "level": "2"}',
                id="clusters-level-string",
            ),
            pytest.param(
                '{"op": "local", "node": 0, "token": [1]}',
                id="local-token-list",
            ),
            pytest.param(
                '{"op": "local", "node": 0, "max_staleness": 1.5}',
                id="local-max_staleness-fraction",
            ),
            pytest.param(
                '{"op": "zoom_in", "level": null}',
                id="zoom_in-level-null",
            ),
            pytest.param(
                '{"op": "zoom_out", "level": true}',
                id="zoom_out-level-bool",
            ),
            pytest.param(
                '{"op": "wal_fetch", "from_seq": null}',
                id="wal_fetch-from_seq-null",
            ),
            pytest.param(
                '{"op": "wal_fetch", "max": "512"}',
                id="wal_fetch-max-string",
            ),
            pytest.param(
                '{"op": "fence", "epoch": null}',
                id="fence-epoch-null",
            ),
            pytest.param(
                '{"op": "promote", "epoch": [2]}',
                id="promote-epoch-list",
            ),
            pytest.param(
                '{"op": "ingest", "u": $U, "v": $V, "t": null}',
                id="ingest-t-null",
            ),
            pytest.param(
                '{"op": "ingest", "u": $U, "v": $V, "t": "inf"}',
                id="ingest-t-string-inf",
            ),
            pytest.param(
                '{"op": "ingest", "u": $U, "v": $V, "t": NaN}',
                id="ingest-t-nan",
            ),
            pytest.param(
                '{"op": "ingest", "u": $U, "v": $V, "t": 1e999}',
                id="ingest-t-1e999",
            ),
            pytest.param(
                '{"op": "ingest_batch", "items": [null]}',
                id="ingest_batch-item-null",
            ),
            pytest.param(
                '{"op": "ingest_batch", "key": "k", "items": [[$U, $V, 1.0], [$U, $V, 1e999]]}',
                id="ingest_batch-second-item-1e999",
            ),
            # A sampler faster than MAX_PROFILE_HZ starves the writer.
            pytest.param(
                '{"op": "profile", "action": "start", "hz": "inf"}',
                id="profile-hz-string-inf",
            ),
            pytest.param(
                '{"op": "profile", "action": "start", "hz": 1e999}',
                id="profile-hz-1e999",
            ),
            pytest.param(
                '{"op": "profile", "action": "start", "hz": true}',
                id="profile-hz-bool",
            ),
            pytest.param(
                '{"op": "profile", "action": "start", "hz": 5000}',
                id="profile-hz-above-bound",
            ),
            pytest.param(
                '{"op": "profile", "action": "start", "hz": "97"}',
                id="profile-hz-string",
            ),
            pytest.param(
                '{"op": "profile", "action": "start", "hz": 0}',
                id="profile-hz-zero",
            ),
        ],
    )
    def test_malformed_numeric_field_is_bad_request(self, small_planted, line):
        """A malformed number is the client's error: ``BAD_REQUEST``,
        nothing logged, and the server keeps serving."""
        graph, _ = small_planted
        (u, v) = graph.edges()[0]

        async def scenario(reader, writer, server):
            raw = line.replace("$U", str(u)).replace("$V", str(v))
            writer.write(raw.encode() + b"\n")
            await writer.drain()
            answer = json.loads(await asyncio.wait_for(reader.readline(), 30.0))
            stats = await rpc(reader, writer, op="stats")
            synced = await rpc(reader, writer, op="sync")
            return answer, stats["stats"], synced

        answer, stats, synced = run_server_scenario(
            scenario, graph_and_labels=small_planted
        )
        assert answer["ok"] is False and answer["error_type"] == "BAD_REQUEST", answer
        assert stats["wal_entries"] == 0 and stats["role"] == "primary"
        assert synced["ok"] is True and synced["applied"] == 0

    def test_profile_starts_at_the_cadence_bound(self, small_planted):
        """``hz`` up to ``MAX_PROFILE_HZ`` starts a fresh profiler at
        that cadence, whatever JSON number spells it."""

        async def scenario(reader, writer, server):
            started = await rpc(reader, writer, op="profile", action="start", hz=1e3)
            stopped = await rpc(reader, writer, op="profile", action="stop")
            return started, stopped

        started, stopped = run_server_scenario(
            scenario, graph_and_labels=small_planted
        )
        assert started["running"] is True and started["hz"] == MAX_PROFILE_HZ
        assert stopped["running"] is False

    def test_zoom_and_watch_ops(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=15, seed=9)

        async def scenario(reader, writer, server):
            watch = await rpc(reader, writer, op="watch", node=0)
            items = [[a.u, a.v, a.t] for a in acts]
            await rpc(reader, writer, op="ingest_batch", items=items)
            await rpc(reader, writer, op="sync")
            changes = await rpc(reader, writer, op="changes")
            level = (await rpc(reader, writer, op="clusters"))["level"]
            zin = await rpc(reader, writer, op="zoom_in", level=level)
            zout = await rpc(reader, writer, op="zoom_out", level=level)
            stats = await rpc(reader, writer, op="stats")
            metrics = await rpc(reader, writer, op="metrics")
            return watch, changes, level, zin, zout, stats, metrics

        watch, changes, level, zin, zout, stats, metrics = run_server_scenario(
            scenario, graph_and_labels=small_planted, params=quick_params
        )
        assert 0 in watch["cluster"]
        assert isinstance(changes["changes"], list)
        for event in changes["changes"]:
            assert event["node"] == 0
            assert set(event) >= {"level", "t", "joined", "left"}
        assert zin["level"] == level + 1
        assert zout["level"] == level - 1
        assert stats["stats"]["applied"] == len(acts)
        assert metrics["metrics"]["counters"]["activations_applied"] == len(acts)

    def test_watch_at_two_levels(self, small_planted, quick_params):
        """Two nodes watched at two levels: after each synced batch, each
        node's change events, folded over its watch answer, give the
        voted component a replay of the same prefix finds at its level."""
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=15, seed=9)
        batches = [acts[i : i + 25] for i in range(0, len(acts), 25)]
        watched = [(0, 3), (13, 5)]
        oracle = make_engine("ANCO", graph, quick_params)

        def brute_force():
            return {
                (v, level): set(local_cluster(oracle.index, v, level))
                for v, level in watched
            }

        async def scenario(reader, writer, server):
            tracked = {}
            for v, level in watched:
                answer = await rpc(reader, writer, op="watch", node=v, level=level)
                tracked[(v, level)] = set(answer["cluster"])
            assert tracked == brute_force()
            levels_changed = set()
            for batch in batches:
                items = [[a.u, a.v, a.t] for a in batch]
                await rpc(reader, writer, op="ingest_batch", items=items)
                await rpc(reader, writer, op="sync")
                apply_activations(oracle, batch)
                for event in (await rpc(reader, writer, op="changes"))["changes"]:
                    cluster = tracked[(event["node"], event["level"])]
                    joined, left = set(event["joined"]), set(event["left"])
                    assert not joined & cluster and left <= cluster
                    cluster |= joined
                    cluster -= left
                    levels_changed.add(event["level"])
                assert tracked == brute_force()
            return levels_changed

        levels_changed = run_server_scenario(
            scenario, graph_and_labels=small_planted, params=quick_params
        )
        assert levels_changed == {3, 5}

    def test_snapshot_without_data_dir(self, small_planted):
        """A server started without a data dir checkpoints into its
        throwaway one, which is gone once the server has stopped."""
        async def scenario(reader, writer, server):
            response = await rpc(reader, writer, op="snapshot")
            return response, server.host.checkpoints.data_dir

        response, data_dir = run_server_scenario(
            scenario, graph_and_labels=small_planted
        )
        assert response["ok"] is True
        assert Path(response["path"]).parent == data_dir
        assert not data_dir.exists()

    def test_snapshot_and_shutdown(self, small_planted, tmp_path, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=5)
        config = ServerConfig(
            data_dir=tmp_path, checkpoint_every=0
        )

        async def scenario(reader, writer, server):
            items = [[a.u, a.v, a.t] for a in acts]
            await rpc(reader, writer, op="ingest_batch", items=items)
            snapshot = await rpc(reader, writer, op="snapshot")
            shutdown = await rpc(reader, writer, op="shutdown")
            return snapshot, shutdown

        snapshot, shutdown = run_server_scenario(
            scenario,
            graph_and_labels=small_planted,
            config=config,
            params=quick_params,
        )
        assert snapshot["ok"] is True
        assert snapshot["applied"] == len(acts)
        assert Path(snapshot["path"]).name == f"checkpoint-{len(acts)}"
        assert shutdown["ok"] is True
        assert shutdown["stopping"] is True
        # Every envelope is stamped with the node's replication identity.
        assert shutdown["role"] == "primary"
        assert shutdown["epoch"] >= 1
        # The graceful shutdown left a recoverable store behind.
        recovery = recover_to(graph, CheckpointStore(tmp_path), params=quick_params)
        assert recovery.engine.activations_processed == len(acts)


# ----------------------------------------------------------------------
# Full server subprocess: kill -9 and recover
# ----------------------------------------------------------------------

def start_server_subprocess(edgelist, data_dir, *, stderr=subprocess.DEVNULL):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(edgelist),
            "--port", "0", "--data-dir", str(data_dir),
            "--rep", "1", "--pyramids", "2",
            "--batch-size", "32", "--max-latency", "0.02",
            "--checkpoint-every", "100",
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        env=env,
        text=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("SERVING "), f"unexpected announce line: {line!r}"
    _, host, port = line.split()
    return proc, host, int(port)


class TestWriterFailure:
    def test_failed_writer_stops_serve_nonzero(
        self, small_planted, tmp_path, monkeypatch
    ):
        """An engine that raises on the writer thread hard-stops
        ``repro-anc serve``: a ``sync`` waiting on the lost batch gets a
        transport error within seconds, nothing is checkpointed, every
        acknowledged activation is in the WAL, and the command exits 1."""
        graph, labels = small_planted
        edgelist = tmp_path / "graph.txt"
        edgelist.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
        data_dir = tmp_path / "data"
        items = [[str(a.u), str(a.v), a.t] for a in make_stream(graph, labels)[:10]]

        def boom(engine, act):
            raise RuntimeError("injected engine failure")

        engine = make_engine("ANCO", graph, ANCParams(rep=1, k=2, seed=0))
        monkeypatch.setattr(type(engine), "process", boom)

        lines: "queue.Queue[str]" = queue.Queue()

        class Announce:
            def write(self, text):
                if text.strip():
                    lines.put(text.strip())

            def flush(self):
                pass

        argv = [
            "serve", str(edgelist), "--port", "0", "--data-dir", str(data_dir),
            "--rep", "1", "--pyramids", "2",
        ]
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(code=cli_main(argv, Announce())),
            daemon=True,
        )
        thread.start()
        try:
            port = int(lines.get(timeout=30.0).split()[2])
            client = ServiceClient(
                "127.0.0.1", port, timeout=30.0, retry=RetryPolicy(attempts=1)
            )
            try:
                acked = client.ingest_batch(items, key="doomed")
                started = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.sync()
                waited = time.monotonic() - started
            finally:
                client.close()
        finally:
            thread.join(timeout=30.0)
        assert excinfo.value.code == "CONNECT", excinfo.value
        assert waited < 5.0
        assert not thread.is_alive() and result["code"] == 1
        store = CheckpointStore(data_dir)
        assert store.latest_checkpoint() is None
        logged = list(WriteAheadLog.replay_records(store.wal_path))
        assert acked == len(items) - 1 and len(logged) == len(items)


#: Serves one durable ANCServer through keyed ingest, ``clusters`` at
#: two levels, ``local``, ``stats``, ``signature`` and ``snapshot``,
#: then reports whether numpy was ever imported.
NUMPY_FREE_SERVE = """
import asyncio, json, sys
from repro.core.anc import ANCParams
from repro.graph.generators import planted_partition
from repro.service import ANCServer, ServerConfig, ServiceClient

graph, labels = planted_partition(60, 4, p_in=0.5, p_out=0.02, seed=11)
items = [[u, v, float(i // 8)] for i, (u, v) in enumerate(graph.edges()[:64])]

async def main():
    server = ANCServer(
        graph, None,
        config=ServerConfig(data_dir=sys.argv[1]),
        params=ANCParams(rep=1, k=2, seed=0),
    )
    await server.start()
    serving = asyncio.create_task(server.serve_forever())

    def drive():
        with ServiceClient("127.0.0.1", server.port) as client:
            client.ingest_batch(items[:32], key="first")
            client.ingest_batch(items[32:], key="second")
            client.sync()
            sqrt = client.request("clusters")
            finer = client.request("clusters", level=sqrt["level"] + 1)
            return {
                "sqrt": sqrt["level"],
                "finer": finer["level"],
                "local": client.local(0),
                "applied": client.stats()["applied"],
                "digest": client.request("signature")["digest"],
                "snapshot": client.request("snapshot")["ok"],
            }

    try:
        return await asyncio.to_thread(drive)
    finally:
        await server.stop()
        await serving

report = asyncio.run(main())
report["numpy"] = "numpy" in sys.modules
print(json.dumps(report))
"""


class TestServerSubprocess:
    def test_served_process_loads_no_numpy(self, tmp_path):
        """A durable server answers ingest, queries at two levels, stats,
        signature and snapshot without ever importing numpy."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_SERVE, str(tmp_path / "data")],
            capture_output=True, env=env, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["applied"] == 64
        assert report["finer"] == report["sqrt"] + 1
        assert 0 in report["local"]
        assert len(report["digest"]) == 64 and report["snapshot"] is True
        assert report["numpy"] is False

    def test_kill_dash_nine_recovers_identical_clusters(self, tmp_path):
        """SIGKILL the serving process mid-stream; the restarted server
        answers ``clusters`` identically at the same granularity."""
        graph, labels = planted_partition(60, 4, p_in=0.5, p_out=0.02, seed=11)
        edgelist = tmp_path / "graph.txt"
        edgelist.write_text(
            "".join(f"n{u} n{v}\n" for u, v in graph.edges())
        )
        data_dir = tmp_path / "data"
        acts = make_stream(graph, labels, timestamps=30, seed=2)
        items = [[f"n{a.u}", f"n{a.v}", a.t] for a in acts]
        cut = len(items) // 2

        proc, host, port = start_server_subprocess(edgelist, data_dir)
        try:
            with ServiceClient(host, port) as client:
                client.ingest_batch(items[:cut])
                client.snapshot()  # durable checkpoint at the cut
                client.ingest_batch(items[cut:])  # WAL tail past it
                client.sync()
                before = client.clusters_info()
                level = before["level"]
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        proc, host, port = start_server_subprocess(edgelist, data_dir)
        try:
            with ServiceClient(host, port) as client:
                after = client.clusters_info(level=level)
                stats = client.stats()
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        assert stats["applied"] == len(items)
        assert after["level"] == before["level"]
        assert after["t"] == before["t"]
        assert after["applied"] == before["applied"]
        assert after["clusters"] == before["clusters"]

    def test_unix_second_timestamps_survive_kill_dash_nine(self, tmp_path):
        """A fresh server takes unix-second timestamps (its clock starts
        at 0, so the first rescale absorbs a capped factor), is killed
        with SIGKILL after a checkpoint and a WAL tail, and after the
        restart answers ``clusters`` and ``signature`` as before."""
        graph, labels = planted_partition(60, 4, p_in=0.5, p_out=0.02, seed=11)
        edgelist = tmp_path / "graph.txt"
        edgelist.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
        data_dir = tmp_path / "data"
        acts = make_stream(graph, labels, timestamps=30, seed=2)
        items = [[str(a.u), str(a.v), 1.7e9 + a.t] for a in acts]
        cut = len(items) // 2

        def answers(client, level=None):
            info = client.clusters_info(level=level)
            return info, client.request("signature")["digest"]

        proc, host, port = start_server_subprocess(edgelist, data_dir)
        try:
            with ServiceClient(host, port) as client:
                client.ingest_batch(items[:cut])
                client.snapshot()
                client.ingest_batch(items[cut:])
                client.sync()
                before, digest = answers(client)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        proc, host, port = start_server_subprocess(edgelist, data_dir)
        try:
            with ServiceClient(host, port) as client:
                after, digest_after = answers(client, level=before["level"])
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        assert before["t"] == 1.7e9 + acts[-1].t
        assert after["applied"] == before["applied"] == len(items)
        assert after["clusters"] == before["clusters"]
        assert digest_after == digest

    def test_sigterm_is_a_clean_stop(self, tmp_path):
        """``kill -TERM`` stops ``repro-anc serve`` cleanly: exit 0 and a
        final checkpoint, so a restart replays nothing from the WAL."""
        graph, labels = planted_partition(60, 4, p_in=0.5, p_out=0.02, seed=11)
        edgelist = tmp_path / "graph.txt"
        edgelist.write_text("".join(f"n{u} n{v}\n" for u, v in graph.edges()))
        data_dir = tmp_path / "data"
        acts = make_stream(graph, labels, timestamps=30, seed=2)[:150]
        items = [[f"n{a.u}", f"n{a.v}", a.t] for a in acts]

        proc, host, port = start_server_subprocess(edgelist, data_dir)
        try:
            with ServiceClient(host, port) as client:
                client.ingest_batch(items)
                assert client.sync() == len(items)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        log = tmp_path / "restart.log"
        with open(log, "w") as stderr:
            proc, host, port = start_server_subprocess(
                edgelist, data_dir, stderr=stderr
            )
            try:
                with ServiceClient(host, port) as client:
                    assert client.stats()["applied"] == len(items)
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert (
            f"recovered engine at {len(items)} activations (0 replayed from WAL"
            in log.read_text()
        )

    def test_client_error_surface(self, tmp_path):
        graph, _ = planted_partition(30, 3, p_in=0.6, p_out=0.05, seed=1)
        edgelist = tmp_path / "graph.txt"
        edgelist.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
        proc, host, port = start_server_subprocess(edgelist, tmp_path / "data")
        try:
            with ServiceClient(host, port) as client:
                assert client.ping()["ok"] is True
                with pytest.raises(ServiceError, match="unknown node"):
                    client.local("not-a-node")
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
