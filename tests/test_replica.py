"""repro.replica: WAL-shipping replication, failover, divergence audit.

End-to-end tests drive a real primary/follower pair of
:class:`~repro.service.server.ANCServer` processes (each on its own
event loop via the chaos harness's :class:`ServerThread`) through the
blocking client — the same path ``repro-anc serve --role follower`` and
``repro-anc promote`` take.  The contracts under test are the ones
docs/replication.md states:

* a caught-up follower's engine is byte-identical to the primary's;
* followers refuse writes (``READ_ONLY``), deposed primaries refuse
  writes (``FENCED``) — the split-brain regression;
* promotion picks an epoch strictly above both nodes';
* a keyed batch replicated before a failover is absorbed by the
  promoted follower's dedup map on resend (exactly once);
* reordered/gapped fetch chunks are discarded wholesale and refetched;
* a caught-up ``wal_fetch`` parks until the next append, and a stop
  releases it;
* the divergence audit trips on a one-ulp similarity change and on a
  seed change at any pyramid level.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import threading
import time

import pytest

from repro.core.anc import make_engine
from repro.faults import (
    FaultPlan,
    FaultSpec,
    ServerThread,
    engine_signature,
)
from repro.faults.chaos import QUICK_PARAMS
from repro.graph.generators import planted_partition
from repro.replica import ReplicationError, promote, replication_status
from repro.replica.link import _decode_record
from repro.service import server as server_module
from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.server import ANCServer, ServerConfig
from repro.service.snapshots import WriteAheadLog, apply_activations
from repro.workloads.streams import community_biased_stream


def make_workload(seed=3, *, nodes=30, timestamps=8):
    graph, labels = planted_partition(nodes, 3, p_in=0.5, p_out=0.05, seed=seed + 7)
    stream = community_biased_stream(
        graph, labels, timestamps=timestamps, fraction=0.1, seed=seed
    )
    return graph, list(stream)


def serve(graph, plan=None, **config_kwargs):
    config = ServerConfig(
        port=0, engine="anco", faults=plan, **config_kwargs
    )
    return ServerThread(graph, config=config, params=QUICK_PARAMS)


def follower_kwargs(primary_port, replica_id="test-follower"):
    return dict(
        role="follower",
        primary_host="127.0.0.1",
        primary_port=primary_port,
        replica_id=replica_id,
        audit_interval=0.05,
    )


def wait_for(cond, *, timeout=15.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.01)


def caught_up(handle, target):
    host = handle.server.host
    return host.ingested >= target and host.applied >= target


def counters(handle):
    return handle.server.metrics.snapshot()["counters"]


def batches_of(stream, size=25):
    items = [(a.u, a.v, a.t) for a in stream]
    return [items[i : i + size] for i in range(0, len(items), size)]


def parked(handle):
    """Whether a ``wal_fetch`` has parked on ``handle`` since its last append."""
    return handle.server._appended is not None


def on_writer(handle, fn):
    """Run ``fn(engine)`` on ``handle``'s writer thread, between batches."""
    host = handle.server.host
    future = asyncio.run_coroutine_threadsafe(
        host._run_on_writer(fn, host.engine), handle._loop
    )
    return future.result(timeout=10.0)


# ----------------------------------------------------------------------
# Steady-state replication
# ----------------------------------------------------------------------

class TestReplication:
    def test_follower_catches_up_behind_long_keys(self, tmp_path):
        """A follower starting behind 600 records whose batch keys are
        120 characters long fetches 512-record chunks of ~75 KB: the
        link must read them (4 MiB line limit) and catch up cleanly."""
        graph, _ = make_workload(4)
        edges = itertools.islice(itertools.cycle(graph.edges()), 600)
        items = [(u, v, float(i // 40)) for i, (u, v) in enumerate(edges)]
        with serve(graph, data_dir=tmp_path / "p") as primary:
            client = ServiceClient(primary.host, primary.port, timeout=5.0)
            try:
                for i in range(0, len(items), 8):
                    key = f"{'k' * 110}-{i:09d}"
                    assert len(key) == 120
                    client.ingest_batch(items[i : i + 8], key=key)
                assert client.sync() == len(items)
            finally:
                client.close()
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                wait_for(
                    lambda: caught_up(follower, len(items)),
                    what="follower catch-up behind long keys",
                )
                assert counters(follower).get("replica_link_errors", 0) == 0

    def test_follower_replicates_to_identical_state(self, tmp_path):
        """A caught-up follower holds the byte-identical engine, serves
        reads, refuses writes, and shows up in the primary's lag map."""
        graph, stream = make_workload(11)
        oracle = make_engine("ANCO", graph, QUICK_PARAMS)
        apply_activations(oracle, stream)

        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                client = ServiceClient(primary.host, primary.port, timeout=5.0)
                try:
                    for i, items in enumerate(batches_of(stream)):
                        client.ingest_batch(items, key=f"rep-{i}")
                    assert client.sync() == len(stream)
                finally:
                    client.close()
                wait_for(
                    lambda: caught_up(follower, len(stream)),
                    what="follower catch-up",
                )
                assert engine_signature(
                    follower.server.host.engine
                ) == engine_signature(oracle)
                assert follower.server.epoch == primary.server.epoch == 1
                assert follower.server.diverged is None

                # Reads are served; writes are refused with the typed code.
                reader = ServiceClient(follower.host, follower.port, timeout=5.0)
                try:
                    doc = reader.request("clusters")
                    assert doc["applied"] == len(stream)
                    assert doc["role"] == "follower"
                    with pytest.raises(ServiceError) as exc:
                        reader.request("ingest", u=0, v=1, t=99.0, idempotent=False)
                    assert exc.value.code == "READ_ONLY"
                finally:
                    reader.close()

                status = replication_status(("127.0.0.1", primary.port))
                assert status["role"] == "primary"
                assert status["entries"] == len(stream)
                lag = status["replicas"]["test-follower"]
                assert lag["applied"] == len(stream) and lag["lag"] == 0

    def test_reordered_chunk_is_discarded_and_refetched(self, tmp_path):
        """A reordered wal_fetch chunk (the ``replica.fetch`` injector)
        never half-applies: the follower drops it wholesale, refetches,
        and still converges to the identical engine."""
        graph, stream = make_workload(12)
        oracle = make_engine("ANCO", graph, QUICK_PARAMS)
        apply_activations(oracle, stream)

        plan = FaultPlan([FaultSpec("replica.fetch", "reorder", at_count=1)])
        with serve(graph, plan, data_dir=tmp_path / "p") as primary:
            client = ServiceClient(primary.host, primary.port, timeout=5.0)
            try:
                for i, items in enumerate(batches_of(stream)):
                    client.ingest_batch(items, key=f"ro-{i}")
                client.sync()
            finally:
                client.close()
            # Follower starts *after* the data exists, so its very first
            # fetch returns a multi-record chunk — which the injector
            # reverses.
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                wait_for(
                    lambda: caught_up(follower, len(stream)),
                    what="follower catch-up after reordered chunk",
                )
                assert engine_signature(
                    follower.server.host.engine
                ) == engine_signature(oracle)
                assert counters(follower)["replica_refetches"] >= 1
                assert follower.server.diverged is None
        assert plan.fired and plan.fired[0]["kind"] == "reorder"


# ----------------------------------------------------------------------
# Failover, fencing, split brain
# ----------------------------------------------------------------------

class TestFailover:
    def test_promote_fences_old_primary(self, tmp_path):
        """Split-brain regression: after promotion the *old* primary
        refuses writes with ``FENCED`` while the promoted follower
        accepts them under a strictly higher epoch."""
        graph, stream = make_workload(13)
        half = len(stream) // 2

        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                client = ServiceClient(primary.host, primary.port, timeout=5.0)
                try:
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream[:half]], key="sb-0"
                    )
                    client.sync()
                finally:
                    client.close()
                wait_for(
                    lambda: caught_up(follower, half), what="follower catch-up"
                )

                summary = promote(
                    ("127.0.0.1", follower.port),
                    old_primary=("127.0.0.1", primary.port),
                )
                assert summary["fenced_old"] is True
                assert summary["epoch"] == 2
                assert follower.server.role == "primary"
                assert follower.server.epoch == 2

                # The deposed primary is alive but must refuse writes.
                stale = ServiceClient(
                    primary.host,
                    primary.port,
                    timeout=5.0,
                    retry=RetryPolicy(attempts=1),
                )
                try:
                    with pytest.raises(ServiceError) as exc:
                        stale.request(
                            "ingest",
                            u=stream[0].u,
                            v=stream[0].v,
                            t=999.0,
                            idempotent=False,
                        )
                    assert exc.value.code == "FENCED"
                finally:
                    stale.close()

                # The promoted follower ingests the rest under epoch 2.
                fresh = ServiceClient(follower.host, follower.port, timeout=5.0)
                try:
                    resp = fresh.request(
                        "ingest_batch",
                        items=[[a.u, a.v, a.t] for a in stream[half:]],
                        key="sb-1",
                    )
                    assert resp["epoch"] == 2 and resp["role"] == "primary"
                    assert fresh.sync() == len(stream)
                finally:
                    fresh.close()

                oracle = make_engine("ANCO", graph, QUICK_PARAMS)
                apply_activations(oracle, stream)
                assert engine_signature(
                    follower.server.host.engine
                ) == engine_signature(oracle)

    def test_fence_survives_a_restart(self, tmp_path):
        """A deposed primary that restarts on its data dir stays deposed:
        the fence is on disk before ``fence`` answers, so writes are
        refused with ``FENCED`` until a promotion moves past it."""
        graph, stream = make_workload(15)
        first, second = batches_of(stream)[:2]
        with serve(graph, data_dir=tmp_path / "p") as node:
            with ServiceClient(node.host, node.port, timeout=5.0) as client:
                client.ingest_batch(first, key="fence-0")
                assert client.request("fence", epoch=2)["fenced_by"] == 2
        with serve(graph, data_dir=tmp_path / "p") as node:
            with ServiceClient(
                node.host, node.port, timeout=5.0, retry=RetryPolicy(attempts=1)
            ) as client:
                stats = client.request("stats")["stats"]
                assert (stats["epoch"], stats["fenced_by"]) == (1, 2)
                with pytest.raises(ServiceError) as exc:
                    client.request("ingest_batch", items=second, key="fence-1")
                assert exc.value.code == "FENCED"
                client.request("promote")
                answer = client.request("ingest_batch", items=second, key="fence-1")
                assert answer["epoch"] >= 3
                assert client.sync() == len(first) + len(second)

    def test_replicated_batch_dedups_after_failover(self, tmp_path):
        """Exactly once across failover: a keyed batch the follower only
        ever saw as *replicated* WAL records is absorbed by its dedup
        map when the client resends it after promotion."""
        graph, stream = make_workload(14)

        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                items = [(a.u, a.v, a.t) for a in stream]
                client = ServiceClient(primary.host, primary.port, timeout=5.0)
                try:
                    client.ingest_batch(items, key="once-0")
                    client.sync()
                finally:
                    client.close()
                wait_for(
                    lambda: caught_up(follower, len(stream)),
                    what="follower catch-up",
                )
                promote(
                    ("127.0.0.1", follower.port),
                    old_primary=("127.0.0.1", primary.port),
                )

                before = follower.server.host.ingested
                fresh = ServiceClient(follower.host, follower.port, timeout=5.0)
                try:
                    resp = fresh.request(
                        "ingest_batch",
                        items=[list(item) for item in items],
                        key="once-0",
                    )
                    assert resp["accepted"] == len(items)
                finally:
                    fresh.close()
                assert follower.server.host.ingested == before
                assert counters(follower)["ingest_dedup_hits"] >= 1

    def test_promote_with_dead_primary(self, tmp_path):
        """The usual failover: the primary is gone.  Fencing is
        best-effort (``fenced_old=False``) and the promoted epoch still
        strictly exceeds every record the follower replicated."""
        graph, stream = make_workload(15)

        with serve(graph, data_dir=tmp_path / "p") as primary:
            follower = serve(
                graph, data_dir=tmp_path / "f", **follower_kwargs(primary.port)
            ).start()
            try:
                client = ServiceClient(primary.host, primary.port, timeout=5.0)
                try:
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream], key="dead-0"
                    )
                    client.sync()
                finally:
                    client.close()
                wait_for(
                    lambda: caught_up(follower, len(stream)),
                    what="follower catch-up",
                )
                dead_port = primary.port
                primary.stop()

                summary = promote(
                    ("127.0.0.1", follower.port),
                    old_primary=("127.0.0.1", dead_port),
                )
                assert summary["fenced_old"] is False
                # Replicated records carried epoch 1, so 2 still outranks
                # anything the dead primary could have written.
                assert summary["epoch"] == 2
                assert follower.server.role == "primary"
            finally:
                follower.stop()

    def test_client_fails_over_to_promoted_follower(self, tmp_path):
        """A client holding both endpoints rotates off the fenced old
        primary and lands its writes on the promoted follower."""
        graph, stream = make_workload(16)
        half = len(stream) // 2

        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                client = ServiceClient(
                    primary.host,
                    primary.port,
                    timeout=5.0,
                    retry=RetryPolicy(attempts=6, base_delay=0.02),
                    failover=[(follower.host, follower.port)],
                )
                try:
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream[:half]], key="fo-0"
                    )
                    client.sync()
                    wait_for(
                        lambda: caught_up(follower, half),
                        what="follower catch-up",
                    )
                    promote(
                        ("127.0.0.1", follower.port),
                        old_primary=("127.0.0.1", primary.port),
                    )
                    # Next write hits the fenced primary, rotates, lands.
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream[half:]], key="fo-1"
                    )
                    assert client.sync() == len(stream)
                    assert client.failovers >= 1
                    assert client.last_epoch == 2
                finally:
                    client.close()
                assert follower.server.host.ingested == len(stream)


# ----------------------------------------------------------------------
# Long-polled wal_fetch
# ----------------------------------------------------------------------

def ingested_primary(tmp_path, graph, stream, **config_kwargs):
    """A started primary holding ``stream`` (the caller stops it); its
    data dir is ``tmp_path / "p"`` unless ``data_dir`` names another."""
    config_kwargs.setdefault("data_dir", tmp_path / "p")
    primary = serve(graph, **config_kwargs).start()
    with ServiceClient(primary.host, primary.port, timeout=5.0) as client:
        client.ingest_batch([(a.u, a.v, a.t) for a in stream], key="lp-0")
        client.sync()
    return primary


class TestLongPoll:
    def test_parked_fetch_answers_on_append(self, tmp_path):
        """A caught-up fetch parks, then answers with the new record
        well within its ``wait`` of the append."""
        graph, stream = make_workload(18)
        head, rest = stream[:10], stream[10:12]
        primary = ingested_primary(tmp_path, graph, head)
        try:
            answer = {}
            fetcher = ServiceClient(primary.host, primary.port, timeout=10.0)

            def fetch():
                answer["doc"] = fetcher.request(
                    "wal_fetch", from_seq=len(head), wait=4.0, follower="lp"
                )
                answer["at"] = time.monotonic()

            thread = threading.Thread(target=fetch)
            thread.start()
            try:
                wait_for(lambda: parked(primary), what="the fetch to park")
                appended = time.monotonic()
                with ServiceClient(primary.host, primary.port, timeout=5.0) as client:
                    client.ingest_batch([(a.u, a.v, a.t) for a in rest], key="lp-1")
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            finally:
                fetcher.close()
            assert answer["at"] - appended < 1.0
            records = answer["doc"]["records"]
            assert records and records[0][0] == len(head)
        finally:
            primary.stop()

    def test_idle_fetch_answers_empty_after_wait(self, tmp_path):
        graph, stream = make_workload(18)
        primary = ingested_primary(tmp_path, graph, stream[:10])
        try:
            with ServiceClient(primary.host, primary.port, timeout=5.0) as client:
                started = time.monotonic()
                doc = client.request("wal_fetch", from_seq=10, wait=0.3)
                elapsed = time.monotonic() - started
            assert doc["records"] == [] and doc["entries"] == 10
            assert elapsed >= 0.29
        finally:
            primary.stop()

    @pytest.mark.parametrize("wait", [-0.5, "soon", True, [1.0]])
    def test_bad_wait_is_refused(self, tmp_path, wait):
        graph, stream = make_workload(18)
        primary = ingested_primary(tmp_path, graph, stream[:10])
        try:
            with ServiceClient(primary.host, primary.port, timeout=5.0) as client:
                with pytest.raises(ServiceError) as exc:
                    client.request("wal_fetch", from_seq=10, wait=wait)
            assert exc.value.code == "BAD_REQUEST"
        finally:
            primary.stop()

    def test_stop_does_not_wait_out_a_parked_follower(self, tmp_path):
        """Stopping a primary with a follower link parked on it finishes
        well under the park time (``wait`` = the 4 s audit interval)."""
        graph, stream = make_workload(18)
        primary = ingested_primary(tmp_path, graph, stream[:10])
        try:
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **{**follower_kwargs(primary.port), "audit_interval": 4.0},
            ) as follower:
                wait_for(lambda: caught_up(follower, 10), what="follower catch-up")
                wait_for(lambda: parked(primary), what="the follower to park")
                started = time.monotonic()
                primary.stop()
                assert time.monotonic() - started < 2.0
        finally:
            primary.stop()

    def test_stop_answers_parked_fetch_and_closes_the_connection(self, tmp_path):
        """On a live loop, a stop answers the parked fetch at once and
        hangs up on the client instead of leaving it connected."""
        graph, stream = make_workload(18)

        async def main():
            server = ANCServer(
                graph,
                config=ServerConfig(
                    port=0, data_dir=tmp_path / "p"
                ),
                params=QUICK_PARAMS,
            )
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            request = {"op": "wal_fetch", "from_seq": 0, "wait": 5.0}
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            while server._appended is None:
                await asyncio.sleep(0.01)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await server.stop()
            stopped = loop.time() - started
            answer = json.loads(await asyncio.wait_for(reader.readline(), 1.0))
            eof = await asyncio.wait_for(reader.read(), 1.0)
            writer.close()
            return stopped, answer, eof

        stopped, answer, eof = asyncio.run(main())
        assert stopped < 1.0
        assert answer["ok"] and answer["records"] == []
        assert eof == b""


class TestWalSlice:
    def test_offset_slice_matches_the_log(self, tmp_path, monkeypatch):
        """``wal_fetch`` indexes the in-memory tail by offset; every
        boundary — before the tail (file-scan fallback), inside it, at
        its end and past it — matches a scan of the log file, on a
        primary with a data dir and on one started without (which logs
        to a throwaway dir)."""
        graph, stream = make_workload(18)
        monkeypatch.setattr(server_module, "WAL_TAIL_CAPACITY", 16)
        for data_dir in (tmp_path / "p", None):
            primary = ingested_primary(tmp_path, graph, stream[:40], data_dir=data_dir)
            try:
                server = primary.server
                tail_start = server._wal_tail[0].seq
                assert tail_start == 24
                path = server.host.wal.path
                for from_seq in (0, 10, 23, 24, 25, 31, 39, 40, 41):
                    for limit in (1, 5, 512):
                        expected = list(
                            itertools.islice(
                                WriteAheadLog.replay_records(path, skip=from_seq),
                                limit,
                            )
                        )
                        assert server._wal_slice(from_seq, limit) == expected, (
                            data_dir,
                            from_seq,
                            limit,
                        )
            finally:
                primary.stop()

    def test_late_follower_catches_up_without_data_dirs(self, tmp_path, monkeypatch):
        """A follower started after the stream catches up from a primary
        started without a data dir: the records older than the in-memory
        tail come from the primary's throwaway log."""
        graph, stream = make_workload(18)
        monkeypatch.setattr(server_module, "WAL_TAIL_CAPACITY", 16)
        primary = ingested_primary(tmp_path, graph, stream[:40], data_dir=None)
        try:
            with serve(graph, **follower_kwargs(primary.port)) as follower:
                wait_for(lambda: caught_up(follower, 40), what="late follower catch-up")
                assert engine_signature(follower.server.host.engine) == engine_signature(
                    primary.server.host.engine
                )
        finally:
            primary.stop()


# ----------------------------------------------------------------------
# Divergence audit
# ----------------------------------------------------------------------

def nudge_similarity(engine):
    """Move one anchored similarity by one ulp."""
    similarity = engine.metric.similarity
    (u, v), value = next(iter(similarity.items_anchored()))
    similarity.set_anchored(u, v, math.nextafter(value, math.inf))


def move_unsampled_seed(engine):
    """Reassign one node's seed at a level outside {1, √n, top}, the
    levels whose clusters :func:`engine_signature` captures."""
    queries = engine.queries
    sampled = {1, queries.sqrt_n_level(), queries.num_levels}
    level = next(lv for lv in range(2, queries.num_levels) if lv not in sampled)
    part = engine.index.pyramids[0].levels[level]
    v = next(
        v for v in range(engine.graph.n) if v not in part.seeds and part.seed[v] >= 0
    )
    part.seed[v] = next(s for s in part.seeds if s != part.seed[v])


class TestDivergenceAudit:
    @pytest.mark.parametrize(
        "perturb",
        [nudge_similarity, move_unsampled_seed],
        ids=["similarity-ulp", "unsampled-level-seed"],
    )
    def test_audit_trips_on_perturbed_follower(self, tmp_path, perturb):
        """At equal applied counts, a perturbed follower is marked
        diverged within a few audits, then refuses cluster reads and
        promotion with the typed ``DIVERGED``."""
        graph, stream = make_workload(17)

        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph,
                data_dir=tmp_path / "f",
                **follower_kwargs(primary.port),
            ) as follower:
                with ServiceClient(primary.host, primary.port, timeout=5.0) as client:
                    for i, items in enumerate(batches_of(stream)):
                        client.ingest_batch(items, key=f"dv-{i}")
                    client.sync()
                wait_for(
                    lambda: caught_up(follower, len(stream)),
                    what="follower catch-up",
                )
                audits = counters(follower)["replica_audits"]
                wait_for(
                    lambda: counters(follower)["replica_audits"] >= audits + 2,
                    what="two healthy audits",
                )
                assert follower.server.diverged is None

                on_writer(follower, perturb)
                # audit_interval is 0.05 s: the bound leaves room for a
                # loaded machine; a healthy run trips at the next audit.
                wait_for(
                    lambda: follower.server.diverged is not None,
                    timeout=2.0,
                    what="the divergence verdict",
                )
                reader = ServiceClient(
                    follower.host,
                    follower.port,
                    timeout=5.0,
                    retry=RetryPolicy(attempts=1),
                )
                try:
                    with pytest.raises(ServiceError) as exc:
                        reader.request("clusters")
                    assert exc.value.code == "DIVERGED"
                    with pytest.raises(ServiceError) as exc:
                        reader.request("promote", idempotent=False)
                    assert exc.value.code == "DIVERGED"
                finally:
                    reader.close()
                assert follower.server.role == "follower"


# ----------------------------------------------------------------------
# Wire-format hygiene
# ----------------------------------------------------------------------

class TestDecodeRecord:
    def test_roundtrip(self):
        record = _decode_record([7, 1, 2, 3.5, 2, "batch-9"])
        assert record.seq == 7
        assert (record.act.u, record.act.v, record.act.t) == (1, 2, 3.5)
        assert record.epoch == 2 and record.key == "batch-9"

    def test_empty_key_is_none(self):
        assert _decode_record([0, 1, 2, 3.0, 1, ""]).key is None

    @pytest.mark.parametrize(
        "raw",
        [
            "not-a-list",
            [1, 2, 3],  # wrong arity
            [1, 2, "x", 3.0, 1, None],  # non-numeric node
            None,
        ],
    )
    def test_malformed_raises_typed_error(self, raw):
        with pytest.raises(ReplicationError):
            _decode_record(raw)
