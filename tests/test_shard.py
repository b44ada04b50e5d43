"""Tests for repro.shard: shard map, merge semantics, router oracle.

The load-bearing property (docs/sharding.md) is pinned end to end here:
on a stream whose activations stay intra-shard, a 2-shard scatter-gather
``clusters`` answer must equal — exactly, not approximately — what one
engine over the whole graph and the whole stream would say.
"""

from __future__ import annotations

import io
import random

import pytest

import os
import time

from repro.cli import main as cli_main
from repro.core.anc import make_engine
from repro.faults.chaos import (
    SHARD_PARAMS,
    build_shard_workload,
    RouterThread,
    ServerThread,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graph.generators import barbell_graph, planted_partition
from repro.graph.graph import Graph
from repro.graph.io import write_edge_list
from repro.obs import fleet_chrome_trace, fleet_trace_summary
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig
from repro.shard import (
    RouterConfig,
    ShardDeployment,
    ShardMap,
    merge_clusters,
    merge_stats,
)


def _disjoint_blocks(blocks=4, size=10, seed=3):
    """Disjoint union of small connected blocks (all packable)."""
    edges = []
    offset = 0
    for b in range(blocks):
        g, _ = planted_partition(size, 2, p_in=0.7, p_out=0.2, seed=seed + b)
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += size
    return Graph(offset, edges)


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------


class TestShardMap:
    def test_same_seed_same_map(self):
        graph = _disjoint_blocks()
        a = ShardMap.build(graph, 3, seed=7)
        b = ShardMap.build(graph, 3, seed=7)
        assert a == b
        assert a.digest() == b.digest()

    def test_digest_tracks_inputs(self):
        graph = _disjoint_blocks()
        base = ShardMap.build(graph, 3, seed=7)
        assert base.digest() != ShardMap.build(graph, 2, seed=7).digest()

    def test_every_node_and_edge_assigned(self):
        graph = _disjoint_blocks()
        smap = ShardMap.build(graph, 3, seed=0)
        assert len(smap.assignment) == graph.n
        assert all(0 <= s < 3 for s in smap.assignment)
        assert sum(smap.edge_counts()) == graph.m
        for u, v in graph.edges():
            assert 0 <= smap.shard_of_edge(u, v) < 3

    def test_components_packed_whole(self):
        # Disjoint 10-node blocks across 4 shards: every component is
        # packable, so no cross-shard edges and each block is atomic.
        graph = _disjoint_blocks(blocks=4, size=10)
        smap = ShardMap.build(graph, 4, seed=0)
        assert smap.cross_edges == ()
        for block in range(4):
            homes = {smap.shard_of(v) for v in range(block * 10, (block + 1) * 10)}
            assert len(homes) == 1

    def test_oversized_component_hash_scatters(self):
        # One connected 20-node component over 2 shards cannot pack
        # whole: the fallback scatters nodes and registers cross edges.
        graph = barbell_graph(10, bridge=1)
        smap = ShardMap.build(graph, 2, seed=0)
        assert len(set(smap.assignment)) == 2
        assert len(smap.cross_edges) > 0
        # Every cross edge is owned by one of its endpoints' shards ...
        for u, v, owner in smap.cross_edges:
            assert owner in (smap.shard_of(u), smap.shard_of(v))
            assert smap.shard_of(u) != smap.shard_of(v)
            assert smap.shard_of_edge(u, v) == owner
        # ... and the registry is exactly the set of straddling edges.
        straddling = {
            (u, v) for u, v in graph.edges()
            if smap.shard_of(u) != smap.shard_of(v)
        }
        assert {(u, v) for u, v, _ in smap.cross_edges} == straddling

    def test_shard_graph_full_node_space(self):
        graph = _disjoint_blocks()
        smap = ShardMap.build(graph, 2, seed=0)
        for shard in range(2):
            sub = smap.shard_graph(shard)
            assert sub.n == graph.n
            assert sub.m == smap.edge_counts()[shard]

    def test_non_edge_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        smap = ShardMap.build(graph, 2, seed=0)
        with pytest.raises(ValueError, match="not a relation edge"):
            smap.shard_of_edge(0, 3)
        with pytest.raises(ValueError, match="out of range"):
            smap.shard_of(99)

    def test_single_shard_owns_everything(self):
        graph = barbell_graph(6, bridge=1)
        smap = ShardMap.build(graph, 1, seed=0)
        assert set(smap.assignment) == {0}
        assert smap.cross_edges == ()
        assert smap.edge_counts() == [graph.m]

    def test_to_dict_truncates_registry_not_count(self):
        graph = barbell_graph(10, bridge=1)
        smap = ShardMap.build(graph, 2, seed=0)
        doc = smap.to_dict(max_cross=1)
        assert doc["cross_edge_count"] == len(smap.cross_edges)
        assert len(doc["cross_edges"]) == 1
        assert doc["cross_edges_truncated"] is True


# ----------------------------------------------------------------------
# Merge semantics
# ----------------------------------------------------------------------


class TestMerge:
    HOME = {"a": 0, "b": 0, "c": 1, "d": 1}

    @staticmethod
    def _payload(clusters, level=2, num_levels=4, t=1.0, applied=5):
        return {
            "level": level,
            "num_levels": num_levels,
            "t": t,
            "applied": applied,
            "clusters": clusters,
        }

    def test_home_filter_partitions_nodes(self):
        # "c" shows up in shard 0's answer (it serves the full node
        # space) but is only reported by its home shard 1.
        merged = merge_clusters(
            {
                0: self._payload([["a", "b", "c"]]),
                1: self._payload([["c", "d"]]),
            },
            self.HOME,
        )
        assert merged["clusters"] == [["a", "b"], ["c", "d"]]
        assert merged["cluster_ids"] == ["s0:0", "s1:0"]
        assert merged["cluster_shards"] == [0, 1]
        assert merged["applied"] == 10
        flat = [v for c in merged["clusters"] for v in c]
        assert sorted(flat) == ["a", "b", "c", "d"]

    def test_min_size_applies_after_home_filter(self):
        merged = merge_clusters(
            {
                0: self._payload([["a", "b", "c", "d"]]),
                1: self._payload([["c"], ["d"]]),
            },
            self.HOME,
            min_size=2,
        )
        # Shard 0's cluster is size 4 raw but only {a, b} are homed;
        # shard 1's singletons fall under the floor after filtering.
        assert merged["clusters"] == [["a", "b"]]

    def test_level_mismatch_raises(self):
        with pytest.raises(ValueError, match="disagree on granularity"):
            merge_clusters(
                {
                    0: self._payload([["a"]], level=1),
                    1: self._payload([["c"]], level=2),
                },
                self.HOME,
            )

    def test_t_is_max_and_cross_edges_ride_along(self):
        merged = merge_clusters(
            {
                0: self._payload([["a"]], t=3.0),
                1: self._payload([["c"]], t=7.0),
            },
            self.HOME,
            cross_edge_count=4,
        )
        assert merged["t"] == 7.0
        assert merged["cross_edges"] == 4

    def test_empty_payloads_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            merge_clusters({}, self.HOME)

    def test_merge_stats(self):
        merged = merge_stats(
            {
                0: {"ingested": 3, "applied": 3, "t": 2.0, "degraded": False},
                1: {"ingested": 5, "applied": 4, "t": 9.0, "degraded": True},
            }
        )
        assert merged["ingested"] == 8
        assert merged["applied"] == 7
        assert merged["t"] == 9.0
        assert merged["degraded"] is True
        assert sorted(merged["shards"]) == ["0", "1"]


# ----------------------------------------------------------------------
# CLI: shardmap planning mode
# ----------------------------------------------------------------------


class TestShardmapCli:
    def test_offline_plan(self, tmp_path):
        graph = _disjoint_blocks(blocks=2, size=8)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        out = io.StringIO()
        code = cli_main(["shardmap", str(path), "--shards", "2"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "2 shards" in text
        assert "cross-shard edges: 0" in text
        assert ShardMap.build(graph, 2, seed=0).digest() in text

    def test_requires_edgelist_or_endpoint(self):
        out = io.StringIO()
        assert cli_main(["shardmap"], out=out) == 2
        assert "edge list or --from" in out.getvalue()


# ----------------------------------------------------------------------
# End to end: 2-shard scatter-gather vs the single-engine oracle
# ----------------------------------------------------------------------


def _normalize(clusters):
    return sorted(sorted(int(v) for v in c) for c in clusters)


class TestScatterGatherOracle:
    @pytest.mark.parametrize("labels", ["names-none", "shuffled-int"])
    def test_two_shard_clusters_match_single_engine(self, tmp_path, labels):
        graph, acts = build_shard_workload(0)
        smap = ShardMap.build(graph, 2, seed=0)
        # The workload is intra-shard by construction: the oracle
        # contract below is only promised when cross_edges == 0.
        assert smap.cross_edges == ()
        # Integer labels in shuffled first-seen order are what the edge
        # reader hands out for a file of ``u v`` integers: label "4" is
        # then some other dense id, so a hop that re-read dense ids as
        # labels would route and answer for the wrong nodes.
        names = None
        if labels == "shuffled-int":
            perm = list(range(graph.n))
            random.Random(7).shuffle(perm)
            names = [str(p) for p in perm]

        def label(v):
            return names[v] if names is not None else v

        oracle = make_engine("ANCO", graph, SHARD_PARAMS)
        for act in acts:
            oracle.process(act)

        deployment = ShardDeployment(
            graph,
            names,
            shards=2,
            seed=0,
            params=SHARD_PARAMS,
            config=ServerConfig(data_dir=str(tmp_path / "shards")),
        )
        single = ServerThread(
            graph,
            names=names,
            config=ServerConfig(metrics_interval=0.0),
            params=SHARD_PARAMS,
        )
        with RouterThread(deployment) as router, single:
            assert router.port is not None and single.port is not None
            client = ServiceClient("127.0.0.1", router.port, timeout=60)
            reference = ServiceClient("127.0.0.1", single.port, timeout=60)
            with client, reference:
                batch = [[label(act.u), label(act.v), act.t] for act in acts]
                accepted = 0
                for i in range(0, len(batch), 40):
                    chunk = batch[i:i + 40]
                    r = client.request("ingest_batch", items=chunk, key=f"oracle-b{i}")
                    assert r["accepted"] == len(chunk)
                    accepted += int(r["accepted"])
                    reference.request("ingest_batch", items=chunk, key=f"oracle-b{i}")
                assert accepted == len(acts)
                assert client.sync() == len(acts)
                assert reference.sync() == len(acts)

                merged = client.request("clusters")
                assert merged["cross_edges"] == 0
                assert merged["applied"] == len(acts)
                expected = oracle.clusters(int(merged["level"]))
                assert _normalize(merged["clusters"]) == _normalize(
                    [[label(v) for v in c] for c in expected]
                )
                assert _normalize(merged["clusters"]) == _normalize(
                    reference.clusters(int(merged["level"]))
                )
                for v in range(graph.n):
                    assert sorted(client.local(label(v))) == sorted(
                        reference.local(label(v))
                    )
                # Every cluster id is namespaced to a live shard.
                assert all(
                    cid.startswith(("s0:", "s1:")) for cid in merged["cluster_ids"]
                )

                # The merged answer partitions the node space exactly once.
                flat = [int(v) for c in merged["clusters"] for v in c]
                assert sorted(flat) == sorted(set(flat))

                stats = client.request("stats")["stats"]
                assert stats["applied"] == len(acts)
                assert sorted(stats["shards"]) == ["0", "1"]

    def test_router_routes_watch_zoom_changes_snapshot(self, tmp_path):
        """The six query/watch ops route through the shard tier.

        These were router 404s before the whole-program linter's
        protocol-conformance rule flagged them: the client emitted them
        and every worker handled them, but the router table had no entry.
        """
        graph, acts = build_shard_workload(0)
        smap = ShardMap.build(graph, 2, seed=0)
        deployment = ShardDeployment(
            graph,
            shards=2,
            seed=0,
            params=SHARD_PARAMS,
            config=ServerConfig(data_dir=str(tmp_path / "shards")),
        )
        with RouterThread(deployment) as router:
            assert router.port is not None
            with ServiceClient("127.0.0.1", router.port, timeout=60) as client:
                batch = [[act.u, act.v, act.t] for act in acts]
                half = len(batch) // 2
                client.request("ingest_batch", items=batch[:half], key="ops-a")
                client.sync()

                node = acts[0].u
                home = smap.shard_of(node)
                watched = client.request("watch", node=node)
                assert watched["shard"] == home
                assert node in {int(v) for v in watched["cluster"]}

                # zoom_* answer from the level range every worker shares
                # (clamped to 1..levels_for(n)).
                deeper = client.request("zoom_in", level=1)["level"]
                assert deeper == 2
                shallower = client.request("zoom_out", level=deeper)["level"]
                assert shallower == 1

                client.request("ingest_batch", items=batch[half:], key="ops-b")
                client.sync()

                changes = client.request("changes")["changes"]
                assert isinstance(changes, list)
                for change in changes:
                    assert {"node", "level", "t", "joined", "left"} <= set(change)
                times = [float(c["t"]) for c in changes]
                assert times == sorted(times)

                assert client.request("unwatch", node=node)["shard"] == home

                snap = client.request("snapshot")
                assert sorted(snap["path"]) == ["0", "1"]
                assert all(isinstance(p, str) for p in snap["path"].values())
                assert snap["applied"] == len(acts)

    def test_single_ingest_is_applied_once_across_a_dropped_forward(self, tmp_path):
        """The router keys a single ``ingest`` like an unkeyed batch, so
        the resend after a forward lost in flight is deduped, not
        applied a second time."""
        graph, _ = build_shard_workload(0)
        u, v = graph.edges()[0]
        deployment = ShardDeployment(
            graph,
            shards=1,
            params=SHARD_PARAMS,
            config=ServerConfig(data_dir=str(tmp_path / "shards")),
        )
        plan = FaultPlan([FaultSpec("router.forward", "drop", at_count=1)])
        with RouterThread(deployment, config=RouterConfig(faults=plan)) as router:
            assert router.port is not None
            with ServiceClient("127.0.0.1", router.port, timeout=60) as client:
                answer = client.request("ingest", u=u, v=v, t=1.0)
                assert (answer["seq"], answer["t"], answer["shard"]) == (0, 1.0, 0)
                assert client.sync() == 1
        assert [f["site"] for f in plan.fired] == ["router.forward"]


# ----------------------------------------------------------------------
# Fleet observability: labeled federation + trace propagation (PR 8)
# ----------------------------------------------------------------------


def _wait_for(cond, *, timeout=20.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.01)


class TestFleetObservability:
    """The distributed-observability contracts of docs/observability.md.

    Driven end to end against real processes: a 2-shard
    :class:`ShardDeployment` (each worker its own OS process) behind an
    in-process router, plus — for the replication lane — a follower
    attached to worker 0's endpoint.
    """

    def _deploy(self, tmp_path):
        graph, acts = build_shard_workload(0)
        deployment = ShardDeployment(
            graph,
            shards=2,
            seed=0,
            params=SHARD_PARAMS,
            config=ServerConfig(data_dir=str(tmp_path / "shards")),
        )
        return graph, acts, deployment

    def _ingest(self, client, acts, *, prefix):
        """Chunked keyed ingest through the router; returns request count."""
        batch = [[act.u, act.v, act.t] for act in acts]
        requests = 0
        for i in range(0, len(batch), 40):
            client.request(
                "ingest_batch", items=batch[i:i + 40], key=f"{prefix}-b{i}"
            )
            requests += 1
        return requests

    def test_two_shard_metrics_never_sums_gauges(self, tmp_path):
        """Regression: the fleet ``metrics`` answer keeps gauges per-source.

        The router used to sum everything it scattered — fine for
        counters, nonsense for gauges (shard 0's queue depth plus shard
        1's is nobody's queue depth).  The federated document must keep
        every gauge as a labeled per-source series and never collapse it
        to one number.
        """
        graph, acts, deployment = self._deploy(tmp_path)
        with RouterThread(deployment) as router:
            assert router.port is not None
            with ServiceClient("127.0.0.1", router.port, timeout=60) as client:
                self._ingest(client, acts, prefix="fed")
                assert client.sync() == len(acts)

                doc = client.request("metrics")
                fed = doc["metrics"]
                assert {"role": "router"} in fed["sources"]
                assert {"role": "worker", "shard": "0"} in fed["sources"]
                assert {"role": "worker", "shard": "1"} in fed["sources"]

                # Every gauge is a {label_str: value} mapping — never a
                # scalar, which is what a summed gauge would look like.
                assert fed["gauges"], "fleet document lost its gauges"
                for name, series in fed["gauges"].items():
                    assert isinstance(series, dict), (name, series)
                per_shard = doc["per_shard"]
                expected_depths = {
                    f'role="worker",shard="{shard}"': float(
                        per_shard[shard]["gauges"]["queue_depth"]
                    )
                    for shard in ("0", "1")
                }
                assert fed["gauges"]["queue_depth"] == expected_depths

                # Counters *are* summed: events are events.
                assert fed["counters"]["activations_ingested"] == len(acts)

                # The merged stats doc agrees: fleet queue depth is the
                # max, with the per-shard breakdown alongside.
                stats = client.request("stats")["stats"]
                depths = stats["queue_depth_per_shard"]
                assert sorted(depths) == ["0", "1"]
                assert stats["queue_depth"] == max(depths.values())

                # And the scrape endpoint renders the same series
                # labeled, one TYPE block per metric, no bare sample.
                text = client.request("metrics_text")["text"]
                assert 'anc_queue_depth{role="worker",shard="0"}' in text
                assert 'anc_queue_depth{role="worker",shard="1"}' in text
                assert text.count("# TYPE anc_queue_depth gauge") == 1
                assert "\nanc_queue_depth " not in text

    def test_traced_round_trip_spans_three_processes(self, tmp_path):
        """One traced ingest+clusters round-trip → one connected tree.

        Client and router share this test's pid; the two workers are
        spawned processes — a sampled ``clusters`` scatter therefore
        spans three distinct pids, rooted at the client span.  Sampling
        at 0.5 is asserted deterministic (requests 2, 4, 6, ...), and a
        follower attached to worker 0 contributes the replication lane
        as its own connected two-process trace.
        """
        graph, acts, deployment = self._deploy(tmp_path)
        with RouterThread(deployment) as router:
            assert router.port is not None
            with ServiceClient(
                "127.0.0.1", router.port, timeout=60, trace_sample=0.5
            ) as client:
                requests = self._ingest(client, acts, prefix="trace")
                assert client.sync() == len(acts)
                requests += 1
                if (requests + 1) % 2:
                    # Burn one request so the clusters call below lands
                    # on an even sequence number — i.e. is sampled.
                    client.request("stats")
                    requests += 1
                merged = client.request("clusters")
                requests += 1
                assert merged["applied"] == len(acts)

                # Deterministic sampling: trace ids are "<session>:<seq
                # hex>" and exactly the even-numbered requests sampled.
                client_spans = client.trace_spans()
                seqs = sorted(
                    int(str(span["trace"]).rsplit(":", 1)[1], 16)
                    for span in client_spans
                )
                assert seqs == list(range(2, requests + 1, 2))

                # Assemble the fleet trace: router + workers off the
                # wire, plus this client's own lane.
                processes = list(client.trace_fetch()["processes"])
                assert [p["process"] for p in processes] == [
                    "router",
                    "shard-0",
                    "shard-1",
                ]
                processes.append(
                    {
                        "pid": os.getpid(),
                        "process": "client",
                        "spans": client_spans,
                    }
                )
                summary = fleet_trace_summary(processes)

                clusters_tid = next(
                    str(span["trace"])
                    for span in client_spans
                    if span["name"] == "client.clusters"
                )
                info = summary[clusters_tid]
                assert info["connected"] is True
                assert info["roots"] == ["client.clusters"]
                assert len(info["pids"]) >= 3

                # A sampled ingest chunk made it through the router to
                # at least one worker process, likewise connected.
                ingest_tid = next(
                    str(span["trace"])
                    for span in client_spans
                    if span["name"] == "client.ingest_batch"
                )
                assert summary[ingest_tid]["connected"] is True
                assert len(summary[ingest_tid]["pids"]) >= 2

                # The Chrome export of just this trace keeps the pid
                # lanes and draws at least one flow arrow per hop.
                doc = fleet_chrome_trace(processes, trace_id=clusters_tid)
                slice_pids = {
                    ev["pid"] for ev in doc["traceEvents"] if ev["ph"] == "X"
                }
                assert slice_pids == set(info["pids"])
                assert sum(
                    1 for ev in doc["traceEvents"] if ev["ph"] == "s"
                ) >= 2

            # -- the replication lane: follower → worker 0 ------------
            host, port = deployment.endpoints()[0]
            follower_graph = Graph(
                graph.n, list(deployment.shard_map.shard_edges[0])
            )
            config = ServerConfig(
                port=0,
                engine="anco",
                metrics_interval=0.0,
                role="follower",
                primary_host=host,
                primary_port=port,
                replica_id="trace-follower",
                audit_interval=0.05,
            )
            with ServerThread(
                follower_graph, config=config, params=SHARD_PARAMS
            ) as handle:
                # Enabling the *follower's* tracer arms its wal_fetch
                # trace minting (sample defaults to 1.0: every fetch).
                handle.server.tracer.enable()
                with ServiceClient("127.0.0.1", port, timeout=60) as primary:
                    target = int(primary.stats()["ingested"])
                    assert target > 0
                    _wait_for(
                        lambda: handle.server.host.ingested >= target
                        and any(
                            span.name == "replica.wal_fetch"
                            for span in handle.server.tracer.spans()
                        ),
                        what="follower catch-up with a traced fetch",
                    )
                    worker_doc = primary.trace_fetch()
                    with ServiceClient(
                        "127.0.0.1", handle.port, timeout=60
                    ) as follower:
                        follower_doc = follower.trace_fetch()
                lanes = [
                    {
                        "pid": doc["pid"],
                        "process": doc["process"],
                        "spans": doc["spans"],
                    }
                    for doc in (worker_doc, follower_doc)
                ]
                wal = {
                    tid: info
                    for tid, info in fleet_trace_summary(lanes).items()
                    if tid.startswith("trace-follower:wal:")
                }
                assert wal, "no traced wal_fetch reached the primary"
                assert any(
                    info["connected"]
                    and info["roots"] == ["replica.wal_fetch"]
                    and len(info["pids"]) == 2
                    for info in wal.values()
                ), wal
