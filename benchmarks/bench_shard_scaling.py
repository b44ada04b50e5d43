"""Shard scaling — aggregate ingest throughput at 1, 2 and 4 shards.

Drives the same activation stream through real ``repro.shard``
deployments (spawned worker processes, live TCP) at increasing shard
counts and records how ingest time scales.  The results land in
``bench_results/shard_scaling.json``.

**Methodology / honesty note.**  This container pins the whole suite to
a small number of CPU cores (often one), so N worker processes cannot
physically run N× faster *here*.  What sharding buys is that each
worker only has to chew through its own sub-stream — so the number a
multi-core deployment delivers is the **critical path**: the wall-clock
of the slowest shard, with every other shard finishing in parallel
under it.  Each shard's sub-stream is therefore driven and timed
*separately* (serially, so the shards never compete for this box's
cores), and the headline ``speedup_vs_1shard`` compares the 1-shard
ingest time against ``max_i(t_shard_i)``.  The measured serial
wall-clock (``total_ingest_s``, what this box actually spent) is
recorded right next to it.  The workload is built so every activation
is intra-shard (``cross_edges == 0``); routing overhead is measured
separately through the router path and reported, not hidden.

Qualitative claims asserted:

* the shard map splits the workload evenly enough that the critical
  path shrinks ≥ 2.5× from 1 to 4 shards;
* every acknowledged activation is applied on its shard (sync barrier);
* scatter-gather answers over the sharded ingest match the 1-shard
  deployment's cluster signature (same merged clustering).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from repro.bench.reporting import format_table, save_result
from repro.core.activation import Activation
from repro.faults.chaos import SHARD_PARAMS, build_shard_workload
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig
from repro.shard import ShardDeployment, ShardMap

SHARD_COUNTS = (1, 2, 4)
#: One packable block per shard at the widest deployment.
BLOCKS = 4
NODES_PER_BLOCK = 24
TIMESTAMPS = 300
CHUNK = 100
#: Tight micro-batch flush bound so the timer floor (default 50 ms per
#: lull) does not swamp the small per-shard streams.
MAX_LATENCY = 0.005


def _cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _normalize(clusters: List[List[object]]) -> List[List[int]]:
    return sorted(sorted(int(v) for v in c) for c in clusters)


def _drive_shard(
    host: str, port: int, acts: List[Activation], key_prefix: str
) -> Dict[str, float]:
    """Ingest one shard's sub-stream over TCP; return timing facts."""
    items = [[a.u, a.v, a.t] for a in acts]
    with ServiceClient(host, port, timeout=120) as client:
        started = time.perf_counter()
        for i in range(0, len(items), CHUNK):
            client.ingest_batch(items[i : i + CHUNK], key=f"{key_prefix}-b{i}")
        applied = client.sync()
        elapsed = time.perf_counter() - started
    assert applied == len(items), (applied, len(items))
    return {"acts": float(len(items)), "ingest_s": elapsed}


def test_shard_scaling(tmp_path):
    graph, acts = build_shard_workload(
        0, blocks=BLOCKS, nodes_per_block=NODES_PER_BLOCK, timestamps=TIMESTAMPS
    )
    rows = []
    results: Dict[int, Dict[str, object]] = {}
    signatures: Dict[int, List[List[int]]] = {}

    for shards in SHARD_COUNTS:
        smap = ShardMap.build(graph, shards, seed=0)
        assert smap.cross_edges == (), "workload must stay intra-shard"
        shard_acts: Dict[int, List[Activation]] = {s: [] for s in range(shards)}
        for act in acts:
            shard_acts[smap.shard_of_edge(act.u, act.v)].append(act)

        deployment = ShardDeployment(
            graph,
            shards=shards,
            seed=0,
            params=SHARD_PARAMS,
            config=ServerConfig(
                data_dir=str(tmp_path / f"{shards}shard"), max_latency=MAX_LATENCY
            ),
        )
        with deployment:
            endpoints = deployment.endpoints()
            per_shard = {
                s: _drive_shard(
                    *endpoints[s], shard_acts[s], key_prefix=f"n{shards}-s{s}"
                )
                for s in range(shards)
            }
            # The merged answer (via the per-worker clusters + the pure
            # merge) pins cross-deployment agreement without standing up
            # a router per cell.
            from repro.shard import merge_clusters

            payloads = {}
            for s in range(shards):
                with ServiceClient(*endpoints[s], timeout=120) as client:
                    payloads[s] = client.request("clusters", min_size=1)
            home = {
                str(label): smap.shard_of(v)
                for v, label in enumerate(range(graph.n))
            }
            merged = merge_clusters(payloads, home)
            signatures[shards] = _normalize(merged["clusters"])

        times = [per_shard[s]["ingest_s"] for s in range(shards)]
        critical_path = max(times)
        results[shards] = {
            "per_shard_ingest_s": times,
            "per_shard_acts": [per_shard[s]["acts"] for s in range(shards)],
            "critical_path_s": critical_path,
            "total_ingest_s": sum(times),
            "aggregate_ingest_per_s": len(acts) / critical_path,
        }
        rows.append(
            {
                "shards": shards,
                "acts": len(acts),
                "critical_path_s": critical_path,
                "serial_total_s": sum(times),
                "agg_ingest_per_s": len(acts) / critical_path,
            }
        )

    t1 = float(results[1]["critical_path_s"])
    for shards in SHARD_COUNTS:
        results[shards]["speedup_vs_1shard"] = t1 / float(
            results[shards]["critical_path_s"]
        )
    for row in rows:
        row["speedup"] = float(results[row["shards"]]["speedup_vs_1shard"])

    print()
    print(
        format_table(
            rows,
            title=f"Shard scaling ({graph.n}-node graph, {len(acts)} activations)",
            float_fmt="{:.3f}",
        )
    )

    # Identical merged clustering at every shard count — scatter-gather
    # is exact on an intra-shard stream regardless of the partition.
    assert signatures[2] == signatures[1]
    assert signatures[4] == signatures[1]

    speedup4 = float(results[4]["speedup_vs_1shard"])
    assert speedup4 >= 2.5, (
        f"4-shard critical path shrank only {speedup4:.2f}x vs 1 shard"
    )

    save_result(
        "shard_scaling",
        {
            "graph": {"n": graph.n, "m": graph.m},
            "activations": len(acts),
            "shard_counts": list(SHARD_COUNTS),
            "results": {str(s): results[s] for s in SHARD_COUNTS},
            "speedup_vs_1shard_at_4": speedup4,
            "cpu_cores": _cpu_cores(),
            "methodology": (
                "per-shard sub-streams driven serially over live TCP against "
                "spawned worker processes; headline speedup is the critical "
                "path (1-shard ingest time / slowest shard's ingest time), "
                "i.e. the aggregate an N-core deployment sustains. "
                "total_ingest_s is the serial wall-clock this "
                f"{_cpu_cores()}-core box actually spent."
            ),
        },
    )


def test_router_overhead(tmp_path):
    """Router-path ingest vs direct-to-worker ingest at 2 shards."""
    from repro.faults.chaos import RouterThread

    graph, acts = build_shard_workload(
        0, blocks=2, nodes_per_block=NODES_PER_BLOCK, timestamps=TIMESTAMPS
    )
    items = [[a.u, a.v, a.t] for a in acts]
    deployment = ShardDeployment(
        graph,
        shards=2,
        seed=0,
        params=SHARD_PARAMS,
        config=ServerConfig(data_dir=str(tmp_path / "routed"), max_latency=MAX_LATENCY),
    )
    with RouterThread(deployment) as router:
        assert router.port is not None
        with ServiceClient("127.0.0.1", router.port, timeout=120) as client:
            started = time.perf_counter()
            for i in range(0, len(items), CHUNK):
                client.request(
                    "ingest_batch", items=items[i : i + CHUNK], key=f"rt-b{i}"
                )
            applied = client.sync()
            routed_s = time.perf_counter() - started
    assert applied == len(items)

    smap = ShardMap.build(graph, 2, seed=0)
    shard_acts: Dict[int, List[Activation]] = {0: [], 1: []}
    for act in acts:
        shard_acts[smap.shard_of_edge(act.u, act.v)].append(act)
    deployment = ShardDeployment(
        graph,
        shards=2,
        seed=0,
        params=SHARD_PARAMS,
        config=ServerConfig(data_dir=str(tmp_path / "direct"), max_latency=MAX_LATENCY),
    )
    with deployment:
        endpoints = deployment.endpoints()
        direct_s = sum(
            _drive_shard(*endpoints[s], shard_acts[s], key_prefix=f"d-s{s}")[
                "ingest_s"
            ]
            for s in range(2)
        )

    row = {
        "acts": len(items),
        "routed_s": routed_s,
        "direct_serial_s": direct_s,
        "overhead_x": routed_s / direct_s if direct_s > 0 else float("inf"),
    }
    print()
    print(format_table([row], title="Router overhead (2 shards)", float_fmt="{:.3f}"))
    save_result("shard_router_overhead", row)
