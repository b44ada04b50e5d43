"""Horizontal scale-out: partitioned engine workers behind one router.

The single-process service (:mod:`repro.service`) funnels every update
through one writer thread under one GIL.  This package multiplies that
stack instead of replacing it:

* :mod:`~repro.shard.shardmap` — deterministic partition of the
  relation graph across N shards (connected-component packing with a
  seeded-hash fallback) plus the cross-shard edge registry;
* :mod:`~repro.shard.worker` — one full ``ANCServer`` stack per shard
  in its own OS process (own WAL, checkpoints, and — if configured —
  replica chain), supervised with crash-respawn on the same data dir;
* :mod:`~repro.shard.router` — the asyncio scatter-gather front tier
  speaking the same TCP/JSON-lines protocol as a single server, so
  existing clients work unchanged;
* :mod:`~repro.shard.merge` — pure merge semantics for scattered
  answers (home-shard filtering, cluster-id namespacing);
* :mod:`~repro.shard.admin` — operator introspection (the
  ``repro-anc shardmap`` command).

Start a sharded deployment from the command line with
``repro-anc shard-serve --shards N``; see ``docs/sharding.md`` for the
topology, cross-shard edge semantics, and failure handling.
"""

from .admin import format_shard_doc, format_shardmap, shard_status
from .merge import merge_clusters, merge_stats, namespaced_id
from .router import RouterConfig, ShardRouter
from .shardmap import CrossEdge, ShardMap
from .worker import ShardDeployment, ShardWorker, WorkerSpec, worker_main

__all__ = [
    "ShardMap",
    "CrossEdge",
    "ShardDeployment",
    "ShardWorker",
    "WorkerSpec",
    "worker_main",
    "ShardRouter",
    "RouterConfig",
    "merge_clusters",
    "merge_stats",
    "namespaced_id",
    "shard_status",
    "format_shard_doc",
    "format_shardmap",
]
