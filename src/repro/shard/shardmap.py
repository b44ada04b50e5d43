"""Deterministic partitioning of the relation graph across N shards.

The unit of placement is the *connected component*: activations only
ever touch one edge, clusters only ever grow along edges, so a
component that fits on one shard makes every activation — and every
cluster — shard-local.  :meth:`ShardMap.build` packs components onto
shards largest-first (LPT greedy onto the least-loaded shard), which
keeps shard sizes within one component of balanced.  A component too
large to balance (bigger than an even ``n / shards`` split) falls back
to a seeded-hash assignment of its individual nodes — placement stays
deterministic, but some of its edges now span shards.

Every such **cross-shard edge** is recorded in the map's registry with
a deterministically chosen *owner* shard (a seeded hash picks between
the two endpoint shards, so ownership spreads evenly).  Activations on
a cross edge are routed to the owner; queries report the registry so
callers can see which cluster boundaries are partition artifacts
(docs/sharding.md).

Each shard's worker serves the **full node space** with only its owned
edges (:meth:`ShardMap.shard_graph`).  That costs O(n) per shard in
node arrays but buys the property the oracle tests pin down: the
pyramid level count and seed sampling depend only on ``(n, seed)``, so
a shard engine's clusters over its own nodes are byte-identical to a
single-engine deployment's — scatter-gather merge is then exact on any
stream whose edges stay intra-shard.

Determinism is load-bearing: the router, every worker, the chaos
harness and the admin CLI each rebuild the map independently from
``(graph, shards, seed)`` and must agree.  All tie-breaking is by node
id and the hash is :func:`zlib.crc32` (stable across processes and
platforms, unlike ``hash()``).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Edge, Graph, edge_key
from ..graph.traversal import connected_components

__all__ = ["CrossEdge", "ShardMap"]

#: ``(u, v, owner_shard)`` — one registered cross-shard edge.
CrossEdge = Tuple[int, int, int]


def _stable_hash(seed: int, *parts: object) -> int:
    """A process-stable non-negative hash of ``(seed, *parts)``."""
    text = ":".join([str(seed), *(str(p) for p in parts)])
    return zlib.crc32(text.encode())


@dataclass(frozen=True)
class ShardMap:
    """A deterministic node→shard and edge→shard assignment.

    Build with :meth:`build`; the constructor is for deserialization
    and tests.  Equality compares the full assignment (two maps built
    from the same ``(graph, shards, seed)`` are ``==`` and share a
    :meth:`digest`).
    """

    n: int
    shards: int
    seed: int
    #: ``assignment[v]`` is node ``v``'s home shard.
    assignment: Tuple[int, ...]
    #: Edges owned by each shard, in relation-graph insertion order.
    shard_edges: Tuple[Tuple[Edge, ...], ...]
    #: Registry of edges whose endpoints live on different shards.
    cross_edges: Tuple[CrossEdge, ...]
    _edge_owner: Dict[Edge, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if len(self.assignment) != self.n:
            raise ValueError(
                f"assignment covers {len(self.assignment)} nodes, n={self.n}"
            )
        owner: Dict[Edge, int] = {}
        for shard, edges in enumerate(self.shard_edges):
            for edge in edges:
                owner[edge] = shard
        self._edge_owner.update(owner)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, shards: int, *, seed: int = 0) -> "ShardMap":
        """Partition ``graph`` across ``shards`` deterministically.

        Components are packed whole (largest first, onto the least
        loaded shard); a component larger than an even split is
        hash-scattered node by node, producing cross-shard edges.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        n = graph.n
        assignment = [0] * n
        if shards > 1 and n > 0:
            components = connected_components(graph)
            limit = -(-n // shards)  # ceil: an even split's share
            packable: List[List[int]] = []
            oversized: List[List[int]] = []
            for comp in components:
                (oversized if len(comp) > limit else packable).append(comp)
            # LPT greedy: largest component first, ties by min node id.
            packable.sort(key=lambda c: (-len(c), c[0]))
            loads = [0] * shards
            for comp in packable:
                target = min(range(shards), key=lambda s: (loads[s], s))
                for v in comp:
                    assignment[v] = target
                loads[target] += len(comp)
            for comp in oversized:
                for v in comp:
                    target = _stable_hash(seed, "n", v) % shards
                    assignment[v] = target
                    loads[target] += 1

        shard_edges: List[List[Edge]] = [[] for _ in range(shards)]
        cross: List[CrossEdge] = []
        for u, v in graph.edges():
            su, sv = assignment[u], assignment[v]
            if su == sv:
                shard_edges[su].append((u, v))
            else:
                a, b = (su, sv) if su < sv else (sv, su)
                owner = a if _stable_hash(seed, "e", u, v) % 2 == 0 else b
                shard_edges[owner].append((u, v))
                cross.append((u, v, owner))
        return cls(
            n=n,
            shards=shards,
            seed=seed,
            assignment=tuple(assignment),
            shard_edges=tuple(tuple(edges) for edges in shard_edges),
            cross_edges=tuple(cross),
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, v: int) -> int:
        """The home shard of node ``v``."""
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range for n={self.n}")
        return self.assignment[v]

    def shard_of_edge(self, u: int, v: int) -> int:
        """The shard that owns (and ingests activations on) edge ``{u, v}``."""
        owner = self._edge_owner.get(edge_key(u, v))
        if owner is None:
            raise ValueError(f"({u}, {v}) is not a relation edge")
        return owner

    def shard_graph(self, shard: int) -> Graph:
        """Shard ``shard``'s serving graph: all ``n`` nodes, its edges only.

        The full node space keeps pyramid geometry identical across
        shards and to a single-engine deployment (module docstring).
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} out of range for {self.shards}")
        return Graph(self.n, self.shard_edges[shard])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node_counts(self) -> List[int]:
        """Nodes homed per shard."""
        counts = [0] * self.shards
        for s in self.assignment:
            counts[s] += 1
        return counts

    def edge_counts(self) -> List[int]:
        """Edges owned per shard (cross edges count for their owner)."""
        return [len(edges) for edges in self.shard_edges]

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the assignment.

        Same ``(graph, shards, seed)`` ⇒ same digest in every process;
        the admin op exposes it so operators can verify that the router
        and all workers agree on the topology.
        """
        doc = json.dumps(
            {
                "n": self.n,
                "shards": self.shards,
                "seed": self.seed,
                "assignment": list(self.assignment),
                "cross": [list(e) for e in self.cross_edges],
            },
            sort_keys=True,
        )
        return hashlib.sha256(doc.encode()).hexdigest()

    def to_dict(self, *, max_cross: Optional[int] = 200) -> Dict[str, object]:
        """JSON-able summary for the ``shard_map`` admin op.

        The cross-edge registry is truncated to ``max_cross`` entries
        (``cross_edge_count`` always carries the true total).
        """
        cross = list(self.cross_edges)
        truncated = max_cross is not None and len(cross) > max_cross
        if truncated:
            assert max_cross is not None
            cross = cross[:max_cross]
        return {
            "n": self.n,
            "shards": self.shards,
            "seed": self.seed,
            "digest": self.digest(),
            "nodes_per_shard": self.node_counts(),
            "edges_per_shard": self.edge_counts(),
            "cross_edge_count": len(self.cross_edges),
            "cross_edges": [list(e) for e in cross],
            "cross_edges_truncated": truncated,
        }
