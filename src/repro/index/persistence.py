"""Index persistence: save and load a pyramid index.

A production deployment builds the index once (Lemma 7 cost) and then
maintains it incrementally forever; losing it to a process restart would
mean paying the build again.  This module serializes a
:class:`PyramidIndex` — seeds, per-partition ``dist``/``seed``/``parent``
arrays, the weight table and its scale, and the construction
parameters — to a compact JSON document, and restores it without
re-running a single Dijkstra.

The graph itself is *not* stored (the index is meaningless without the
exact relation network anyway, and the paper's Fig 6 accounting also
excludes it); the loader verifies the supplied graph matches the stored
fingerprint (n, m, and an order-independent edge checksum).
"""

from __future__ import annotations

import json
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from ..graph.graph import Graph
from ..graph.traversal import INF
from .pyramid import Pyramid, PyramidIndex
from .voronoi import VoronoiPartition, child_sets

if TYPE_CHECKING:  # hook-only dependency; repro.faults never imports us back
    from ..core.arrays import EdgeSpace
    from ..faults.plan import FaultPlan

__all__ = [
    "FORMAT_VERSION",
    "graph_fingerprint",
    "load_index",
    "load_index_resume",
    "save_index",
]

PathLike = Union[str, Path]

FORMAT_VERSION = 2


def graph_fingerprint(graph: Graph) -> Dict[str, int]:
    """Cheap, order-independent identity of the relation network."""
    checksum = 0
    for u, v in graph.edges():
        checksum ^= zlib.crc32(f"{u},{v}".encode())
    return {"n": graph.n, "m": graph.m, "edge_checksum": checksum}


def _encode_dist(dist: List[float]) -> List[object]:
    return [None if d == INF else d for d in dist]


def _decode_dist(raw: List[object]) -> List[float]:
    return [INF if d is None else float(d) for d in raw]


def save_index(
    index: PyramidIndex,
    path: PathLike,
    *,
    faults: "Optional[FaultPlan]" = None,
    resume: Optional[Mapping[str, int]] = None,
) -> None:
    """Write the index to ``path`` as JSON.

    ``resume`` is opaque recovery metadata (``{"seq": ..., "epoch": ...}``
    from the checkpoint writer) stored alongside the structural payload
    so a loader learns its WAL resume point without re-scanning the log;
    :func:`load_index_resume` hands it back.

    ``faults`` is the :mod:`repro.faults` hook (site ``index.save``);
    ``None`` — the default everywhere outside the chaos harness — costs
    a single comparison.
    """
    doc: Dict[str, object] = {
        "format": FORMAT_VERSION,
        "graph": graph_fingerprint(index.graph),
        "k": index.k,
        "support": index.support,
        "weights": [[u, v, w] for (u, v), w in index._weights.items()],
        "scale": index._scale,
        "pyramids": [
            {
                str(level): {
                    "seeds": list(partition.seeds),
                    "dist": _encode_dist(partition.dist),
                    "seed": partition.seed,
                    "parent": partition.parent,
                }
                for level, partition in pyramid.levels.items()
            }
            for pyramid in index.pyramids
        ],
    }
    if resume is not None:
        doc["resume"] = {key: int(value) for key, value in resume.items()}
    payload = json.dumps(doc)
    if faults is not None:
        action = faults.hit("index.save", path=str(path))
        if action is not None and action.kind == "truncate":
            from ..faults.plan import InjectedCrash

            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload[: len(payload) // 2])
            raise InjectedCrash(
                "index.save", action.kind, f"crashed mid-write of {path}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def load_index(
    graph: Graph, path: PathLike, *, faults: "Optional[FaultPlan]" = None
) -> PyramidIndex:
    """Restore an index previously written by :func:`save_index`.

    ``graph`` must be the same relation network the index was built on
    (verified by fingerprint).  No shortest-path computation is run; the
    restored partitions are validated structurally instead.

    ``faults`` is the :mod:`repro.faults` hook (site ``index.load``, the
    slow/stalled snapshot reader); ``None`` costs a single comparison.
    """
    index, _ = load_index_resume(graph, path, faults=faults)
    return index


def load_index_resume(
    graph: Graph,
    path: PathLike,
    *,
    faults: "Optional[FaultPlan]" = None,
    space: "Optional[EdgeSpace]" = None,
) -> Tuple[PyramidIndex, Dict[str, int]]:
    """:func:`load_index` plus the stored resume metadata.

    Returns ``(index, resume)`` where ``resume`` is the mapping passed to
    :func:`save_index` (``{}`` for documents written before it existed).
    Recovery callers — server restart and follower bootstrap both go
    through ``repro.service.snapshots.recover_to`` — read their WAL
    resume seq and epoch from here instead of re-scanning the log.

    ``space`` selects the index class: an
    :class:`~repro.core.arrays.EdgeSpace` (the restoring metric's
    interning table; engine restores always pass one) restores an
    :class:`~repro.index.array_index.ArrayPyramidIndex` bound to it,
    ``None`` the plain dict-backed :class:`PyramidIndex`.  The on-disk
    document is identical either way.
    """
    if faults is not None:
        action = faults.hit("index.load", path=str(path))
        if action is not None and action.kind == "delay":
            time.sleep(action.seconds())
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path} is not an index document (expected a JSON object, "
            f"got {type(doc).__name__})"
        )
    version = doc.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format version {version!r} in {path}; this "
            f"build reads version {FORMAT_VERSION}.  Re-save the index with "
            f"save_index() from the build that wrote it, or rebuild from the "
            f"graph."
        )
    if doc["graph"] != graph_fingerprint(graph):
        raise ValueError(
            "graph does not match the one the index was built on "
            f"(stored {doc['graph']}, supplied {graph_fingerprint(graph)})"
        )
    weights = {(int(u), int(v)): float(w) for u, v, w in doc["weights"]}
    if space is not None:
        from .array_index import ArrayPyramidIndex

        index: PyramidIndex = ArrayPyramidIndex.__new__(ArrayPyramidIndex)
    else:
        index = PyramidIndex.__new__(PyramidIndex)
    index.graph = graph
    index.k = int(doc["k"])
    index.support = float(doc["support"])
    index._weights = weights
    index._weight_fn = index._make_weight_fn()
    index._init_counters()
    index._scale = float(doc["scale"])
    index.pyramids = []
    for pyramid_doc in doc["pyramids"]:
        pyramid = Pyramid.__new__(Pyramid)
        pyramid.graph = graph
        pyramid.levels = {}
        for level_str, part_doc in pyramid_doc.items():
            partition = VoronoiPartition.__new__(VoronoiPartition)
            partition.graph = graph
            partition.weight = index._weight_fn
            partition.seeds = tuple(part_doc["seeds"])
            partition.dist = _decode_dist(part_doc["dist"])
            partition.seed = [int(s) for s in part_doc["seed"]]
            partition.parent = [int(p) for p in part_doc["parent"]]
            partition.last_touched = 0
            partition._children = child_sets(partition.parent)
            pyramid.levels[int(level_str)] = partition
        index.pyramids.append(pyramid)
    if space is not None:
        from .array_index import ArrayPyramidIndex

        assert isinstance(index, ArrayPyramidIndex)
        index._bind_space(space)
    index.check_consistency()
    raw_resume = doc.get("resume", {})
    resume = {str(key): int(value) for key, value in raw_resume.items()}
    return index, resume
