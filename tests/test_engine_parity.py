"""Differential parity harness: the array engine vs the dict reference.

Every engine :func:`~repro.core.anc.make_engine` builds runs on the
structure-of-arrays stores (``repro.core.arrays`` +
``repro.index.array_index``), which promise to be *bit-for-bit*
interchangeable with the dict-of-dicts reference that
:func:`~repro.core.anc.reference_engine` builds — not approximately
equal, byte-identical: ``engine_signature`` reprs every float, the
chaos matrix and the replication auditor compare exact digests, and
either engine's checkpoint must restore.  This suite drives both
engines through identical workloads and asserts exactly that:

* **property-based stream parity** (hypothesis, ``derandomize=True`` so
  CI and local runs explore the identical pinned example set): random
  planted-partition graphs, random activation streams with shared-tick
  events, random rescale periods — identical signatures and audit
  digests, identical cluster maps at *every* pyramid granularity, identical checkpoint
  documents;
* **interleaved zooms**: query traffic (clusters / cluster_of /
  zoom_in / zoom_out) interleaved mid-stream answers identically and
  perturbs nothing;
* **rescale boundaries**: streams that land exactly on the batched
  decay-rescale tick (including ``rescale_every=1``, a rescale per
  activation);
* **kill/recover points**: checkpoint + WAL tail written by either
  engine, recovered into the array engine, matching the never-killed
  oracle;
* **engine variants and subsystem paths**: ANCOR's periodic sweep,
  ANCF's refresh, dynamic edge insertion, the replica follower's
  WAL-record apply, and the per-shard worker slices of ``repro.shard``;
* **the vote kernel**: ``voted_adjacency``'s numpy count equals the
  per-edge ``same_cluster_vote`` loop at every level, on both index
  classes, across dynamic edge insertion and seedless nodes;
* **the live votes**: every parity check point also compares
  ``engine.clusters`` (served from each level's live voted subgraph)
  with the one-shot ``power_clustering`` oracle at every level, and
  ``signature_digest`` with the numpy packing it replaced.

The dict reference stays the permanent oracle
(``docs/engine-internals.md``); the fault-injection half of the
differential story lives in ``tests/chaos``, where every engine under
test is the array engine and every oracle the reference.
"""

from __future__ import annotations

import hashlib
import json
import struct
import tempfile
from pathlib import Path
from typing import List, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.activation import Activation  # noqa: E402
from repro.core.anc import ANCParams, make_engine, reference_engine  # noqa: E402
from repro.graph.generators import planted_partition  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.index.clustering import (  # noqa: E402
    ClusterQueryEngine,
    even_clustering,
    power_clustering,
)
from repro.index.dynamic import add_relation_edge  # noqa: E402
from repro.index.voting import voted_adjacency, voted_edges  # noqa: E402
from repro.service.snapshots import (  # noqa: E402
    CheckpointStore,
    WriteAheadLog,
    apply_activations,
    dump_engine_state,
    engine_signature,
    recover_to,
    signature_digest,
)
from repro.shard.shardmap import ShardMap  # noqa: E402

PINNED = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The dict reference first, the array engine second.
BUILDERS = (reference_engine, make_engine)


def _params(**overrides: object) -> ANCParams:
    base = dict(rep=2, k=2, seed=0, rescale_every=16, eps=0.3, mu=2)
    base.update(overrides)
    return ANCParams(**base)  # type: ignore[arg-type]


def _pair(name: str, graph: Graph, **overrides: object):
    return tuple(build(name, graph, _params(**overrides)) for build in BUILDERS)


def _checkpoint_doc(engine) -> str:
    return json.dumps(dump_engine_state(engine), sort_keys=True)


def numpy_signature_digest(engine) -> str:
    """``signature_digest`` as numpy packed it: the bytes it must keep.

    Followers audit a primary by comparing digests, so a fleet that
    mixes versions stays equal only while the byte layout is unchanged.
    """
    import numpy as np

    metric = engine.metric
    items = list(metric.similarity.items_anchored())
    ends = np.array([x for edge, _ in items for x in edge], dtype="<i8").reshape(-1, 2)
    values = np.array([value for _, value in items], dtype="<f8")
    by_edge = np.lexsort((ends[:, 1], ends[:, 0]))
    digest = hashlib.sha256(
        struct.pack(
            "<qqdd",
            engine.activations_processed,
            len(items),
            engine.now,
            metric.clock.anchor,
        )
    )
    digest.update(ends[by_edge].tobytes())
    digest.update(values[by_edge].tobytes())
    for pyramid in engine.index.pyramids:
        for level in sorted(pyramid.levels):
            digest.update(np.array(pyramid.levels[level].seed, dtype="<i8").tobytes())
    return digest.hexdigest()


def assert_live_matches_oracle(engine) -> None:
    """The live clusters equal the one-shot extraction at every level,
    and the digest equals its numpy packing."""
    for level in range(1, engine.queries.num_levels + 1):
        assert engine.clusters(level) == power_clustering(engine.index, level), level
    assert signature_digest(engine) == numpy_signature_digest(engine)


def assert_parity(engine_d, engine_a) -> None:
    """The full oracle: signature, every granularity, checkpoint bytes,
    and each engine's live clusters and digest against their oracles."""
    assert engine_signature(engine_d) == engine_signature(engine_a)
    for level in range(1, engine_d.queries.num_levels + 1):
        assert engine_d.clusters(level) == engine_a.clusters(level), level
    for engine in (engine_d, engine_a):
        assert_live_matches_oracle(engine)
    assert _checkpoint_doc(engine_d) == _checkpoint_doc(engine_a)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def workload(draw, max_events: int = 50):
    """A small planted-partition graph plus a time-ordered stream.

    Time deltas of exactly 0.0 are drawn often, so most examples contain
    multi-activation ticks (the shared-timestamp decay algebra), and the
    rescale period is drawn down to 1 so batched-rescale boundaries land
    inside most streams.
    """
    graph_seed = draw(st.integers(min_value=0, max_value=50))
    graph, _labels = planted_partition(
        24, 3, p_in=0.5, p_out=0.1, seed=graph_seed
    )
    edges = list(graph.edges())
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(edges) - 1),
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
            ),
            min_size=8,
            max_size=max_events,
        )
    )
    acts: List[Activation] = []
    t = 0.0
    for edge_idx, delta in events:
        t += delta
        u, v = edges[edge_idx]
        acts.append(Activation(u, v, t))
    rescale_every = draw(st.sampled_from([1, 2, 3, 7, 16, 64]))
    return graph, acts, rescale_every


# ----------------------------------------------------------------------
# Property-based stream parity
# ----------------------------------------------------------------------

@PINNED
@given(workload())
def test_random_stream_parity(wl):
    """Arbitrary pinned streams: signatures, all levels, checkpoint doc —
    checked at three cuts, so the live votes refresh between checks."""
    graph, acts, rescale_every = wl
    engine_d, engine_a = _pair("anco", graph, rescale_every=rescale_every)
    third = len(acts) // 3
    for piece in (acts[:third], acts[third:2 * third], acts[2 * third:]):
        apply_activations(engine_d, piece)
        apply_activations(engine_a, piece)
        assert signature_digest(engine_d) == signature_digest(engine_a)
        assert_parity(engine_d, engine_a)


def test_returned_clusters_are_the_callers():
    """Mutating a returned clustering leaves the next answer unchanged."""
    graph, acts = _fixed_workload()
    engine = make_engine("anco", graph, _params())
    apply_activations(engine, acts)
    level = engine.queries.sqrt_n_level()
    first = engine.clusters(level)
    expected = [list(cluster) for cluster in first]
    first[0].append(-1)
    first[-1].clear()
    first.pop()
    assert engine.clusters(level) == expected
    assert expected == power_clustering(engine.index, level)


@PINNED
@given(workload(), st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_interleaved_zoom_parity(wl, zoom_points):
    """Query traffic interleaved mid-stream: identical answers, no drift."""
    graph, acts, rescale_every = wl
    engine_d, engine_a = _pair("anco", graph, rescale_every=rescale_every)
    cut = max(1, len(acts) // 2)
    for engine in (engine_d, engine_a):
        apply_activations(engine, acts[:cut])
    for level in zoom_points:
        lvl = engine_d.queries.clamp_level(level)
        assert engine_d.zoom_in(lvl) == engine_a.zoom_in(lvl)
        assert engine_d.zoom_out(lvl) == engine_a.zoom_out(lvl)
        assert engine_d.clusters(lvl) == engine_a.clusters(lvl)
        node = acts[0].u
        assert engine_d.cluster_of(node, lvl) == engine_a.cluster_of(node, lvl)
    for engine in (engine_d, engine_a):
        apply_activations(engine, acts[cut:])
    assert_parity(engine_d, engine_a)


@PINNED
@given(workload())
def test_kill_recover_parity(wl):
    """Checkpoint + WAL tail at a mid-stream kill point, written by the
    reference and by the array engine, recovered into the array engine —
    both recovered engines must match the never-killed oracles bitwise."""
    graph, acts, rescale_every = wl
    cut = max(1, (2 * len(acts)) // 3)
    live_d, live_a = _pair("anco", graph, rescale_every=rescale_every)
    apply_activations(live_d, acts[:cut])
    apply_activations(live_a, acts[:cut])
    assert_parity(live_d, live_a)
    apply_activations(live_d, acts[cut:])
    apply_activations(live_a, acts[cut:])
    assert_parity(live_d, live_a)
    expected = engine_signature(live_d)

    params = _params(rescale_every=rescale_every)
    with tempfile.TemporaryDirectory() as tmp:
        for build in BUILDERS:
            victim = build("anco", graph, params)
            store = CheckpointStore(Path(tmp) / build.__name__)
            wal = WriteAheadLog(store.wal_path)
            for act in acts:
                wal.append(act)
            apply_activations(victim, acts[:cut])
            store.write_checkpoint(victim)
            wal.close()
            del victim  # kill -9: recovery sees only the disk
            recovery = recover_to(graph, store, params=params)
            assert recovery.engine.metric.space is not None
            assert engine_signature(recovery.engine) == expected, build.__name__
            assert_live_matches_oracle(recovery.engine)


# ----------------------------------------------------------------------
# Rescale boundaries (pinned deterministic cases)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rescale_every", [1, 2, 5])
def test_rescale_boundary_parity(rescale_every):
    """Streams sized to land exactly on batched-rescale ticks."""
    graph, _labels = planted_partition(30, 3, p_in=0.5, p_out=0.08, seed=7)
    edges = list(graph.edges())
    # 3 * rescale_every activations: the final event lands on a boundary.
    acts = [
        Activation(*edges[(3 * i) % len(edges)], float(i // 4))
        for i in range(3 * rescale_every)
    ]
    engine_d, engine_a = _pair("anco", graph, rescale_every=rescale_every)
    apply_activations(engine_d, acts)
    apply_activations(engine_a, acts)
    assert_parity(engine_d, engine_a)


# ----------------------------------------------------------------------
# Engine variants and subsystem paths
# ----------------------------------------------------------------------

def _fixed_workload(seed: int = 3) -> Tuple[Graph, List[Activation]]:
    graph, labels = planted_partition(32, 4, p_in=0.5, p_out=0.06, seed=seed)
    from repro.workloads.streams import community_biased_stream

    stream = community_biased_stream(
        graph, labels, timestamps=8, fraction=0.1, seed=seed
    )
    return graph, list(stream)


@pytest.mark.parametrize("name", ["anco", "ancor", "ancf"])
def test_engine_variant_parity(name):
    """ANCO, ANCOR (periodic sweep) and ANCF (refresh) all agree."""
    graph, acts = _fixed_workload()
    engine_d, engine_a = _pair(name, graph)
    apply_activations(engine_d, acts)
    apply_activations(engine_a, acts)
    if name == "ancf":
        engine_d.refresh()
        engine_a.refresh()
    assert_parity(engine_d, engine_a)


def test_dynamic_edge_insertion_parity():
    """add_relation_edge mid-stream: interning order is part of parity.

    Each engine gets its own graph instance — ``add_relation_edge``
    mutates the relation network, so a shared graph would leak the first
    engine's insertions into the second engine's ``has_edge`` guard.
    """
    _graph, acts = _fixed_workload(seed=5)
    cut = len(acts) // 2
    engines = []
    for build in BUILDERS:
        graph, _ = planted_partition(32, 4, p_in=0.5, p_out=0.06, seed=5)
        engine = build("anco", graph, _params())
        apply_activations(engine, acts[:cut])
        nodes = sorted(graph.nodes())
        added = 0
        for u in nodes:
            for v in nodes[::-1]:
                if u < v and not graph.has_edge(u, v) and added < 3:
                    add_relation_edge(engine, u, v)
                    added += 1
        apply_activations(engine, acts[cut:])
        engines.append(engine)
    assert_parity(*engines)


def test_replica_apply_parity():
    """The follower apply path: WAL records replayed through
    ``apply_activations`` reproduce the primary bitwise on both
    backends (the replication auditor compares these digests live)."""
    graph, acts = _fixed_workload(seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp))
        wal = WriteAheadLog(store.wal_path)
        for act in acts:
            wal.append(act)
        wal.close()
        replayed = list(WriteAheadLog.replay(store.wal_path))
    assert replayed == acts
    engine_d, engine_a = _pair("anco", graph)
    apply_activations(engine_d, replayed)
    apply_activations(engine_a, replayed)
    assert_parity(engine_d, engine_a)


def test_shard_worker_parity():
    """Per-shard engine slices (the shard-worker state machine) agree
    engine-to-engine, shard by shard."""
    from repro.faults.chaos import SHARD_PARAMS, build_shard_workload

    graph, acts = build_shard_workload(17)
    smap = ShardMap.build(graph, 2, seed=0)
    for shard in range(2):
        shard_graph = smap.shard_graph(shard)
        shard_acts = [
            a for a in acts if smap.shard_of_edge(a.u, a.v) == shard
        ]
        engines = tuple(
            build("ANCO", shard_graph, SHARD_PARAMS) for build in BUILDERS
        )
        half = len(shard_acts) // 2
        for piece in (shard_acts[:half], shard_acts[half:]):
            for engine in engines:
                apply_activations(engine, piece)
            assert_parity(*engines)


# ----------------------------------------------------------------------
# The vote kernel against the per-edge loop
# ----------------------------------------------------------------------

def _loop_adjacency(index, level: int) -> List[List[int]]:
    """The reference: ``voted_edges``' per-edge ``same_cluster_vote`` loop."""
    adj: List[List[int]] = [[] for _ in range(index.graph.n)]
    for u, v in voted_edges(index, level):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _assert_votes_match(engine, even: ClusterQueryEngine) -> None:
    index = engine.index
    for level in range(1, index.num_levels + 1):
        assert voted_adjacency(index, level) == _loop_adjacency(index, level), level
        assert even.clusters(level) == even_clustering(index, level), level
    assert_live_matches_oracle(engine)


#: Nodes appended after the planted graph, joined only to each other, so
#: every partition with its seeds on one side leaves the other seedless.
EXTRA = 5


@PINNED
@given(
    workload(),
    st.lists(
        st.tuples(st.integers(0, 23 + EXTRA), st.integers(0, 23 + EXTRA)),
        min_size=1,
        max_size=6,
    ),
)
def test_vote_kernel_matches_loop(wl, inserts):
    """After a stream with dynamic edge insertion, on both index
    classes, ``voted_adjacency`` equals the ``same_cluster_vote`` loop
    at every level, seedless (``-1``) nodes included, and the live even
    and power clusterings equal the one-shot ones."""
    base, acts, rescale_every = wl
    cut = len(acts) // 2
    for build in BUILDERS:
        n = base.n + EXTRA
        graph = Graph(n, list(base.edges()))
        for x in range(base.n, n - 1):
            graph.add_edge(x, x + 1)
        engine = build("anco", graph, _params(rescale_every=rescale_every))
        index = engine.index
        even = ClusterQueryEngine(index, method="even")
        level1 = index.partitions_at(1)
        assert any(s < 0 for part in level1 for s in part.seed)
        apply_activations(engine, acts[:cut])
        _assert_votes_match(engine, even)
        for u, v in inserts:
            if u != v:
                add_relation_edge(engine, u, v)
        _assert_votes_match(engine, even)
        apply_activations(engine, acts[cut:])
        _assert_votes_match(engine, even)
