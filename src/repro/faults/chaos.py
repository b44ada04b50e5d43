"""The chaos matrix: every injector versus a fault-free oracle.

Each :class:`Scenario` arms one failure mode over a deterministic
synthetic workload (planted-partition graph + community-biased stream),
lets it fire, then drives the recovery protocol a real deployment would.
A scenario's ``mode`` is its *family*; a *cell* is one (scenario, seed)
run.  Three runners cover the five families:

* **pipeline** drives the durability layer directly — append each
  activation to the WAL, apply it, checkpoint periodically; on an
  :class:`~repro.faults.plan.InjectedCrash` (or at end of stream,
  standing in for a ``kill -9``) reopen the data directory, run
  :func:`~repro.service.snapshots.recover_to` and resend every
  activation past the recovered high-water mark;
* the **fleet** runner (service, replica and readpath) runs a real
  :class:`~repro.service.server.ANCServer` primary (:func:`ServerThread`)
  with 0, 1 or 2 WAL-shipping followers and pushes the stream, under
  per-batch idempotency keys, through a retrying
  :class:`~repro.service.client.ServiceClient` that fails over to the
  followers — or, for readpath, through a
  :class:`~repro.readpath.router.ReadRouter` (:func:`ReadRouterThread`)
  with a read-your-writes read after every batch.  A cell follows one
  of five *flows*: ``steady`` (followers tail the live stream),
  ``catchup`` (the follower starts after the stream committed),
  ``follower-crash`` (the first follower crashes mid-apply, reads drain
  to the survivors, it restarts from its own disk), ``crash-failover``
  (the primary dies mid-batch, the first follower is promoted and the
  session replayed exactly-once) and ``planned-failover`` (promotion at
  the half-way batch; the deposed primary must then refuse a write
  ``FENCED``).  Every surviving node — the primary and its followers,
  or after a failover the promoted follower — must match the oracle with
  no ``diverged`` audit verdict, and no ``ok`` read may return an
  ``applied`` watermark below its session token (docs/replication.md);
* **shard** drives 2 worker processes behind a
  :class:`~repro.shard.router.ShardRouter` (:func:`RouterThread`); each
  worker must match its per-shard oracle and the merged answers a
  whole-graph oracle (docs/sharding.md).

Every engine under test is the array serving engine and every oracle
the dict reference from :func:`~repro.core.anc.reference_engine`, so
each cell also checks the two against each other under faults.  One
verdict (:func:`_verdict`) classifies every cell:

* ``recovered`` — the state is **byte-identical** to the oracle's
  (exact float reprs, all cluster levels), every check held and the
  scenario's ``evidence`` shows the fault took effect;
* ``typed-failure`` — a client call got a
  :class:`~repro.service.client.ServiceError`, or recovery refused with
  :class:`WalCorruptError` / :class:`CheckpointCorruptError` (correct
  when the fault destroyed acknowledged data);
* ``diverged`` — recovery *claimed* success but the state differs or a
  check failed: the one outcome never acceptable; CI gates on it;
* ``error`` — an armed fault never fired, or the harness failed.

A cell keeps its data in ``<workdir>/<scenario>-s<seed>``, removing a
directory an earlier run left there.  ``repro-anc chaos`` runs the
matrix from the command line and ``tests/chaos/`` under pytest
(``-m chaos``).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

if TYPE_CHECKING:  # runtime import is deferred: repro.shard imports repro.faults
    from ..readpath.router import ReadRouter, ReadRouterConfig
    from ..shard.router import RouterConfig, ShardRouter
    from ..shard.worker import ShardDeployment

from ..core.activation import Activation
from ..core.anc import ANCEngineBase, ANCParams, make_engine, reference_engine
from ..graph.generators import planted_partition
from ..graph.graph import Graph
from ..replica.admin import promote
from ..service.client import RetryPolicy, ServiceClient, ServiceError
from ..service.server import ANCServer, ServerConfig
from ..service.snapshots import (
    CheckpointCorruptError,
    CheckpointStore,
    WalCorruptError,
    WriteAheadLog,
    apply_activations,
    engine_signature,
    recover_to,
    signature_digest,
)
from ..service.wire import FrontEnd
from ..workloads.streams import community_biased_stream
from .plan import FaultPlan, FaultSpec, InjectedCrash

__all__ = [
    "ChaosResult",
    "ReadRouterThread",
    "RouterThread",
    "Scenario",
    "SCENARIOS",
    "ServerThread",
    "ServingThread",
    "build_shard_workload",
    "engine_signature",
    "report_lines",
    "run_matrix",
    "run_scenario",
    "scenario_by_name",
    "write_report",
]

#: Small-but-nontrivial engine parameters shared by every scenario (and
#: by the oracle — determinism demands the exact same configuration).
QUICK_PARAMS = ANCParams(rep=1, k=2, seed=0, rescale_every=64)

#: Pipeline scenarios cut a checkpoint this often (in applied activations).
CHECKPOINT_EVERY = 40

#: Service scenarios send the stream in client batches of this size.
CLIENT_BATCH = 25


def _build_workload(seed: int) -> Tuple[Graph, List[Activation]]:
    """Deterministic graph + activation stream for one matrix seed."""
    graph, labels = planted_partition(
        40, 4, p_in=0.5, p_out=0.05, seed=seed + 13
    )
    stream = community_biased_stream(
        graph, labels, timestamps=10, fraction=0.08, seed=seed
    )
    return graph, list(stream)


#: Engine parameters of the shard scenarios (and the shard tests and
#: ``bench_shard_scaling``): identical to :data:`QUICK_PARAMS` except
#: that periodic rescaling is disabled, so a worker's engine state
#: depends only on the activations *it* ingested — the property that
#: makes per-shard oracles byte-comparable (docs/sharding.md).
SHARD_PARAMS = ANCParams(rep=1, k=2, seed=0, rescale_every=10**9)

#: Shard scenarios run this many engine workers behind the router.
SHARD_COUNT = 2


def build_shard_workload(
    seed: int,
    *,
    blocks: int = 2,
    nodes_per_block: int = 24,
    communities: int = 2,
    timestamps: int = 10,
    fraction: float = 0.1,
) -> Tuple[Graph, List[Activation]]:
    """Disjoint union of planted-partition blocks + interleaved streams.

    Each block is one (or a few) connected components small enough to
    pack whole onto a shard, so every activation stays intra-shard and
    scatter-gather answers must be *exact* — the oracle contract the
    shard scenarios, ``tests/test_shard.py`` and
    ``benchmarks/bench_shard_scaling.py`` all pin down.
    """
    edges: List[Tuple[int, int]] = []
    acts: List[Activation] = []
    offset = 0
    for block in range(blocks):
        block_graph, labels = planted_partition(
            nodes_per_block,
            communities,
            p_in=0.5,
            p_out=0.05,
            seed=seed + 13 + 101 * block,
        )
        stream = community_biased_stream(
            block_graph,
            labels,
            timestamps=timestamps,
            fraction=fraction,
            seed=seed + 7 * block,
        )
        for u, v in block_graph.edges():
            edges.append((u + offset, v + offset))
        for act in stream:
            acts.append(Activation(act.u + offset, act.v + offset, act.t))
        offset += block_graph.n
    graph = Graph(offset, edges)
    acts.sort(key=lambda a: (a.t, a.u, a.v))
    return graph, acts


# ``engine_signature`` moved to repro.service.snapshots so the server's
# divergence auditor can use it without importing the chaos harness; it
# is still re-exported here (and from ``repro.faults``) for callers that
# know it as the chaos oracle.

@dataclass
class ChaosResult:
    """Outcome of one (scenario, seed) cell of the matrix."""

    scenario: str
    seed: int
    status: str  # "recovered" | "typed-failure" | "diverged" | "error"
    expect: str
    detail: str = ""
    injected: List[Dict[str, object]] = field(default_factory=list)
    family: str = ""  # the scenario's mode

    @property
    def ok(self) -> bool:
        """The run did what the scenario's contract promises."""
        return self.status == self.expect

    @property
    def silent_divergence(self) -> bool:
        """Recovery claimed success over wrong state — the CI-gating sin."""
        return self.status == "diverged"

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "ok": self.ok}


@dataclass(frozen=True)
class Scenario:
    """One armed failure mode plus its recovery contract.

    ``specs`` receives ``(seed, n_acts)`` so triggers can sit mid-stream
    regardless of the seed-dependent stream length.  ``expect`` is the
    contractual outcome: ``recovered`` (byte-identical state after the
    protocol's own resend/replay) or ``typed-failure`` (recovery must
    *refuse* because acknowledged data is unrecoverable).

    ``flow`` applies to the fleet families (service, replica, readpath)
    and names the script a cell follows: ``steady``, ``catchup``,
    ``follower-crash``, ``crash-failover`` or ``planned-failover`` (see
    the module docstring).  ``evidence`` is a predicate over the cell's
    counters that shows the armed fault actually took effect; a cell
    without it is out of contract.  Fleet cells count the surviving
    primary's counters (over the first follower's), the router's and
    ``reads_ok``; shard cells the router's and ``worker_restarts``.
    Missing names read 0.
    """

    name: str
    mode: str  # "pipeline" | "service" | "replica" | "shard" | "readpath"
    expect: str
    specs: Callable[[int, int], List[FaultSpec]]
    description: str = ""
    server: Mapping[str, object] = field(default_factory=dict)
    client_attempts: int = 6
    flow: str = "steady"
    evidence: Optional[Callable[[Mapping[str, float]], bool]] = None


# ----------------------------------------------------------------------
# Pipeline scenarios: the durability layer head-on
# ----------------------------------------------------------------------

def _mid(n_acts: int) -> int:
    """A trigger count mid-stream, past the first checkpoint."""
    return max(CHECKPOINT_EVERY + 2, n_acts // 2)


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="wal-torn-tail",
        mode="pipeline",
        expect="recovered",
        description="crash mid-append leaves half a record; repaired, tail resent",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "torn-tail", at_count=_mid(n))
        ],
    ),
    Scenario(
        name="wal-short-write",
        mode="pipeline",
        expect="recovered",
        description="final record misses fields (short write) then crash",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "short-write", at_count=_mid(n))
        ],
    ),
    Scenario(
        name="wal-bit-flip-tail",
        mode="pipeline",
        expect="recovered",
        description="flipped digit in the final record; CRC catches it",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "bit-flip", at_count=_mid(n))
        ],
    ),
    Scenario(
        name="wal-fsync-loss-tail",
        mode="pipeline",
        expect="recovered",
        description="acked append never hit disk; crash tears the next one",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "fsync-loss", at_count=_mid(n)),
            FaultSpec("wal.append", "torn-tail", at_count=_mid(n) + 1),
        ],
    ),
    Scenario(
        name="wal-lost-page",
        mode="pipeline",
        expect="typed-failure",
        description="hole inside the acknowledged stream; replay must refuse",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "fsync-loss", at_count=_mid(n)),
            FaultSpec("wal.append", "crash", at_count=_mid(n) + 1),
        ],
    ),
    Scenario(
        name="wal-crash-after-append",
        mode="pipeline",
        expect="recovered",
        description="kill -9 between WAL append and index apply",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "crash", at_count=_mid(n))
        ],
    ),
    Scenario(
        name="checkpoint-skip-manifest",
        mode="pipeline",
        expect="recovered",
        description="crash before MANIFEST; torn checkpoint must be ignored",
        specs=lambda seed, n: [
            FaultSpec("checkpoint.write", "skip-manifest", at_count=1)
        ],
    ),
    Scenario(
        name="checkpoint-truncate-engine",
        mode="pipeline",
        expect="recovered",
        description="crash mid-write of engine.json; no MANIFEST, so ignored",
        specs=lambda seed, n: [
            FaultSpec("checkpoint.write", "truncate-engine", at_count=1)
        ],
    ),
    Scenario(
        name="checkpoint-bit-rot",
        mode="pipeline",
        expect="typed-failure",
        description="complete checkpoint rots after fsync; checksum must refuse",
        specs=lambda seed, n: [
            FaultSpec(
                "checkpoint.write",
                "corrupt-engine",
                at_count=max(1, n // CHECKPOINT_EVERY),
            )
        ],
    ),
    Scenario(
        name="index-save-truncated",
        mode="pipeline",
        expect="recovered",
        description="crash mid-write of index.json; no MANIFEST, so ignored",
        specs=lambda seed, n: [
            FaultSpec("index.save", "truncate", at_count=1)
        ],
    ),
    Scenario(
        name="checkpoint-complete-then-crash",
        mode="pipeline",
        expect="recovered",
        description="crash right after a complete checkpoint; restart resumes",
        specs=lambda seed, n: [
            FaultSpec("checkpoint.write", "crash", at_count=1)
        ],
    ),
    Scenario(
        name="slow-snapshot-reader",
        mode="pipeline",
        expect="recovered",
        description="index load stalls during recovery; slow but exact",
        specs=lambda seed, n: [
            FaultSpec(
                "index.load",
                "delay",
                probability=1.0,
                phase="recovery",
                args={"seconds": 0.05},
            )
        ],
    ),
    # -- service scenarios: the protocol path under network faults -----
    Scenario(
        name="service-conn-resets",
        mode="service",
        expect="recovered",
        description="first two connections dropped + one request reset mid-stream",
        specs=lambda seed, n: [
            FaultSpec("server.accept", "reset", at_count=1),
            FaultSpec("server.accept", "reset", at_count=2),
            FaultSpec("server.request", "reset", at_count=3),
        ],
        client_attempts=8,
    ),
    Scenario(
        name="service-batch-duplicate",
        mode="service",
        expect="recovered",
        description="a batch arrives twice; seq-keyed dedup keeps it exactly-once",
        specs=lambda seed, n: [
            FaultSpec("server.ingest_batch", "duplicate", at_count=2)
        ],
    ),
    Scenario(
        name="service-overload-shed",
        mode="service",
        expect="recovered",
        description="stalled writer backs the queue up; shed + client retry",
        specs=lambda seed, n: [
            FaultSpec(
                "ingest.flush", "delay", at_count=1, args={"seconds": 0.3}
            )
        ],
        server={
            "batch_size": 8,
            "max_latency": 0.005,
            "shed_watermark": 12,
        },
        client_attempts=16,
    ),
    Scenario(
        name="service-slow-reader",
        mode="service",
        expect="recovered",
        description="ack write stalls; server evicts, client resends the key",
        specs=lambda seed, n: [
            FaultSpec(
                "server.send", "stall", at_count=2, args={"seconds": 5.0}
            )
        ],
        server={"write_timeout": 0.2},
        client_attempts=8,
    ),
    # -- replica scenarios: WAL shipping, failover, split brain --------
    Scenario(
        name="replica-link-stall",
        mode="replica",
        expect="recovered",
        description="wal_fetch stalls repeatedly; follower lags but converges",
        specs=lambda seed, n: [
            FaultSpec(
                "replica.fetch",
                "stall",
                at_count=1,
                args={"seconds": 0.05},
            ),
            FaultSpec(
                "replica.fetch",
                "stall",
                at_count=3,
                args={"seconds": 0.05},
            ),
        ],
    ),
    Scenario(
        name="replica-link-drop",
        mode="replica",
        flow="catchup",
        expect="recovered",
        description="replication connection severed mid-catch-up; link reconnects",
        specs=lambda seed, n: [
            FaultSpec("replica.fetch", "drop", at_count=1),
            FaultSpec("replica.fetch", "drop", at_count=3),
        ],
    ),
    Scenario(
        name="replica-link-reorder",
        mode="replica",
        flow="catchup",
        expect="recovered",
        description="fetched chunk arrives reversed; follower discards and refetches",
        specs=lambda seed, n: [
            FaultSpec("replica.fetch", "reorder", at_count=1),
            FaultSpec("replica.fetch", "reorder", at_count=4),
        ],
    ),
    Scenario(
        name="replica-follower-crash-catchup",
        mode="replica",
        flow="follower-crash",
        expect="recovered",
        description="follower hard-crashes mid-apply; restarts from disk, catches up",
        specs=lambda seed, n: [
            FaultSpec("replica.apply", "crash", at_count=_mid(n))
        ],
    ),
    Scenario(
        name="replica-failover-mid-batch",
        mode="replica",
        flow="crash-failover",
        expect="recovered",
        description="primary killed mid-batch; follower promoted, session replayed exactly-once",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "crash", at_count=_mid(n))
        ],
        client_attempts=8,
        evidence=lambda c: c["ingest_dedup_hits"] > 0,
    ),
    Scenario(
        name="replica-split-brain",
        mode="replica",
        flow="planned-failover",
        expect="recovered",
        description="follower promoted while the old primary lives; the fence blocks the stale side",
        # The first fetch: a long-polled follower may fetch only twice
        # before it is promoted, so a later hit would not always fire.
        specs=lambda seed, n: [
            FaultSpec(
                "replica.fetch",
                "stall",
                at_count=1,
                args={"seconds": 0.03},
            )
        ],
        client_attempts=8,
    ),
    # -- shard scenarios: the scatter-gather tier under fire -----------
    Scenario(
        name="shard-worker-crash-mid-batch",
        mode="shard",
        expect="recovered",
        description=(
            "shard-0 worker hard-crashes mid-batch; the supervisor respawns "
            "it from its own WAL and the router resends the in-flight key"
        ),
        specs=lambda seed, n: [
            FaultSpec("wal.append", "crash", at_count=max(2, n // 2))
        ],
        client_attempts=8,
        evidence=lambda c: c["worker_restarts"] >= 1,
    ),
    Scenario(
        name="shard-router-worker-partition",
        mode="shard",
        expect="recovered",
        description=(
            "router→worker link drops twice with requests in flight; the "
            "retry resends the same key and worker dedup keeps exactly-once"
        ),
        specs=lambda seed, n: [
            FaultSpec("router.forward", "drop", at_count=2),
            FaultSpec("router.forward", "drop", at_count=5),
        ],
        client_attempts=8,
        evidence=lambda c: c["router_forward_retries"] >= 2,
    ),
    Scenario(
        name="shard-scatter-timeout",
        mode="shard",
        expect="recovered",
        description=(
            "one shard stalls a scatter past the fanout deadline; the client "
            "gets a typed RETRY_AFTER and its retry succeeds"
        ),
        specs=lambda seed, n: [
            FaultSpec(
                "router.scatter",
                "stall",
                at_count=1,
                args={"seconds": 2.0, "shard": 0},
            )
        ],
        server={"fanout_timeout": 0.5, "shed_retry_after": 0.1},
        client_attempts=8,
        evidence=lambda c: c["router_scatter_timeouts"] >= 1,
    ),
    # -- readpath scenarios: the read-routing tier under fire ----------
    Scenario(
        name="readpath-lagged-follower-read",
        mode="readpath",
        expect="recovered",
        description=(
            "stalled wal_fetch keeps the followers behind the session "
            "token; reads bounce STALE and drain to the primary's budget"
        ),
        specs=lambda seed, n: [
            FaultSpec(
                "replica.fetch", "stall", at_count=1, args={"seconds": 0.15}
            ),
            FaultSpec(
                "replica.fetch", "stall", at_count=3, args={"seconds": 0.15}
            ),
        ],
        client_attempts=8,
        evidence=lambda c: (
            c["readpath_stale_bounces"] + c["readpath_primary_reads"] >= 1
        ),
    ),
    Scenario(
        name="readpath-follower-crash-mid-read",
        mode="readpath",
        flow="follower-crash",
        expect="recovered",
        description=(
            "one follower hard-crashes under read load; the router marks "
            "it down and the session's reads drain to the survivor"
        ),
        specs=lambda seed, n: [
            FaultSpec("replica.apply", "crash", at_count=_mid(n))
        ],
        client_attempts=8,
        evidence=lambda c: c["readpath_upstream_errors"] >= 1,
    ),
    Scenario(
        name="readpath-promote-under-read-load",
        mode="readpath",
        flow="crash-failover",
        expect="recovered",
        description=(
            "primary killed mid-batch with reads in flight; a follower is "
            "promoted and the router re-resolves roles from envelope epochs"
        ),
        specs=lambda seed, n: [
            FaultSpec("wal.append", "crash", at_count=_mid(n))
        ],
        client_attempts=10,
        evidence=lambda c: (
            c["ingest_dedup_hits"] > 0 and c["readpath_reresolves"] >= 1
        ),
    ),
    Scenario(
        name="readpath-stale-token-after-failover",
        mode="readpath",
        flow="planned-failover",
        expect="recovered",
        description=(
            "a session token outlives a planned failover; every "
            "post-promote read reflects the session or refuses typed"
        ),
        specs=lambda seed, n: [
            FaultSpec(
                "replica.fetch", "stall", at_count=2, args={"seconds": 0.05}
            )
        ],
        client_attempts=10,
        evidence=lambda c: c["reads_ok"] >= 1,
    ),
)


def scenario_by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"unknown chaos scenario {name!r}; known: "
        + ", ".join(s.name for s in SCENARIOS)
    )


# ----------------------------------------------------------------------
# The verdict: one classification for every runner
# ----------------------------------------------------------------------

@dataclass
class _Cell:
    """What one (scenario, seed) run observed, for :func:`_verdict`.

    A runner arms its faults through :meth:`arm`, records failed checks
    with :meth:`check`, adds report text to ``notes`` and fills
    ``counters`` for the scenario's ``evidence`` predicate.
    """

    scenario: Scenario
    seed: int
    path: Path
    armed: List[FaultSpec] = field(default_factory=list)
    plans: List[FaultPlan] = field(default_factory=list)
    #: Fired-log entries of plans that lived (and died) in another process.
    reconstructed: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def arm(self, specs: Sequence[FaultSpec]) -> Optional[FaultPlan]:
        """A plan over ``specs`` whose fired log the verdict reads."""
        self.armed.extend(specs)
        if not specs:
            return None
        plan = FaultPlan(specs, seed=self.seed)
        self.plans.append(plan)
        return plan

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed.append(what)

    def fired(self) -> List[Dict[str, object]]:
        """Every fired-log entry so far, this process's and reconstructed."""
        return [entry for plan in self.plans for entry in plan.fired] + self.reconstructed

    def unfired(self) -> List[str]:
        """The armed specs that have not fired yet, as ``site/kind[@count]``."""
        fired = self.fired()
        return [
            f"{spec.site}/{spec.kind}" + (f"@{spec.at_count}" if spec.at_count else "")
            for spec in self.armed
            if not any(
                (entry["site"], entry["kind"]) == (spec.site, spec.kind)
                and spec.at_count in (None, entry["hit"])
                for entry in fired
            )
        ]


def _verdict(cell: _Cell, refused: Optional[Exception] = None) -> ChaosResult:
    """Classify one cell from what its runner observed.

    ``refused`` is the typed error that ended the run: a
    :class:`ServiceError` out of a client call, or a
    :class:`WalCorruptError` / :class:`CheckpointCorruptError` out of
    recovery.  A cell with an armed fault that never fired is ``error``
    whatever else happened: it did not test what its scenario claims.
    """
    scenario = cell.scenario
    parts = list(cell.notes)
    if refused is not None:
        parts.append(f"{type(refused).__name__}: {refused}")
    never = cell.unfired()
    failed = list(cell.failed)
    if scenario.evidence is not None and not scenario.evidence(
        defaultdict(float, cell.counters)
    ):
        failed.append("no evidence the fault took effect")
    if never:
        status = "error"
        parts.append(f"armed but never fired: {', '.join(never)}")
    elif refused is not None:
        status = "typed-failure"
    elif failed:
        status = "diverged"
        parts.append(f"failed: {', '.join(failed)}")
    else:
        status = "recovered"
    return ChaosResult(
        scenario.name,
        cell.seed,
        status,
        scenario.expect,
        detail="; ".join(parts),
        injected=cell.fired(),
        family=scenario.mode,
    )


def _oracle(
    graph: Graph, acts: Sequence[Activation], params: ANCParams = QUICK_PARAMS
) -> ANCEngineBase:
    """The dict reference engine fed the fault-free stream."""
    engine = reference_engine("ANCO", graph, params)
    apply_activations(engine, acts)
    return engine


# ----------------------------------------------------------------------
# Pipeline runner
# ----------------------------------------------------------------------

def _run_pipeline(cell: _Cell) -> None:
    graph, acts = _build_workload(cell.seed)
    expected = engine_signature(_oracle(graph, acts))

    plan = cell.arm(cell.scenario.specs(cell.seed, len(acts))) or FaultPlan()
    plan.set_phase("live")
    store = CheckpointStore(cell.path, faults=plan)
    wal = WriteAheadLog(store.wal_path, faults=plan)
    engine = make_engine("ANCO", graph, QUICK_PARAMS)
    outcome = "stream complete; simulated kill -9 at end"
    try:
        for i, act in enumerate(acts):
            wal.append(act)
            apply_activations(engine, [act])
            if (i + 1) % CHECKPOINT_EVERY == 0:
                store.write_checkpoint(engine)
    except InjectedCrash as exc:
        outcome = f"crashed: {exc}"
    finally:
        wal.close()
    del engine  # a crash loses all in-memory state; recover from disk only
    cell.notes.append(outcome)

    # A typed refusal (WalCorruptError / CheckpointCorruptError) raises
    # out of here to the verdict.
    plan.set_phase("recovery")
    recovery = recover_to(graph, store, params=QUICK_PARAMS)
    recovered = recovery.engine
    # The client resends everything past the recovered high-water mark —
    # it never got an ack for those, so at-least-once delivery covers the
    # tail the crash (or a benign torn/lost tail record) took.
    resend = acts[recovered.activations_processed:]
    tail_wal = WriteAheadLog(store.wal_path)
    try:
        for act in resend:
            tail_wal.append(act)
            apply_activations(recovered, [act])
    finally:
        tail_wal.close()
    cell.notes.append(f"replayed {recovery.replayed}, resent {len(resend)}")
    cell.check(engine_signature(recovered) == expected, "recovered signature")


# ----------------------------------------------------------------------
# Thread harnesses: servers and routers on private event loops
# ----------------------------------------------------------------------

_S = TypeVar("_S", bound=FrontEnd)


class ServingThread(Generic[_S]):
    """A server or router on a private event loop in a daemon thread.

    Lets blocking clients (the real :class:`ServiceClient`, chaos
    scenarios, tests) talk to an in-process :class:`ANCServer`,
    :class:`~repro.shard.router.ShardRouter` or
    :class:`~repro.readpath.router.ReadRouter`; ``build`` constructs it
    on the thread's loop.  Use as a context manager; ``stop()`` requests
    a graceful shutdown and joins.  ``timeout`` bounds both startup and
    shutdown.
    """

    def __init__(
        self, build: Callable[[], _S], *, host: str, name: str, timeout: float
    ) -> None:
        self._build = build
        self._name = name
        self._timeout = timeout
        self.served: Optional[_S] = None
        self.port: Optional[int] = None
        self.host = host
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    @property
    def server(self) -> Optional[_S]:
        """The served object (named for what :func:`ServerThread` runs)."""
        return self.served

    @property
    def router(self) -> Optional[_S]:
        """The served object (named for what the router harnesses run)."""
        return self.served

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # anclint: disable=service-exception-discipline — a thread boundary cannot propagate; start()/stop() re-raise from ``self.error`` on the caller's thread
            self.error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.served = self._build()
        await self.served.start()
        self.port = self.served.port
        self._started.set()
        await self.served.serve_forever()

    def start(self) -> "ServingThread[_S]":
        self._thread.start()
        if not self._started.wait(timeout=self._timeout):
            raise RuntimeError(f"{self._name} did not start within {self._timeout}s")
        if self.error is not None:
            raise RuntimeError(f"{self._name} failed on startup") from self.error
        assert self.port is not None
        return self

    def stop(self) -> None:
        """Request a graceful shutdown and join the thread."""
        if self._loop is not None and self.served is not None:
            try:
                self._loop.call_soon_threadsafe(self.served.request_stop)
            except RuntimeError:  # anclint: disable=service-exception-discipline — the loop already exited (shut down on its own); joining below is the only remaining work
                pass
        self._thread.join(timeout=self._timeout)
        if self._thread.is_alive():  # pragma: no cover - hang diagnostics
            raise RuntimeError(
                f"{self._name} did not shut down within {self._timeout}s"
            )

    def __enter__(self) -> "ServingThread[_S]":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def ServerThread(
    graph: Graph,
    *,
    config: Optional[ServerConfig] = None,
    params: Optional[ANCParams] = None,
    names: Optional[Sequence[Hashable]] = None,
) -> ServingThread[ANCServer]:
    """An :class:`ANCServer` on its own loop thread."""
    cfg = config or ServerConfig()
    return ServingThread(
        lambda: ANCServer(graph, names, config=cfg, params=params),
        host=cfg.host,
        name="anc-chaos-server",
        timeout=15.0,
    )


def RouterThread(
    deployment: "ShardDeployment",
    *,
    config: Optional["RouterConfig"] = None,
) -> "ServingThread[ShardRouter]":
    """A :class:`~repro.shard.router.ShardRouter` on its own loop thread.

    Starting it spawns the deployment's worker processes (one spawn plus
    recovery per shard), hence the longer timeout; stopping it reaps
    them.
    """
    from ..shard.router import RouterConfig, ShardRouter

    cfg = config or RouterConfig()
    return ServingThread(
        lambda: ShardRouter(deployment, config=cfg),
        host=cfg.host,
        name="anc-chaos-router",
        timeout=120.0,
    )


def ReadRouterThread(
    primary: Tuple[str, int],
    *,
    followers: Sequence[Tuple[str, int]] = (),
    config: Optional["ReadRouterConfig"] = None,
) -> "ServingThread[ReadRouter]":
    """A :class:`~repro.readpath.router.ReadRouter` over a running fleet."""
    from ..readpath.router import ReadRouter, ReadRouterConfig

    cfg = config or ReadRouterConfig()
    return ServingThread(
        lambda: ReadRouter(primary, followers=list(followers), config=cfg),
        host=cfg.host,
        name="anc-chaos-readrouter",
        timeout=30.0,
    )


def _await(check: Callable[[], bool], *, timeout: float, what: str) -> None:
    """Poll ``check`` until true or raise after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not check():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.01)


def _counters(served: FrontEnd) -> Dict[str, float]:
    return served.metrics.snapshot()["counters"]  # type: ignore[return-value]


def _retry(scenario: Scenario, seed: int) -> RetryPolicy:
    """The retry policy of every cell's client."""
    return RetryPolicy(
        attempts=scenario.client_attempts,
        base_delay=0.02,
        max_delay=0.25,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Fleet runner: a primary, its followers and (readpath) a read router
# ----------------------------------------------------------------------

#: Followers behind the primary, per fleet family.
_FOLLOWERS = {"service": 0, "replica": 1, "readpath": 2}

#: Fault sites armed on the first follower; every other site arms on the
#: primary (which serves ``wal_fetch``).
_FOLLOWER_SITES = frozenset({"replica.apply"})

#: Seconds a fleet cell waits, once its stream is in, for armed faults
#: that have not fired yet before it stops the fleet.
UNFIRED_GRACE_S = 10.0

#: Client error codes a routed read may legally surface while the fleet
#: is degraded — every one is typed, none hands back stale data.
_TYPED_DENIALS = frozenset(
    {"STALE", "RETRY_AFTER", "UNAVAILABLE", "TIMEOUT", "CONNECT"}
)

#: Counters a fleet cell's report line shows, where its nodes have them:
#: the surviving primary's, the first follower's link and the read path.
_REPORTED = (
    "ingest_dedup_hits", "ingest_shed", "slow_reader_evictions",
    "replica_refetches", "replica_link_errors", "replica_audits",
    "reads_ok", "typed_denials", "readpath_follower_reads",
    "readpath_primary_reads", "readpath_stale_bounces",
    "readpath_reresolves", "readpath_upstream_errors",
)


def _server(handle: ServingThread[ANCServer]) -> ANCServer:
    assert handle.server is not None
    return handle.server


def _endpoint(handle: ServingThread[_S]) -> Tuple[str, int]:
    assert handle.port is not None
    return handle.host, handle.port


def _caught_up(handle: ServingThread[ANCServer], target: int) -> bool:
    host = _server(handle).host
    return host.ingested >= target and host.applied >= target


class _Fleet:
    """One fleet cell's nodes, router, client and read ledger.

    The shape comes from the family: :data:`_FOLLOWERS` followers and,
    for readpath cells only, a :class:`~repro.readpath.router.ReadRouter`
    with session-token reads.  Every node persists under its own
    directory in the cell's.  The flows drive it.
    """

    def __init__(self, cell: _Cell, graph: Graph, acts: Sequence[Activation]) -> None:
        scenario = cell.scenario
        self.cell = cell
        self.graph = graph
        self.batches = [
            [(a.u, a.v, a.t) for a in acts[i : i + CLIENT_BATCH]]
            for i in range(0, len(acts), CLIENT_BATCH)
        ]
        self.keys = [
            f"{scenario.name}-{cell.seed}-b{i}" for i in range(len(self.batches))
        ]
        specs = scenario.specs(cell.seed, len(acts))
        self.primary_plan = cell.arm([s for s in specs if s.site not in _FOLLOWER_SITES])
        self.follower_plan = cell.arm([s for s in specs if s.site in _FOLLOWER_SITES])
        self.n_followers = _FOLLOWERS[scenario.mode]
        self.reads = scenario.mode == "readpath"
        #: Primary first, then followers in start order.
        self.nodes: List[ServingThread[ANCServer]] = []
        self.followers: List[ServingThread[ANCServer]] = []
        self.router: Optional["ServingThread[ReadRouter]"] = None
        self._client: Optional[ServiceClient] = None
        self.promoted = False
        # The no-silent-staleness ledger: every ok read whose applied
        # watermark trails the session token at request time.
        self.silent_stale: List[Tuple[int, int]] = []
        self.reads_ok = 0
        self.typed_denials = 0

    @property
    def primary(self) -> ServingThread[ANCServer]:
        return self.nodes[0]

    @property
    def client(self) -> ServiceClient:
        assert self._client is not None
        return self._client

    def _node(
        self, name: str, plan: Optional[FaultPlan], **role: object
    ) -> ServingThread[ANCServer]:
        config = ServerConfig(
            data_dir=self.cell.path / name,
            checkpoint_every=CHECKPOINT_EVERY,
            faults=plan,
            **role,  # type: ignore[arg-type]
        )
        handle = ServerThread(self.graph, config=config, params=QUICK_PARAMS)
        self.nodes.append(handle.start())
        return handle

    def _follower(self, index: int, plan: Optional[FaultPlan]) -> ServingThread[ANCServer]:
        # replica_id stays at its host:port default — the identity the
        # read router's auto-registration keys on.
        host, port = _endpoint(self.primary)
        return self._node(
            f"f{index + 1}",
            plan,
            role="follower",
            primary_host=host,
            primary_port=port,
            audit_interval=0.05,
        )

    def start(self, *, follow: bool = True) -> None:
        """Start the primary, the followers unless told not to, then the client."""
        self._node("primary", self.primary_plan, **self.cell.scenario.server)
        if follow:
            self.follow()
        entry = _endpoint(self.primary)
        failover = [_endpoint(f) for f in self.followers]
        if self.reads:
            from ..readpath.router import ReadRouterConfig

            self.router = ReadRouterThread(
                entry,
                followers=failover,
                config=ReadRouterConfig(heartbeat_interval=0.05),
            ).start()
            entry, failover = _endpoint(self.router), []
        self._client = ServiceClient(
            *entry,
            timeout=5.0,
            retry=_retry(self.cell.scenario, self.cell.seed),
            failover=failover,
            session_reads=self.reads,
        )

    def follow(self) -> None:
        """Start the family's followers; the first carries the follower plan."""
        for index in range(self.n_followers):
            plan = self.follower_plan if index == 0 else None
            self.followers.append(self._follower(index, plan))

    def ingest(self, indices: Iterable[int]) -> None:
        """Send these batches under their keys; readpath reads after each."""
        for i in indices:
            self.client.ingest_batch(self.batches[i], key=self.keys[i])
            self.read()

    def read(self) -> None:
        """One read-your-writes read (readpath only); ledgers the outcome."""
        if not self.reads:
            return
        token = self.client.session_token
        try:
            doc = self.client.clusters_info()
        except ServiceError as exc:
            if exc.code not in _TYPED_DENIALS:
                raise
            self.typed_denials += 1
            return
        applied = int(doc.get("applied", -1))  # type: ignore[arg-type]
        if applied < token:
            self.silent_stale.append((token, applied))
        self.reads_ok += 1

    def promote(self) -> None:
        """Promote the first follower, fencing the primary if it is alive."""
        promote(
            _endpoint(self.followers[0]),
            old_primary=_endpoint(self.primary),
            timeout=2.0,
        )
        self.promoted = True

    def restart_follower(self) -> None:
        """Replace the crashed first follower by a disarmed one on its disk."""
        crashed = self.followers[0]
        crashed.stop()
        self.nodes.remove(crashed)
        self.followers[0] = self._follower(0, None)

    def primary_refuses_fenced(self) -> bool:
        """Whether the (deposed) primary refuses a direct write FENCED."""
        with ServiceClient(
            *_endpoint(self.primary), timeout=2.0, retry=RetryPolicy(attempts=1)
        ) as probe:
            try:
                probe.request(
                    "ingest_batch",
                    items=[list(self.batches[0][0])],
                    key="split-brain-probe",
                    idempotent=False,
                )
            except ServiceError as exc:  # anclint: disable=service-exception-discipline — FENCED here is the flow's *pass* condition; anything else (or no error) is the split-brain failure the matrix reports
                return exc.code == "FENCED"
        return False

    def survivors(self) -> List[Tuple[str, ServingThread[ANCServer]]]:
        """The nodes that must hold the oracle state, by name.

        After a failover that is the promoted follower; otherwise the
        primary and every follower.
        """
        if self.promoted:
            return [("f1", self.followers[0])]
        named = [("primary", self.primary)]
        return named + [(f"f{i + 1}", f) for i, f in enumerate(self.followers)]

    def stop(self) -> None:
        # Client, router, followers, primary: each holds connections
        # into the next, and stopping a node under a live link cancels
        # its handler tasks noisily.
        if self._client is not None:
            self._client.close()
        if self.router is not None:
            self.router.stop()
        for handle in reversed(self.nodes):
            handle.stop()


def _steady(fleet: _Fleet) -> None:
    """Every batch against a live fleet; the followers tail the stream."""
    fleet.start()
    fleet.ingest(range(len(fleet.batches)))


def _catchup(fleet: _Fleet) -> None:
    """The follower starts only after the whole stream committed."""
    fleet.start(follow=False)
    fleet.ingest(range(len(fleet.batches)))
    fleet.client.sync()
    fleet.follow()


def _follower_crash(fleet: _Fleet) -> None:
    """The first follower hard-crashes mid-apply and restarts from disk."""
    _steady(fleet)
    crashed = _server(fleet.followers[0])
    _await(lambda: crashed.crashed, timeout=30.0, what="the injected follower crash")
    # The session's reads must survive the dead follower.
    for _ in range(4):
        fleet.read()
    fleet.restart_follower()


def _crash_failover(fleet: _Fleet) -> None:
    """The primary dies mid-batch; the first follower is promoted and the
    whole session replayed exactly-once."""
    fleet.start()
    primary = _server(fleet.primary)
    i = 0
    while i < len(fleet.batches):
        try:
            fleet.ingest([i])
            i += 1
            if i == 1 and not fleet.promoted:
                # Let the follower replicate the first batch before the
                # crash-prone tail: the post-failover replay below must
                # then resume against the dedup map rebuilt from
                # *replicated* records (the exactly-once contract), not
                # merely re-ingest into an empty promoted log.
                _await(
                    lambda: _caught_up(fleet.followers[0], CLIENT_BATCH),
                    timeout=30.0,
                    what="follower replication of the first batch",
                )
        except ServiceError:
            if fleet.promoted:
                raise
            _await(lambda: primary.crashed, timeout=10.0, what="the injected primary crash")
            # Reads during the outage stay typed or fresh — the ledger
            # catches anything silently stale.
            fleet.read()
            fleet.promote()
            i = 0  # replay the session; dedup absorbs every duplicate
    fleet.cell.check(fleet.promoted, "follower promoted")


def _planned_failover(fleet: _Fleet) -> None:
    """The first follower is promoted at the half-way batch while the old
    primary still runs; the deposed primary must then refuse FENCED."""
    fleet.start()
    half = max(1, len(fleet.batches) // 2)
    fleet.ingest(range(half))
    fleet.client.sync()
    fleet.promote()  # waits for the follower to drain the committed log
    # The session token predates the failover; each read must reflect
    # the session's writes or refuse typed.  The writes that follow must
    # reach the new primary: a direct client rotates off the deposed one
    # on FENCED, the read router re-resolves roles from epochs.
    for _ in range(4):
        fleet.read()
    fleet.ingest(range(half, len(fleet.batches)))
    fleet.cell.check(fleet.primary_refuses_fenced(), "deposed primary refuses FENCED")


_FLOWS: Dict[str, Callable[[_Fleet], None]] = {
    "steady": _steady,
    "catchup": _catchup,
    "follower-crash": _follower_crash,
    "crash-failover": _crash_failover,
    "planned-failover": _planned_failover,
}


def _run_fleet(cell: _Cell) -> None:
    graph, acts = _build_workload(cell.seed)
    expected = engine_signature(_oracle(graph, acts))
    fleet = _Fleet(cell, graph, acts)
    try:
        _FLOWS[cell.scenario.flow](fleet)
        applied = fleet.client.sync()
        survivors = fleet.survivors()
        for _, handle in survivors:
            _await(
                lambda h=handle: _caught_up(h, len(acts)),
                timeout=30.0,
                what="follower catch-up",
            )
        # A fault armed on a polled path (a caught-up follower's fetch
        # parks on the primary) may not have fired yet: give it the
        # chance before the stop races it.  One that still has not
        # fired reads ``error`` in the verdict.
        deadline = time.monotonic() + UNFIRED_GRACE_S
        while cell.unfired() and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        fleet.stop()

    # Every node is stopped, so its engine is quiescent.
    cell.check(applied == len(acts), "applied")
    for name, handle in survivors:
        server = _server(handle)
        cell.check(
            engine_signature(server.host.engine) == expected, f"signature {name}"
        )
        cell.check(server.diverged is None, f"{name} diverged: {server.diverged}")
    cell.check(not fleet.silent_stale, f"silent-stale reads {fleet.silent_stale[:3]}")

    # The first follower's (link) counters under the surviving primary's,
    # then the router's and the read ledger's.
    counters = _counters(_server(fleet.followers[0])) if fleet.followers else {}
    counters.update(_counters(_server(survivors[0][1])))
    if fleet.router is not None:
        assert fleet.router.router is not None
        counters.update(_counters(fleet.router.router))
        counters.update(reads_ok=fleet.reads_ok, typed_denials=fleet.typed_denials)
    cell.counters.update(counters)
    cell.notes.append(
        " ".join(
            [f"applied={applied}/{len(acts)}"]
            + [f"{name}={counters[name]:g}" for name in _REPORTED if name in counters]
        )
    )
    if fleet.promoted:
        new = _server(fleet.followers[0])
        cell.check(new.role == "primary", f"promoted f1 is {new.role}")
        cell.check(new.epoch > 1, f"promoted f1 at epoch {new.epoch}")
        cell.notes.append(f"promoted epoch={new.epoch}")


# ----------------------------------------------------------------------
# Shard runner: the scatter-gather tier over real worker processes
# ----------------------------------------------------------------------

def _normalized_clusters(clusters: Sequence[Sequence[object]]) -> Tuple[Tuple[int, ...], ...]:
    """Order-free canonical form of a clustering (int labels)."""
    return tuple(
        sorted(tuple(sorted(int(v) for v in cluster)) for cluster in clusters)  # type: ignore[arg-type]
    )


def _run_shard(cell: _Cell) -> None:
    from ..shard.router import RouterConfig
    from ..shard.shardmap import ShardMap
    from ..shard.worker import ShardDeployment

    scenario, seed = cell.scenario, cell.seed
    graph, acts = build_shard_workload(seed)
    smap = ShardMap.build(graph, SHARD_COUNT, seed=0)
    shard_acts: Dict[int, List[Activation]] = {s: [] for s in range(SHARD_COUNT)}
    for act in acts:
        shard_acts[smap.shard_of_edge(act.u, act.v)].append(act)

    # Sites under ``router.`` arm in the router process; everything else
    # travels to shard 0's worker via its picklable spec (the plan — and
    # its fired log — then lives in the child).
    specs = scenario.specs(seed, len(shard_acts[0]))
    router_plan = cell.arm([s for s in specs if s.site.startswith("router.")])
    worker_specs = [s for s in specs if not s.site.startswith("router.")]
    cell.armed.extend(worker_specs)

    deployment = ShardDeployment(
        graph,
        shards=SHARD_COUNT,
        seed=0,
        params=SHARD_PARAMS,
        config=ServerConfig(data_dir=cell.path, checkpoint_every=CHECKPOINT_EVERY),
        fault_specs={0: worker_specs} if worker_specs else None,
        fault_seed=seed,
    )
    router_config = RouterConfig(
        faults=router_plan,
        **scenario.server,  # type: ignore[arg-type]
    )
    batches = [
        acts[i : i + CLIENT_BATCH] for i in range(0, len(acts), CLIENT_BATCH)
    ]
    half = max(1, len(batches) // 2)
    try:
        with RouterThread(deployment, config=router_config) as handle:
            router = handle.router
            assert router is not None and handle.port is not None
            with ServiceClient(
                handle.host, handle.port, timeout=15.0, retry=_retry(scenario, seed)
            ) as client:
                for i, chunk in enumerate(batches):
                    if i == half:
                        # First scatter mid-stream: the stall scenario
                        # fires here and the client must recover through
                        # its typed retry.
                        client.request("clusters")
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in chunk],
                        key=f"{scenario.name}-{seed}-b{i}",
                    )
                applied = client.sync()
                merged = client.request("clusters")

            # Per-shard byte-identity: each worker's signature must equal
            # an oracle engine fed only that shard's slice of the stream.
            for shard in range(SHARD_COUNT):
                worker = deployment.workers[shard]
                assert worker.port is not None
                with ServiceClient(
                    handle.host,
                    worker.port,
                    timeout=15.0,
                    retry=RetryPolicy(attempts=4, base_delay=0.02, seed=seed),
                ) as worker_client:
                    signature = worker_client.request("signature")
                shard_oracle = _oracle(
                    smap.shard_graph(shard), shard_acts[shard], SHARD_PARAMS
                )
                cell.check(
                    signature.get("digest") == signature_digest(shard_oracle),
                    f"signature shard-{shard}",
                )
            cell.counters.update(_counters(router))
    finally:
        restarts = deployment.total_restarts()
        if worker_specs and restarts >= 1:
            # The worker's plan (and its fired log) died with the child
            # process; reconstruct the entries from the observed crash.
            cell.reconstructed.extend(
                {
                    "site": spec.site,
                    "kind": spec.kind,
                    "hit": spec.at_count,
                    "shard": 0,
                    "reconstructed": True,
                }
                for spec in worker_specs
            )
    cell.counters["worker_restarts"] = restarts

    # Merged answer versus the whole-graph oracle at the level the
    # deployment actually answered.
    level = int(merged["level"])  # type: ignore[arg-type]
    oracle = _oracle(graph, acts, SHARD_PARAMS)
    clusters_match = _normalized_clusters(
        merged["clusters"]  # type: ignore[arg-type]
    ) == _normalized_clusters(oracle.clusters(level))
    cell.check(applied == len(acts), "applied")
    cell.check(clusters_match, "merged clusters")
    cell.notes.append(
        f"applied={applied}/{len(acts)} restarts={restarts}"
        f" forward_retries={cell.counters.get('router_forward_retries', 0):g}"
        f" scatter_timeouts={cell.counters.get('router_scatter_timeouts', 0):g}"
        f" clusters_match={clusters_match}"
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

_RUNNERS: Dict[str, Callable[[_Cell], None]] = {
    "pipeline": _run_pipeline,
    "service": _run_fleet,
    "replica": _run_fleet,
    "readpath": _run_fleet,
    "shard": _run_shard,
}


def run_scenario(
    scenario: Union[Scenario, str], seed: int, workdir: Union[str, Path]
) -> ChaosResult:
    """Run one matrix cell; never raises for in-contract failures.

    The cell's data lives in ``<workdir>/<scenario>-s<seed>``.  A
    directory left at that exact path by an earlier run is removed
    first, so a reused workdir cannot hand one run's state to the next.
    """
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    cell = _Cell(scenario, seed, Path(workdir) / f"{scenario.name}-s{seed}")
    try:
        if cell.path.exists():
            shutil.rmtree(cell.path)
        _RUNNERS[scenario.mode](cell)
    except (ServiceError, WalCorruptError, CheckpointCorruptError) as exc:
        return _verdict(cell, refused=exc)
    except Exception as exc:
        # Out-of-contract escapes map to the typed "error" status so one
        # broken cell cannot hide the rest of the matrix (ChaosResult).
        return ChaosResult(
            scenario.name,
            seed,
            "error",
            scenario.expect,
            detail=f"{type(exc).__name__}: {exc}",
            family=scenario.mode,
        )
    return _verdict(cell)


def run_matrix(
    seeds: Sequence[int] = (0, 1, 2),
    *,
    only: Optional[Sequence[str]] = None,
    workdir: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Run scenarios × seeds; returns a JSON-able report.

    ``report["silent_divergence"]`` is the count CI gates on: cells where
    recovery claimed success over state that differs from the fault-free
    oracle.  ``report["ok"]`` counts cells meeting their contract.
    """
    selected = (
        [scenario_by_name(name) for name in only]
        if only is not None
        else list(SCENARIOS)
    )
    results: List[ChaosResult] = []

    def _run_all(base: Path) -> None:
        for scenario in selected:
            for seed in seeds:
                results.append(run_scenario(scenario, seed, base))

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="anc-chaos-") as tmp:
            _run_all(Path(tmp))
    else:
        _run_all(Path(workdir))

    return {
        "seeds": list(seeds),
        "scenarios": [s.name for s in selected],
        "total": len(results),
        "ok": sum(1 for r in results if r.ok),
        "silent_divergence": sum(1 for r in results if r.silent_divergence),
        "failures": [
            f"{r.scenario}/seed{r.seed}: {r.status} (expected {r.expect})"
            for r in results
            if not r.ok
        ],
        "results": [r.to_dict() for r in results],
    }


def report_lines(report: Mapping[str, object]) -> List[str]:
    """Human-readable rows for the CLI table."""
    lines: List[str] = []
    cells = report.get("results")
    assert isinstance(cells, list)
    for cell in cells:
        assert isinstance(cell, Mapping)
        mark = "ok " if cell["ok"] else "FAIL"
        lines.append(
            f"{mark} {str(cell['scenario']):<32} seed={cell['seed']} "
            f"{str(cell['status']):<14} {cell['detail']}"
        )
    lines.append(
        f"{report['ok']}/{report['total']} cells in contract, "
        f"{report['silent_divergence']} silent divergence(s)"
    )
    return lines


def write_report(report: Mapping[str, object], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
