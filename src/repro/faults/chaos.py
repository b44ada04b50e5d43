"""The chaos matrix: every injector versus a fault-free oracle.

Each :class:`Scenario` arms one failure mode over a deterministic
synthetic workload (planted-partition graph + community-biased stream),
lets it fire, then drives the recovery protocol a real deployment would:

* **pipeline** scenarios exercise the durability layer directly — append
  each activation to the WAL, apply it, checkpoint periodically; on an
  :class:`~repro.faults.plan.InjectedCrash` (or at end of stream,
  standing in for a ``kill -9``) reopen the data directory, run
  :func:`~repro.service.snapshots.recover_engine` and have the "client"
  resend every activation past the recovered high-water mark;
* **service** scenarios run a real :class:`~repro.service.server.ANCServer`
  on a background event loop (:func:`ServerThread`) and push the stream
  through a retrying :class:`~repro.service.client.ServiceClient`, so
  socket resets, duplicated batches, overload shedding and slow-reader
  eviction hit the actual protocol path;
* **shard** scenarios run a real 2-shard deployment — worker processes
  behind a :class:`~repro.shard.router.ShardRouter` on a background
  loop (:func:`RouterThread`) — and attack the scatter-gather tier: a
  worker hard-crashing mid-batch (supervised respawn + WAL recovery +
  idempotent resend), the router→worker link dropping with requests in
  flight, and one shard stalling a scatter past the fanout deadline.
  The merged answers must match a single-engine oracle and every
  worker's signature must match its per-shard oracle (docs/sharding.md);
* **replica** scenarios run a primary *and* a WAL-shipping follower
  (two :func:`ServerThread` instances) and attack the replication
  layer: stalled/severed/reordered links, a follower hard-crashing
  mid-apply, a primary killed mid-batch with the follower promoted in
  its place, and a split brain where the deposed primary keeps running
  behind an epoch fence (docs/replication.md).  The promoted follower
  must reach the byte-identical oracle signature and a full session
  replay must stay exactly-once across the failover;
* **readpath** scenarios run a primary, *two* followers and a
  :class:`~repro.readpath.router.ReadRouter` on its own background loop
  (:func:`ReadRouterThread`) and attack the read-routing tier under a
  live read-your-writes session: followers pinned behind the session
  token by stalled fetches, a follower hard-crashing under read load,
  a promotion while tokened reads keep flowing, and a session token
  outliving a failover.  The binding contract is *no silent staleness*:
  an ``ok`` read whose ``applied`` watermark is behind the session token
  is classified ``diverged`` no matter what else went right
  (docs/replication.md § Read routing).

Every engine under test (pipeline engine, recovery, servers, shard
workers) is the array serving engine; every oracle is the dict
reference built by :func:`~repro.core.anc.reference_engine`, so each
cell's byte-identity contract also checks the two against each other
under faults.  Every run is classified against the scenario's contract:

* ``recovered`` — final engine state is **byte-identical** to the
  fault-free oracle (exact float reprs, all cluster levels);
* ``typed-failure`` — recovery refused with :class:`WalCorruptError` /
  :class:`CheckpointCorruptError` (correct when the fault destroyed
  acknowledged data);
* ``diverged`` — recovery *claimed* success but the state differs.
  This is the one outcome that is never acceptable; CI gates on it.

``repro-anc chaos`` runs the matrix from the command line and
``tests/chaos/`` asserts it under pytest (``-m chaos``).
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Hashable,
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
from ..core.anc import ANCParams, make_engine, reference_engine
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
    recover_engine,
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

    @property
    def ok(self) -> bool:
        """The run did what the scenario's contract promises."""
        return self.status == self.expect

    @property
    def silent_divergence(self) -> bool:
        """Recovery claimed success over wrong state — the CI-gating sin."""
        return self.status == "diverged"

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "expect": self.expect,
            "ok": self.ok,
            "detail": self.detail,
            "injected": self.injected,
        }


@dataclass(frozen=True)
class Scenario:
    """One armed failure mode plus its recovery contract.

    ``specs`` receives ``(seed, n_acts)`` so triggers can sit mid-stream
    regardless of the seed-dependent stream length.  ``expect`` is the
    contractual outcome: ``recovered`` (byte-identical state after the
    protocol's own resend/replay) or ``typed-failure`` (recovery must
    *refuse* because acknowledged data is unrecoverable).

    ``flow`` only applies to ``mode="replica"`` and picks the driver:
    ``steady`` (follower tails a live stream), ``catchup`` (follower
    starts after the whole stream committed), ``follower-restart``
    (follower crashes, restarts from its own disk, catches up),
    ``failover`` (primary dies mid-batch, follower promoted, session
    replayed) and ``split-brain`` (promotion while the old primary
    still runs behind the fence).
    """

    name: str
    mode: str  # "pipeline" | "service" | "replica"
    expect: str
    specs: Callable[[int, int], List[FaultSpec]]
    description: str = ""
    server: Mapping[str, object] = field(default_factory=dict)
    client_attempts: int = 6
    flow: str = "steady"


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
        flow="follower-restart",
        expect="recovered",
        description="follower hard-crashes mid-apply; restarts from disk, catches up",
        specs=lambda seed, n: [
            FaultSpec("replica.apply", "crash", at_count=_mid(n))
        ],
    ),
    Scenario(
        name="replica-failover-mid-batch",
        mode="replica",
        flow="failover",
        expect="recovered",
        description="primary killed mid-batch; follower promoted, session replayed exactly-once",
        specs=lambda seed, n: [
            FaultSpec("wal.append", "crash", at_count=_mid(n))
        ],
        client_attempts=8,
    ),
    Scenario(
        name="replica-split-brain",
        mode="replica",
        flow="split-brain",
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
    ),
    # -- readpath scenarios: the read-routing tier under fire ----------
    Scenario(
        name="readpath-lagged-follower-read",
        mode="readpath",
        flow="lagged-read",
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
    ),
    Scenario(
        name="readpath-promote-under-read-load",
        mode="readpath",
        flow="promote-under-load",
        expect="recovered",
        description=(
            "primary killed mid-batch with reads in flight; a follower is "
            "promoted and the router re-resolves roles from envelope epochs"
        ),
        specs=lambda seed, n: [
            FaultSpec("wal.append", "crash", at_count=_mid(n))
        ],
        client_attempts=10,
    ),
    Scenario(
        name="readpath-stale-token-after-failover",
        mode="readpath",
        flow="stale-token",
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
# Pipeline runner
# ----------------------------------------------------------------------

def _run_pipeline(
    scenario: Scenario, seed: int, workdir: Path
) -> ChaosResult:
    graph, acts = _build_workload(seed)
    oracle = reference_engine("ANCO", graph, QUICK_PARAMS)
    apply_activations(oracle, acts)
    expected = engine_signature(oracle)

    plan = FaultPlan(scenario.specs(seed, len(acts)), seed=seed)
    plan.set_phase("live")
    data_dir = workdir / f"{scenario.name}-s{seed}"
    store = CheckpointStore(data_dir, faults=plan)
    wal = WriteAheadLog(store.wal_path, faults=plan)
    engine = make_engine("ANCO", graph, QUICK_PARAMS)
    detail = "stream complete; simulated kill -9 at end"
    try:
        for i, act in enumerate(acts):
            wal.append(act)
            apply_activations(engine, [act])
            if (i + 1) % CHECKPOINT_EVERY == 0:
                store.write_checkpoint(engine)
    except InjectedCrash as exc:
        detail = f"crashed: {exc}"
    finally:
        wal.close()
    del engine  # a crash loses all in-memory state; recover from disk only

    plan.set_phase("recovery")
    try:
        recovered, replayed = recover_engine(
            graph, store, params=QUICK_PARAMS
        )
    except (WalCorruptError, CheckpointCorruptError) as exc:
        return ChaosResult(
            scenario.name,
            seed,
            "typed-failure",
            scenario.expect,
            detail=f"{detail}; {type(exc).__name__}: {exc}",
            injected=list(plan.fired),
        )
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
    got = engine_signature(recovered)
    status = "recovered" if got == expected else "diverged"
    return ChaosResult(
        scenario.name,
        seed,
        status,
        scenario.expect,
        detail=f"{detail}; replayed {replayed}, resent {len(resend)}",
        injected=list(plan.fired),
    )


# ----------------------------------------------------------------------
# Service runner
# ----------------------------------------------------------------------

_S = TypeVar("_S", bound=Union[ANCServer, FrontEnd])


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


def _run_service(
    scenario: Scenario, seed: int, workdir: Path
) -> ChaosResult:
    graph, acts = _build_workload(seed)
    oracle = reference_engine("ANCO", graph, QUICK_PARAMS)
    apply_activations(oracle, acts)
    expected = engine_signature(oracle)

    plan = FaultPlan(scenario.specs(seed, len(acts)), seed=seed)
    config = ServerConfig(
        port=0,
        engine="anco",
        metrics_interval=0.0,
        faults=plan,
        **scenario.server,  # type: ignore[arg-type]
    )
    retry = RetryPolicy(
        attempts=scenario.client_attempts,
        base_delay=0.02,
        max_delay=0.25,
        seed=seed,
    )
    with ServerThread(
        graph, config=config, params=QUICK_PARAMS
    ) as handle:
        assert handle.server is not None and handle.port is not None
        try:
            client = ServiceClient(
                handle.host, handle.port, timeout=5.0, retry=retry
            )
            try:
                for start in range(0, len(acts), CLIENT_BATCH):
                    chunk = acts[start : start + CLIENT_BATCH]
                    client.ingest_batch([(a.u, a.v, a.t) for a in chunk])
                applied = client.sync()
                stats = client.stats()
            finally:
                client.close()
        except ServiceError as exc:
            return ChaosResult(
                scenario.name,
                seed,
                "typed-failure",
                scenario.expect,
                detail=f"{type(exc).__name__}: {exc}",
                injected=list(plan.fired),
            )
        # The writer is idle after sync() with no traffic in flight, so
        # reading the engine from this thread observes a quiescent state.
        got = engine_signature(handle.server.host.engine)
        raw = handle.server.metrics.snapshot(rate_key=None).get("counters")
        counters: Dict[str, float] = dict(raw) if isinstance(raw, dict) else {}
        detail = (
            f"applied={applied}/{len(acts)} degraded={stats.get('degraded')}"
            f" shed={counters.get('ingest_shed', 0)}"
            f" dedup={counters.get('ingest_dedup_hits', 0)}"
            f" evictions={counters.get('slow_reader_evictions', 0)}"
        )
    if applied != len(acts) or got != expected:
        status = "diverged"
    else:
        status = "recovered"
    return ChaosResult(
        scenario.name,
        seed,
        status,
        scenario.expect,
        detail=detail,
        injected=list(plan.fired),
    )


# ----------------------------------------------------------------------
# Replica runner: primary + WAL-shipping follower under link faults
# ----------------------------------------------------------------------

#: Fault sites armed on the *follower* of a replica scenario; everything
#: else in the spec list arms on the primary (which serves ``wal_fetch``).
_REPLICA_FOLLOWER_SITES = frozenset({"replica.apply"})


def _await(check: Callable[[], bool], *, timeout: float, what: str) -> None:
    """Poll ``check`` until true or raise after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not check():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.01)


def _counters(handle: ServingThread[ANCServer]) -> Dict[str, float]:
    assert handle.server is not None
    raw = handle.server.metrics.snapshot(rate_key=None).get("counters")
    return {k: float(v) for k, v in raw.items()} if isinstance(raw, Mapping) else {}


def _node_config(
    plan: Optional[FaultPlan], data_dir: Path, **role_kwargs: object
) -> ServerConfig:
    """One durable fleet node's config (replica and readpath runners)."""
    return ServerConfig(
        port=0,
        engine="anco",
        metrics_interval=0.0,
        data_dir=data_dir,
        checkpoint_every=CHECKPOINT_EVERY,
        faults=plan,
        **role_kwargs,  # type: ignore[arg-type]
    )


def _caught_up(handle: ServingThread[ANCServer], target: int) -> bool:
    assert handle.server is not None
    host = handle.server.host
    return host.ingested >= target and host.applied >= target


def _run_replica(
    scenario: Scenario, seed: int, workdir: Path
) -> ChaosResult:
    graph, acts = _build_workload(seed)
    oracle = reference_engine("ANCO", graph, QUICK_PARAMS)
    apply_activations(oracle, acts)
    expected = engine_signature(oracle)

    specs = scenario.specs(seed, len(acts))
    primary_specs = [s for s in specs if s.site not in _REPLICA_FOLLOWER_SITES]
    follower_specs = [s for s in specs if s.site in _REPLICA_FOLLOWER_SITES]
    primary_plan = FaultPlan(primary_specs, seed=seed) if primary_specs else None
    follower_plan = FaultPlan(follower_specs, seed=seed) if follower_specs else None
    base = workdir / f"{scenario.name}-s{seed}"

    def _follower_kwargs(primary_port: int) -> Dict[str, object]:
        return {
            "role": "follower",
            "primary_host": "127.0.0.1",
            "primary_port": primary_port,
            "replica_id": f"chaos-{seed}",
            "audit_interval": 0.05,
        }

    def _start_follower(plan: Optional[FaultPlan], port: int) -> ServingThread[ANCServer]:
        handle = ServerThread(
            graph,
            config=_node_config(plan, base / "follower", **_follower_kwargs(port)),
            params=QUICK_PARAMS,
        ).start()
        threads.append(handle)
        return handle

    batches = [
        [(a.u, a.v, a.t) for a in acts[i : i + CLIENT_BATCH]]
        for i in range(0, len(acts), CLIENT_BATCH)
    ]
    keys = [f"{scenario.name}-{seed}-b{i}" for i in range(len(batches))]
    retry = RetryPolicy(
        attempts=scenario.client_attempts,
        base_delay=0.02,
        max_delay=0.25,
        seed=seed,
    )

    threads: List[ServingThread[ANCServer]] = []
    try:
        primary = ServerThread(
            graph,
            config=_node_config(
                primary_plan, base / "primary", **dict(scenario.server)
            ),
            params=QUICK_PARAMS,
        ).start()
        threads.append(primary)
        assert primary.port is not None
        follower: Optional[ServingThread[ANCServer]] = None
        if scenario.flow != "catchup":
            follower = _start_follower(follower_plan, primary.port)

        detail_extra = ""
        if scenario.flow in ("steady", "catchup", "follower-restart"):
            client = ServiceClient(
                primary.host, primary.port, timeout=5.0, retry=retry
            )
            try:
                for items, key in zip(batches, keys):
                    client.ingest_batch(items, key=key)
                applied = client.sync()
            finally:
                client.close()
            if scenario.flow == "catchup":
                follower = _start_follower(follower_plan, primary.port)
            if scenario.flow == "follower-restart":
                assert follower is not None and follower.server is not None
                _await(
                    lambda: follower.server.crashed,  # type: ignore[union-attr]
                    timeout=30.0,
                    what="the injected follower crash",
                )
                follower.stop()
                threads.remove(follower)
                follower = _start_follower(None, primary.port)
                detail_extra = " restarted-after-crash"
            assert follower is not None and follower.server is not None
            new_primary = follower
            _await(
                lambda: _caught_up(follower, len(acts)),
                timeout=30.0,
                what="follower catch-up",
            )
            got_primary = engine_signature(primary.server.host.engine)  # type: ignore[union-attr]
            in_contract = got_primary == expected
        elif scenario.flow == "failover":
            assert follower is not None and follower.port is not None
            client = ServiceClient(
                primary.host,
                primary.port,
                timeout=5.0,
                retry=retry,
                failover=[(follower.host, follower.port)],
            )
            try:
                promoted = False
                i = 0
                while i < len(batches):
                    try:
                        client.ingest_batch(batches[i], key=keys[i])
                        i += 1
                        if i == 1 and not promoted:
                            # Let the follower replicate the first batch
                            # before the crash-prone tail: the post-failover
                            # replay below must then resume against the
                            # dedup map rebuilt from *replicated* records
                            # (the exactly-once contract), not merely
                            # re-ingest into an empty promoted log.
                            _await(
                                lambda: _caught_up(follower, CLIENT_BATCH),
                                timeout=30.0,
                                what="follower replication of the first batch",
                            )
                    except ServiceError:
                        if promoted:
                            raise
                        _await(
                            lambda: primary.server.crashed,  # type: ignore[union-attr]
                            timeout=10.0,
                            what="the injected primary crash",
                        )
                        promote(
                            ("127.0.0.1", follower.port),
                            old_primary=("127.0.0.1", primary.port),
                            timeout=2.0,
                        )
                        promoted = True
                        # Replay the whole session through the promoted
                        # follower: exactly-once dedup (rebuilt from the
                        # replicated WAL) must absorb every duplicate.
                        i = 0
                applied = client.sync()
            finally:
                client.close()
            assert follower.server is not None
            new_primary = follower
            dedup_hits = _counters(follower).get("ingest_dedup_hits", 0)
            detail_extra = (
                f" promoted={promoted} epoch={follower.server.epoch}"
                f" dedup={dedup_hits:g}"
            )
            # The promoted node must outrank the dead primary's epoch 1
            # (fencing stays strict even when the old node was
            # unreachable), and the replayed session must have hit the
            # dedup map rebuilt from replicated records — both silently
            # degrade to a fresh re-ingest otherwise.
            in_contract = (
                promoted
                and follower.server.role == "primary"
                and follower.server.epoch > 1
                and dedup_hits > 0
            )
        elif scenario.flow == "split-brain":
            assert follower is not None and follower.port is not None
            client = ServiceClient(
                primary.host,
                primary.port,
                timeout=5.0,
                retry=retry,
                failover=[(follower.host, follower.port)],
            )
            try:
                half = max(1, len(batches) // 2)
                for items, key in zip(batches[:half], keys[:half]):
                    client.ingest_batch(items, key=key)
                client.sync()
                promote(
                    ("127.0.0.1", follower.port),
                    old_primary=("127.0.0.1", primary.port),
                    timeout=2.0,
                )
                # The deposed primary is still alive: the client must
                # rotate off it on FENCED and land on the new primary.
                for items, key in zip(batches[half:], keys[half:]):
                    client.ingest_batch(items, key=key)
                applied = client.sync()
            finally:
                client.close()
            probe = ServiceClient(
                primary.host,
                primary.port,
                timeout=2.0,
                retry=RetryPolicy(attempts=1),
            )
            try:
                probe.request(
                    "ingest_batch",
                    items=[list(batches[0][0])],
                    key="split-brain-probe",
                    idempotent=False,
                )
                stale_refused = False
            except ServiceError as exc:  # anclint: disable=service-exception-discipline — FENCED here is the scenario's *pass* condition; anything else (or no error) is the split-brain failure the matrix reports
                stale_refused = exc.code == "FENCED"
            finally:
                probe.close()
            assert follower.server is not None
            new_primary = follower
            detail_extra = (
                f" stale-write-refused={stale_refused}"
                f" epoch={follower.server.epoch}"
            )
            in_contract = stale_refused and follower.server.role == "primary"
        else:
            raise ValueError(f"unknown replica flow {scenario.flow!r}")

        assert new_primary.server is not None
        got_follower = engine_signature(new_primary.server.host.engine)
        counters = _counters(new_primary)
        diverged = new_primary.server.diverged
        status = (
            "recovered"
            if (
                applied == len(acts)
                and got_follower == expected
                and diverged is None
                and in_contract
            )
            else "diverged"
        )
        detail = (
            f"applied={applied}/{len(acts)}"
            f" refetches={counters.get('replica_refetches', 0):g}"
            f" link_errors={counters.get('replica_link_errors', 0):g}"
            f" audits={counters.get('replica_audits', 0):g}"
            f"{detail_extra}"
        )
        if diverged is not None:
            detail += f" diverged={diverged}"
    finally:
        # Followers first: their replication links hold connections into
        # the primary, and stopping the primary under a live link cancels
        # its handler tasks noisily.
        for handle in reversed(threads):
            handle.stop()
    fired: List[Dict[str, object]] = []
    for plan in (primary_plan, follower_plan):
        if plan is not None:
            fired.extend(plan.fired)
    return ChaosResult(
        scenario.name,
        seed,
        status,
        scenario.expect,
        detail=detail,
        injected=fired,
    )


# ----------------------------------------------------------------------
# Shard runner: the scatter-gather tier over real worker processes
# ----------------------------------------------------------------------

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


def _normalized_clusters(clusters: Sequence[Sequence[object]]) -> Tuple[Tuple[int, ...], ...]:
    """Order-free canonical form of a clustering (int labels)."""
    return tuple(
        sorted(tuple(sorted(int(v) for v in cluster)) for cluster in clusters)  # type: ignore[arg-type]
    )


def _run_shard(
    scenario: Scenario, seed: int, workdir: Path
) -> ChaosResult:
    from ..shard.router import RouterConfig
    from ..shard.shardmap import ShardMap
    from ..shard.worker import ShardDeployment

    graph, acts = build_shard_workload(seed)
    smap = ShardMap.build(graph, SHARD_COUNT, seed=0)
    shard_acts: Dict[int, List[Activation]] = {s: [] for s in range(SHARD_COUNT)}
    for act in acts:
        shard_acts[smap.shard_of_edge(act.u, act.v)].append(act)

    # The oracle a correct deployment must merge back to: one engine over
    # the whole graph and the whole stream.
    oracle = reference_engine("ANCO", graph, SHARD_PARAMS)
    apply_activations(oracle, acts)

    # Sites under ``router.`` arm in the router process; everything else
    # travels to shard 0's worker via its picklable spec (the plan — and
    # its fired log — then lives in the child).
    specs = scenario.specs(seed, len(shard_acts[0]))
    router_specs = [s for s in specs if s.site.startswith("router.")]
    worker_specs = [s for s in specs if not s.site.startswith("router.")]
    router_plan = FaultPlan(router_specs, seed=seed) if router_specs else None

    deployment = ShardDeployment(
        graph,
        shards=SHARD_COUNT,
        seed=0,
        params=SHARD_PARAMS,
        data_dir=workdir / f"{scenario.name}-s{seed}",
        checkpoint_every=CHECKPOINT_EVERY,
        fault_specs={0: worker_specs} if worker_specs else None,
        fault_seed=seed,
    )
    router_config = RouterConfig(
        faults=router_plan,
        **scenario.server,  # type: ignore[arg-type]
    )
    retry = RetryPolicy(
        attempts=scenario.client_attempts,
        base_delay=0.02,
        max_delay=0.25,
        seed=seed,
    )
    batches = [
        acts[i : i + CLIENT_BATCH] for i in range(0, len(acts), CLIENT_BATCH)
    ]
    half = max(1, len(batches) // 2)
    with RouterThread(deployment, config=router_config) as handle:
        router = handle.router
        assert router is not None and handle.port is not None
        try:
            client = ServiceClient(
                handle.host, handle.port, timeout=15.0, retry=retry
            )
            try:
                for i, chunk in enumerate(batches[:half]):
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in chunk],
                        key=f"{scenario.name}-{seed}-b{i}",
                    )
                # First scatter mid-stream: the stall scenario fires here
                # and the client must recover through its typed retry.
                client.request("clusters")
                for i, chunk in enumerate(batches[half:], start=half):
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in chunk],
                        key=f"{scenario.name}-{seed}-b{i}",
                    )
                applied = client.sync()
                merged = client.request("clusters")
            finally:
                client.close()
        except ServiceError as exc:
            fired = list(router_plan.fired) if router_plan is not None else []
            return ChaosResult(
                scenario.name,
                seed,
                "typed-failure",
                scenario.expect,
                detail=f"{type(exc).__name__}: {exc}",
                injected=fired,
            )

        # Per-shard byte-identity: each worker's signature must equal an
        # oracle engine fed only that shard's slice of the stream.
        sig_mismatches: List[int] = []
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
            shard_oracle = reference_engine(
                "ANCO", smap.shard_graph(shard), SHARD_PARAMS
            )
            apply_activations(shard_oracle, shard_acts[shard])
            if signature.get("digest") != signature_digest(shard_oracle):
                sig_mismatches.append(shard)

        restarts = deployment.total_restarts()
        router_counters = {
            name: counter.value
            for name, counter in router.metrics.counters().items()
        }

    # Merged answer versus the whole-graph oracle at the level the
    # deployment actually answered.
    level = int(merged["level"])
    clusters_match = _normalized_clusters(
        merged["clusters"]
    ) == _normalized_clusters(oracle.clusters(level))

    # Scenario-specific evidence that the armed fault actually bit.
    retries = router_counters.get("router_forward_retries", 0.0)
    timeouts = router_counters.get("router_scatter_timeouts", 0.0)
    contract_ok = True
    if scenario.name == "shard-worker-crash-mid-batch":
        contract_ok = restarts >= 1
    elif scenario.name == "shard-router-worker-partition":
        contract_ok = retries >= 2
    elif scenario.name == "shard-scatter-timeout":
        contract_ok = timeouts >= 1

    status = (
        "recovered"
        if (
            applied == len(acts)
            and not sig_mismatches
            and clusters_match
            and contract_ok
        )
        else "diverged"
    )
    detail = (
        f"applied={applied}/{len(acts)} restarts={restarts}"
        f" forward_retries={retries:g} scatter_timeouts={timeouts:g}"
        f" clusters_match={clusters_match}"
    )
    if sig_mismatches:
        detail += f" sig_mismatch={sig_mismatches}"

    fired = list(router_plan.fired) if router_plan is not None else []
    if worker_specs and restarts >= 1:
        # The worker's plan (and its fired log) died with the child
        # process; reconstruct the entries from the observed crash.
        for spec in worker_specs:
            fired.append(
                {
                    "site": spec.site,
                    "kind": spec.kind,
                    "hit": spec.at_count,
                    "shard": 0,
                    "reconstructed": True,
                }
            )
    return ChaosResult(
        scenario.name,
        seed,
        status,
        scenario.expect,
        detail=detail,
        injected=fired,
    )


# ----------------------------------------------------------------------
# Readpath runner: tokened reads through the routing tier under fire
# ----------------------------------------------------------------------

#: Client error codes a routed read may legally surface while the fleet
#: is degraded — every one is typed, none hands back stale data.
_READPATH_TYPED_DENIALS = frozenset(
    {"STALE", "RETRY_AFTER", "UNAVAILABLE", "TIMEOUT", "CONNECT"}
)


def _run_readpath(
    scenario: Scenario, seed: int, workdir: Path
) -> ChaosResult:
    from ..readpath.router import ReadRouterConfig

    graph, acts = _build_workload(seed)
    oracle = reference_engine("ANCO", graph, QUICK_PARAMS)
    apply_activations(oracle, acts)
    expected = engine_signature(oracle)

    specs = scenario.specs(seed, len(acts))
    primary_specs = [s for s in specs if s.site not in _REPLICA_FOLLOWER_SITES]
    follower_specs = [s for s in specs if s.site in _REPLICA_FOLLOWER_SITES]
    primary_plan = FaultPlan(primary_specs, seed=seed) if primary_specs else None
    follower_plan = FaultPlan(follower_specs, seed=seed) if follower_specs else None
    base = workdir / f"{scenario.name}-s{seed}"

    def _follower_kwargs(primary_port: int) -> Dict[str, object]:
        # replica_id is left at its host:port default — the identity the
        # router's auto-registration path keys on.
        return {
            "role": "follower",
            "primary_host": "127.0.0.1",
            "primary_port": primary_port,
            "audit_interval": 0.05,
        }

    batches = [
        [(a.u, a.v, a.t) for a in acts[i : i + CLIENT_BATCH]]
        for i in range(0, len(acts), CLIENT_BATCH)
    ]
    keys = [f"{scenario.name}-{seed}-b{i}" for i in range(len(batches))]
    retry = RetryPolicy(
        attempts=scenario.client_attempts,
        base_delay=0.02,
        max_delay=0.25,
        seed=seed,
    )

    # The no-silent-staleness ledger: every ok read whose applied
    # watermark trails the session token at request time is a violation.
    silent_stale: List[Tuple[int, int]] = []
    reads_ok = 0
    typed_denials = 0

    threads: List[ServingThread[ANCServer]] = []
    router_handle: Optional["ServingThread[ReadRouter]"] = None
    router: Optional["ReadRouter"] = None
    client: Optional[ServiceClient] = None
    try:
        primary = ServerThread(
            graph,
            config=_node_config(
                primary_plan, base / "primary", **dict(scenario.server)
            ),
            params=QUICK_PARAMS,
        ).start()
        threads.append(primary)
        assert primary.port is not None
        f1 = ServerThread(
            graph,
            config=_node_config(
                follower_plan, base / "f1", **_follower_kwargs(primary.port)
            ),
            params=QUICK_PARAMS,
        ).start()
        threads.append(f1)
        f2 = ServerThread(
            graph,
            config=_node_config(
                None, base / "f2", **_follower_kwargs(primary.port)
            ),
            params=QUICK_PARAMS,
        ).start()
        threads.append(f2)
        assert f1.port is not None and f2.port is not None

        router_handle = ReadRouterThread(
            ("127.0.0.1", primary.port),
            followers=[("127.0.0.1", f1.port), ("127.0.0.1", f2.port)],
            config=ReadRouterConfig(heartbeat_interval=0.05),
        ).start()
        assert router_handle.port is not None

        client = ServiceClient(
            router_handle.host,
            router_handle.port,
            timeout=5.0,
            retry=retry,
            session_reads=True,
        )

        def tokened_read() -> bool:
            """One read-your-writes read; ledgers the outcome."""
            nonlocal reads_ok, typed_denials
            token = client.session_token  # type: ignore[union-attr]
            try:
                doc = client.clusters_info()  # type: ignore[union-attr]
            except ServiceError as exc:
                if exc.code not in _READPATH_TYPED_DENIALS:
                    raise
                typed_denials += 1
                return False
            applied = int(doc.get("applied", -1))  # type: ignore[arg-type]
            if applied < token:
                silent_stale.append((token, applied))
            reads_ok += 1
            return True

        detail_extra = ""
        promoted = False
        new_primary = primary
        survivors = [primary, f1, f2]

        if scenario.flow in ("lagged-read", "follower-crash"):
            for items, key in zip(batches, keys):
                client.ingest_batch(items, key=key)
                tokened_read()
            if scenario.flow == "follower-crash":
                _await(
                    lambda: f1.server.crashed,  # type: ignore[union-attr]
                    timeout=30.0,
                    what="the injected follower crash",
                )
                # The session's reads must survive the dead follower.
                drained = sum(1 for _ in range(4) if tokened_read())
                detail_extra = f" reads-after-crash={drained}"
                survivors = [primary, f2]
            applied = client.sync()
            for handle in survivors[1:]:
                _await(
                    lambda h=handle: _caught_up(h, len(acts)),
                    timeout=30.0,
                    what="follower catch-up",
                )
        elif scenario.flow == "promote-under-load":
            i = 0
            while i < len(batches):
                try:
                    client.ingest_batch(batches[i], key=keys[i])
                    i += 1
                    if i == 1 and not promoted:
                        # First batch must replicate before the crash-prone
                        # tail so the post-failover replay resumes against
                        # the dedup map rebuilt from *replicated* records.
                        _await(
                            lambda: _caught_up(f1, CLIENT_BATCH),
                            timeout=30.0,
                            what="follower replication of the first batch",
                        )
                    tokened_read()
                except ServiceError:
                    if promoted:
                        raise
                    _await(
                        lambda: primary.server.crashed,  # type: ignore[union-attr]
                        timeout=10.0,
                        what="the injected primary crash",
                    )
                    # Reads during the outage stay typed or fresh — the
                    # ledger catches anything silently stale.
                    tokened_read()
                    promote(
                        ("127.0.0.1", f1.port),
                        old_primary=("127.0.0.1", primary.port),
                        timeout=2.0,
                    )
                    promoted = True
                    i = 0  # replay the session; dedup absorbs duplicates
            applied = client.sync()
            new_primary = f1
            survivors = [f1]
        elif scenario.flow == "stale-token":
            half = max(1, len(batches) // 2)
            for items, key in zip(batches[:half], keys[:half]):
                client.ingest_batch(items, key=key)
                tokened_read()
            pre_token = client.session_token
            _await(
                lambda: _caught_up(f1, pre_token),
                timeout=30.0,
                what="follower-1 catch-up before the planned failover",
            )
            promote(
                ("127.0.0.1", f1.port),
                old_primary=("127.0.0.1", primary.port),
                timeout=2.0,
            )
            promoted = True
            # The session token predates the failover; each of these must
            # reflect the session's writes or refuse typed.
            post = sum(1 for _ in range(4) if tokened_read())
            for items, key in zip(batches[half:], keys[half:]):
                client.ingest_batch(items, key=key)
                tokened_read()
            applied = client.sync()
            detail_extra = f" post-failover-reads={post}"
            new_primary = f1
            survivors = [f1]
        else:
            raise ValueError(f"unknown readpath flow {scenario.flow!r}")
    finally:
        if client is not None:
            client.close()
        # Router first (its heartbeats hold connections into the fleet),
        # then followers, then the primary — same reasoning as replica.
        if router_handle is not None:
            router = router_handle.router
            router_handle.stop()
        for handle in reversed(threads):
            handle.stop()

    assert router is not None
    rc = {
        name: counter.value for name, counter in router.metrics.counters().items()
    }
    stale_bounces = rc.get("readpath_stale_bounces", 0.0)
    follower_reads = rc.get("readpath_follower_reads", 0.0)
    primary_reads = rc.get("readpath_primary_reads", 0.0)
    reresolves = rc.get("readpath_reresolves", 0.0)
    upstream_errors = rc.get("readpath_upstream_errors", 0.0)

    # Scenario-specific evidence that the armed fault actually bit the
    # routing tier (beyond the fleet merely surviving it).
    if scenario.flow == "lagged-read":
        contract_ok = stale_bounces + primary_reads >= 1
    elif scenario.flow == "follower-crash":
        assert f1.server is not None
        contract_ok = f1.server.crashed and upstream_errors >= 1
    elif scenario.flow == "promote-under-load":
        assert f1.server is not None
        contract_ok = (
            promoted
            and f1.server.role == "primary"
            and f1.server.epoch > 1
            and _counters(f1).get("ingest_dedup_hits", 0) > 0
            and reresolves >= 1
        )
    else:  # stale-token
        assert f1.server is not None
        contract_ok = (
            promoted
            and f1.server.role == "primary"
            and f1.server.epoch > 1
            and reads_ok >= 1
        )

    sig_mismatches = [
        f"{handle.host}:{handle.port}"
        for handle in survivors
        if engine_signature(handle.server.host.engine) != expected  # type: ignore[union-attr]
    ]
    assert new_primary.server is not None
    diverged = new_primary.server.diverged

    status = (
        "recovered"
        if (
            applied == len(acts)
            and not silent_stale
            and not sig_mismatches
            and diverged is None
            and contract_ok
        )
        else "diverged"
    )
    detail = (
        f"applied={applied}/{len(acts)} reads_ok={reads_ok}"
        f" typed_denials={typed_denials} silent_stale={len(silent_stale)}"
        f" follower_reads={follower_reads:g} primary_reads={primary_reads:g}"
        f" stale_bounces={stale_bounces:g} reresolves={reresolves:g}"
        f"{detail_extra}"
    )
    if sig_mismatches:
        detail += f" sig_mismatch={sig_mismatches}"
    if diverged is not None:
        detail += f" diverged={diverged}"

    fired: List[Dict[str, object]] = []
    for plan in (primary_plan, follower_plan):
        if plan is not None:
            fired.extend(plan.fired)
    return ChaosResult(
        scenario.name,
        seed,
        status,
        scenario.expect,
        detail=detail,
        injected=fired,
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

_RUNNERS: Dict[str, Callable[[Scenario, int, Path], ChaosResult]] = {
    "pipeline": _run_pipeline,
    "service": _run_service,
    "replica": _run_replica,
    "shard": _run_shard,
    "readpath": _run_readpath,
}


def run_scenario(
    scenario: Union[Scenario, str], seed: int, workdir: Union[str, Path]
) -> ChaosResult:
    """Run one matrix cell; never raises for in-contract failures."""
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    runner = _RUNNERS[scenario.mode]
    try:
        return runner(scenario, seed, Path(workdir))
    except Exception as exc:
        # Out-of-contract escapes map to the typed "error" status so one
        # broken cell cannot hide the rest of the matrix (ChaosResult).
        return ChaosResult(
            scenario.name,
            seed,
            "error",
            scenario.expect,
            detail=f"{type(exc).__name__}: {exc}",
        )


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
