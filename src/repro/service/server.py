"""The asyncio TCP server: JSON-lines protocol over the engine host.

Stdlib-only.  Each connection carries newline-delimited JSON requests;
every request gets exactly one JSON response (``{"ok": true, ...}`` or
``{"ok": false, "error": ...}``), echoing the request's ``id`` when one
was sent, so clients may pipeline.  See ``docs/service.md`` for the full
protocol table.

Wiring (one of everything):

    clients ──TCP──> handlers ──ingest──> MicroBatcher ──> EngineHost
                         │                                    │
                         └──────── queries ◄── PublishedState ┘
    WAL append on ingest; periodic checkpoints through the host's
    writer thread; periodic metrics log line.

On startup with a ``data_dir`` the server first recovers: newest
complete checkpoint + WAL tail replay (see
:mod:`~repro.service.snapshots`), so a ``kill -9`` loses nothing that
was acknowledged.

A server runs as the ``primary`` (writable) or as a ``follower`` — a
warm standby that pulls committed WAL records from its primary (the
long-polled ``wal_fetch`` op, driven by
:class:`repro.replica.link.ReplicationLink`), serves read-only snapshot
queries and can be promoted on failover.  Every response envelope is
stamped with the node's ``epoch`` and ``role``; epoch fencing and the
divergence auditor are documented in ``docs/replication.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import re
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from ..core.activation import Activation
from ..core.anc import ANCParams, make_engine
from ..graph.graph import Graph, edge_key
from ..obs.export import render_prometheus, span_dicts, trace_op
from ..obs.profiler import SamplingProfiler
from ..obs.propagate import TraceContext
from ..obs.instruments import MetricsRegistry
from ..obs.trace import Observability, Tracer
from .engine_host import EngineHost
from .errors import (
    Diverged,
    Fenced,
    Overloaded,
    ReadOnly,
    Stale,
    UnknownOp,
    fault_response,
)
from .ingest import MicroBatcher
from .snapshots import CheckpointStore, WalRecord, WriteAheadLog, recover_to
from .wire import LINE_LIMIT

if TYPE_CHECKING:  # hook-only dependency (see repro.faults)
    from ..faults.plan import FaultPlan

__all__ = ["MAX_KEY_LEN", "ANCServer", "ServerConfig"]

log = logging.getLogger("repro.service")

#: Cap on a ``wal_fetch`` request's ``wait`` (seconds): the longest a
#: caught-up fetch may park on this node before answering empty.
MAX_FETCH_WAIT = 5.0

#: Longest ``ingest_batch`` key: every WAL record of the batch carries
#: it, so a 4,096-record ``wal_fetch`` chunk stays near 1.3 MB.
MAX_KEY_LEN = 256


async def _wait_set(event: asyncio.Event, seconds: float) -> None:
    """Return once ``event`` is set or ``seconds`` have passed."""
    try:
        async with asyncio.timeout(seconds):
            await event.wait()
    except TimeoutError:
        pass


@dataclass
class ServerConfig:
    """Operational knobs of one server process."""

    host: str = "127.0.0.1"
    #: Port to bind; 0 picks a free port (read :attr:`ANCServer.port` after start).
    port: int = 0
    #: Engine to serve: ``anco`` / ``ancor`` / ``ancf``.
    engine: str = "anco"
    #: Micro-batch flush thresholds (see :class:`MicroBatcher`).
    batch_size: int = 64
    max_latency: float = 0.05
    #: Intake queue bound — the backpressure limit.
    max_pending: int = 4096
    #: Durability directory (WAL + checkpoints); None = in-memory only.
    data_dir: Optional[Union[str, Path]] = None
    #: Checkpoint after this many applied activations (0 = only on shutdown).
    checkpoint_every: int = 2000
    #: Also checkpoint at least every this many seconds (0 = disabled).
    checkpoint_interval: float = 0.0
    #: Period of the metrics log line (0 = disabled).
    metrics_interval: float = 30.0
    #: Span ring-buffer capacity of the engine tracer (``trace`` op).
    trace_capacity: int = 8192
    #: Queue depth at which ingest *sheds* with a typed ``RETRY_AFTER``
    #: instead of delaying the acknowledgement (0 = never shed).
    shed_watermark: int = 0
    #: Evict a connection whose response write does not drain within this
    #: many seconds — a stalled/slow reader (0 = wait forever).
    write_timeout: float = 30.0
    #: How long the ``degraded`` flag stays up after a shed or eviction.
    degraded_hold: float = 5.0
    #: Remembered ``ingest_batch`` keys for idempotent resend (LRU bound).
    dedup_capacity: int = 1024
    #: Role of this node: ``primary`` (writable) or ``follower`` (a
    #: read-only replica; pair with ``primary_host``/``primary_port``).
    role: str = "primary"
    #: Endpoint of the primary a follower replicates from.
    primary_host: Optional[str] = None
    primary_port: int = 0
    #: Identity under which a follower fetches (default ``host:port``).
    replica_id: str = ""
    #: In-memory WAL tail kept for followers, so ``wal_fetch`` is served
    #: without touching the disk until a follower falls far behind.
    wal_tail_capacity: int = 4096
    #: Divergence-audit cadence on a follower (seconds; 0 = disabled).
    audit_interval: float = 0.25
    #: Start the sampling profiler at boot (``serve --profile``); the
    #: ``profile`` op starts/stops it live either way.
    profile: bool = False
    #: Sampling cadence of the wall-clock profiler (prime by default so
    #: the cadence cannot phase-lock with periodic work).
    profile_hz: float = 97.0
    #: Shard id when this server runs as a :mod:`repro.shard` worker;
    #: stamped on every response envelope (and ``stats``) so routers and
    #: operators can attribute answers.  ``None`` = unsharded.
    shard_id: Optional[int] = None
    #: Fault-injection plan (:mod:`repro.faults`); ``None`` = disarmed.
    faults: "Optional[FaultPlan]" = None


class _BatchEntry:
    """Idempotency state of one keyed ``ingest_batch``.

    ``done`` counts the items already ingested under this key, so a
    retry after a mid-batch failure (reset, shed) *resumes* rather than
    re-appending the prefix — the exactly-once half of the client's
    at-least-once resend.  ``future`` resolves to the response so a
    concurrent duplicate awaits the original instead of racing it.
    """

    __slots__ = ("done", "last_seq", "future")

    def __init__(self) -> None:
        self.done = 0
        self.last_seq = -1
        self.future: Optional[asyncio.Future] = None


class ANCServer:
    """A long-lived clustering service over one relation network.

    Parameters
    ----------
    graph:
        The relation network ``G(V, E)``.
    names:
        Original node labels (``names[i]`` for dense id ``i``) as
        returned by the edge-list readers; protocol messages use these
        labels.  ``None`` serves dense integer ids directly.
    config:
        Operational knobs; see :class:`ServerConfig`.
    params:
        Engine parameters for a cold start (a recovered checkpoint's
        stored parameters win over these).
    """

    def __init__(
        self,
        graph: Graph,
        names: Optional[Sequence[Hashable]] = None,
        *,
        config: Optional[ServerConfig] = None,
        params: Optional[ANCParams] = None,
    ) -> None:
        self.graph = graph
        self.config = config or ServerConfig()
        self.names = list(names) if names is not None else None
        self._label_to_id: Dict[str, int] = (
            {str(name): i for i, name in enumerate(self.names)}
            if self.names is not None
            else {}
        )

        if self.config.role not in ("primary", "follower"):
            raise ValueError(
                f"unknown role {self.config.role!r}; expected "
                f"'primary' or 'follower'"
            )

        self._faults = self.config.faults
        store: Optional[CheckpointStore] = None
        wal: Optional[WriteAheadLog] = None
        recovered_epoch = 0
        recovered_dedup: "OrderedDict[str, _BatchEntry]" = OrderedDict()
        if self.config.data_dir is not None:
            store = CheckpointStore(self.config.data_dir, faults=self._faults)
            recovery = recover_to(
                graph,
                store,
                params=params,
                engine_name=self.config.engine.upper(),
            )
            engine = recovery.engine
            recovered_epoch = recovery.epoch
            # Rebuild the exactly-once dedup map from the keyed WAL
            # records (capped to the newest ``dedup_capacity`` keys), so
            # a client resend that straddles the restart resumes instead
            # of double-applying.
            for key, (done, last_seq) in list(recovery.dedup.items())[
                -max(1, self.config.dedup_capacity):
            ]:
                entry = _BatchEntry()
                entry.done = done
                entry.last_seq = last_seq
                recovered_dedup[key] = entry
            if recovery.replayed or engine.activations_processed:
                log.info(
                    "recovered engine at %d activations (%d replayed from "
                    "WAL, epoch %d, %d dedup keys)",
                    engine.activations_processed,
                    recovery.replayed,
                    recovery.epoch,
                    len(recovered_dedup),
                )
            wal = WriteAheadLog(store.wal_path, faults=self._faults)
        else:
            engine = make_engine(self.config.engine.upper(), graph, params)

        self.metrics = MetricsRegistry()
        # Engine-deep observability: one registry + one tracer shared by
        # the engine, its index, the query engine and the watcher.  The
        # tracer starts disabled (the no-op fast path); the ``trace`` op
        # turns it on live.
        self.tracer = Tracer(enabled=False, capacity=self.config.trace_capacity)
        self.profiler = SamplingProfiler(self.config.profile_hz, tracer=self.tracer)
        self.obs = Observability(registry=self.metrics, tracer=self.tracer)
        engine.attach_obs(self.obs)
        if self._faults is not None:
            self._faults.attach_obs(self.obs)
        self.batcher = MicroBatcher(
            batch_size=self.config.batch_size,
            max_latency=self.config.max_latency,
            max_pending=self.config.max_pending,
        )
        self.batcher.faults = self._faults
        self.host = EngineHost(
            engine,
            self.batcher,
            wal=wal,
            checkpoints=store,
            checkpoint_every=self.config.checkpoint_every,
            metrics=self.metrics,
            shed_watermark=self.config.shed_watermark,
        )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._run_task: Optional[asyncio.Task] = None
        self._background: List[asyncio.Task] = []
        self._stop = asyncio.Event()
        # Graceful-degradation state: sticks for ``degraded_hold`` seconds
        # after the last shed/eviction so operators see transients.
        self._degraded_until = 0.0
        self._dedup: "OrderedDict[str, _BatchEntry]" = recovered_dedup

        # -- replication state (docs/replication.md) -------------------
        #: ``primary`` | ``follower`` (promote flips a follower live).
        self.role = self.config.role
        #: This node's primary epoch — the fencing token.  A fresh
        #: primary starts at 1 (0 marks pre-replication data); followers
        #: adopt the epochs of the records they apply.
        self.epoch = (
            max(recovered_epoch, 1)
            if self.role == "primary"
            else recovered_epoch
        )
        #: Highest epoch a ``fence`` op stamped on this node; writes are
        #: refused while ``fenced_by > epoch`` (the deposed primary).
        self.fenced_by = 0
        #: Sticky divergence-audit verdict; ``None`` = consistent.
        self.diverged: Optional[str] = None
        #: The follower's replication link (started by :meth:`start`).
        self.replication: Optional[object] = None
        self.host.epoch = self.epoch
        if wal is not None:
            wal.epoch = self.epoch
            wal.on_append = self._on_wal_append
        #: Recent committed records served to followers without a file scan.
        self._wal_tail: Deque[WalRecord] = deque(
            maxlen=max(1, self.config.wal_tail_capacity)
        )
        #: Set (and dropped) by the next WAL append; caught-up
        #: ``wal_fetch`` requests park on it.  Created by the first parker.
        self._appended: Optional[asyncio.Event] = None
        #: follower id -> {"applied": int, "last_seen": monotonic seconds}.
        self._replicas: Dict[str, Dict[str, float]] = {}
        self._crashed = False
        self._conns: Set[asyncio.StreamWriter] = set()

        self._c_evictions = self.metrics.counter("slow_reader_evictions")
        self._c_dedup = self.metrics.counter("ingest_dedup_hits")
        self._c_fetch = self.metrics.counter("wal_fetch_served")
        self.metrics.gauge("degraded", lambda: 1.0 if self.degraded else 0.0)
        self.metrics.gauge("epoch", lambda: float(self.epoch))
        self.metrics.gauge(
            "replica_diverged", lambda: 1.0 if self.diverged else 0.0
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the writer + background tasks."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.profile:
            self.profiler.start()
        self._run_task = asyncio.create_task(self.host.run())
        if self.config.metrics_interval > 0:
            self._background.append(
                asyncio.create_task(self._metrics_loop(self.config.metrics_interval))
            )
        if self.config.checkpoint_interval > 0 and self.host.checkpoints is not None:
            self._background.append(
                asyncio.create_task(
                    self._checkpoint_loop(self.config.checkpoint_interval)
                )
            )
        if self.role == "follower" and self.config.primary_host is not None:
            # Deferred import: repro.replica builds on this module.
            from ..replica.link import ReplicationLink

            link = ReplicationLink(
                self,
                (self.config.primary_host, int(self.config.primary_port)),
                replica_id=self.config.replica_id
                or f"{self.config.host}:{self.port}",
                audit_interval=self.config.audit_interval,
            )
            self.replication = link
            self._background.append(asyncio.create_task(link.run()))
        log.info(
            "serving on %s:%d as %s (epoch %d)",
            self.config.host,
            self.port,
            self.role,
            self.epoch,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a client ``shutdown``), then drain."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self._shutdown()

    async def run(self, *, announce: Optional[Callable[[str], object]] = None) -> None:
        """Start, announce ``SERVING <host> <port>``, serve until stopped.

        ``announce`` is a callable receiving the announce line (default:
        print to stdout, which the benchmark's process harness parses).
        """
        await self.start()
        line = f"SERVING {self.config.host} {self.port}"
        if announce is None:
            print(line, flush=True)
        else:
            announce(line)
        await self.serve_forever()

    def request_stop(self) -> None:
        """Ask the server to shut down (idempotent, safe from handlers)."""
        self._stop.set()

    async def stop(self) -> None:
        """Request and await a graceful shutdown."""
        self.request_stop()
        if self._server is not None:
            await self._shutdown()

    def _crash(self) -> None:
        """Simulated ``kill -9`` (chaos only): die *now*, clean up nothing.

        Every connection is aborted mid-conversation, the queue is
        dropped on the floor and no final checkpoint is cut — recovery
        must come from the WAL plus the last complete checkpoint alone,
        exactly like a real sudden process death.
        """
        if self._crashed:
            return
        self._crashed = True
        log.warning("injected crash: hard-stopping the server")
        for writer in list(self._conns):
            writer.transport.abort()
        self.request_stop()

    async def _shutdown(self) -> None:
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        # Close the connections too: from 3.12 on ``wait_closed()``
        # waits for every client to hang up, and a follower's parked
        # fetch or a router's pooled connection never would.
        self._release_fetches()
        await asyncio.sleep(0)  # released fetches answer before the hang-up
        for writer in list(self._conns):
            writer.close()
        await server.wait_closed()
        for task in self._background:
            task.cancel()
        for task in self._background:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._background.clear()
        if self._crashed:
            # kill -9 semantics: no drain, no final checkpoint.
            if self._run_task is not None:
                self._run_task.cancel()
                try:
                    await self._run_task
                except asyncio.CancelledError:
                    pass
            await self.host.abort()
        else:
            # Drain the queue, cut a final checkpoint, stop the writer.
            await self.host.close(self._run_task)
        if self.host.wal is not None:
            self.host.wal.close()
        self.profiler.stop()
        if self._crashed:
            log.info("crashed hard at %d applied activations", self.host.applied)
        else:
            log.info("shut down cleanly at %d activations", self.host.applied)

    async def _metrics_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            log.info("metrics %s", self.metrics.log_line())

    async def _checkpoint_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            await self.host.checkpoint()

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Overloaded now, or shed/evicted within the last ``degraded_hold`` s.

        Surfaced in the ``stats`` op and as the ``degraded`` Prometheus
        gauge; the contract is in docs/faults.md.
        """
        watermark = self.config.shed_watermark
        if watermark > 0 and self.batcher.depth >= watermark:
            return True
        return time.monotonic() < self._degraded_until

    def _note_degraded(self) -> None:
        self._degraded_until = time.monotonic() + self.config.degraded_hold

    # ------------------------------------------------------------------
    # Replication plumbing (docs/replication.md)
    # ------------------------------------------------------------------
    @property
    def fenced(self) -> bool:
        """True once a newer primary's fence deposed this node."""
        return self.fenced_by > self.epoch

    @property
    def crashed(self) -> bool:
        """True after an injected hard crash; the replication link exits."""
        return self._crashed

    def _require_writable(self) -> None:
        """Refuse writes on any node that is not the live primary."""
        if self.role != "primary":
            raise ReadOnly(
                f"this node is a {self.role}; ingest goes to the primary"
            )
        if self.fenced:
            raise Fenced(
                f"this primary (epoch {self.epoch}) was deposed by epoch "
                f"{self.fenced_by}; ingest goes to the new primary",
                epoch=self.epoch,
                fenced_by=self.fenced_by,
            )

    def _require_queryable(self) -> None:
        """Refuse cluster queries once the divergence auditor tripped."""
        if self.diverged is not None:
            raise Diverged(
                f"refusing cluster queries on diverged state: {self.diverged}"
            )

    def _replication_lag(self) -> int:
        """Records this node trails its primary by (0 on a primary)."""
        link = self.replication
        if link is None:
            return 0
        return int(link.lag)  # type: ignore[attr-defined]

    def _check_read_bound(self, request: Dict) -> None:
        """Enforce the read-path consistency bounds on a snapshot query.

        ``token`` is the client session's required applied watermark
        (read-your-writes: a write response's ``seq + 1``);
        ``max_staleness`` bounds how many records this node may trail
        its primary by.  Either violation raises the typed
        :class:`Stale` carrying this node's current watermark — never a
        silently stale answer (docs/replication.md § Read routing).
        """
        applied = self.host.applied
        token = request.get("token")
        if token is not None:
            required = int(token)  # type: ignore[arg-type]
            if required > applied:
                raise Stale(
                    f"applied watermark {applied} is behind session "
                    f"token {required}",
                    applied=applied,
                    required=required,
                )
        bound = request.get("max_staleness")
        if bound is not None:
            lag = self._replication_lag()
            if lag > int(bound):  # type: ignore[arg-type]
                raise Stale(
                    f"replication lag {lag} exceeds max_staleness {bound}",
                    applied=applied,
                    required=applied + lag,
                )

    def mark_diverged(self, detail: str) -> None:
        """Trip the sticky ``diverged`` state (divergence auditor verdict)."""
        if self.diverged is None:
            self.diverged = detail
            self._note_degraded()
            log.error("replica diverged: %s", detail)

    def _on_wal_append(self, record: WalRecord) -> None:
        # Fires on the event-loop thread (both host.ingest and
        # apply_replicated run there), so the deque needs no lock.
        self._wal_tail.append(record)
        self._release_fetches()

    def _release_fetches(self) -> None:
        """Answer every parked ``wal_fetch`` now: on each append, and on a
        stop (a crash included), fence or promotion, so that neither a
        shutdown nor a failover waits out a park."""
        appended, self._appended = self._appended, None
        if appended is not None:
            appended.set()

    def _wal_entries(self) -> int:
        """Committed records in this node's log (the replication head)."""
        wal = self.host.wal
        return wal.entries if wal is not None else self.host.ingested

    def _wal_slice(self, from_seq: int, limit: int) -> List[WalRecord]:
        """Records ``[from_seq, from_seq + limit)`` — tail buffer first.

        Tail seqs are contiguous, so the slice is indexed by offset.
        Falls back to a file scan when the follower is further behind
        than the in-memory tail reaches; a WAL-less (in-memory) node can
        only serve what its tail buffer still holds.
        """
        tail = self._wal_tail
        if tail and tail[0].seq <= from_seq:
            start = from_seq - tail[0].seq
            return [tail[i] for i in range(start, min(start + limit, len(tail)))]
        if from_seq >= self._wal_entries() or self.host.wal is None:
            return []
        return list(
            itertools.islice(
                WriteAheadLog.replay_records(self.host.wal.path, skip=from_seq),
                limit,
            )
        )

    def _note_replica(self, follower: str, applied: int) -> None:
        """Record a follower's progress; lazily register its lag gauge."""
        now = time.monotonic()
        info = self._replicas.get(follower)
        if info is None:
            info = self._replicas[follower] = {
                "applied": 0.0,
                "last_seen": 0.0,
                "advanced_at": now,
            }
            gauge = "replica_lag_" + re.sub(r"\W", "_", follower)
            self.metrics.gauge(
                gauge,
                lambda f=follower: float(
                    max(0, self._wal_entries() - int(self._replicas[f]["applied"]))
                ),
            )
        if float(applied) > info["applied"]:
            info["applied"] = float(applied)
            info["advanced_at"] = now
        info["last_seen"] = now

    async def apply_replicated(self, record: WalRecord) -> int:
        """Apply one fetched primary record (called by the follower link).

        Beyond the host's WAL-level gap/epoch refusal this maintains the
        server-side exactly-once dedup map, so a client batch resent
        across a failover resumes on the promoted follower exactly where
        the old primary's replicated records left it.
        """
        if self.role != "follower":
            raise ReadOnly("only a follower applies replicated records")
        if self._faults is not None:
            action = self._faults.hit("replica.apply", seq=record.seq)
            if action is not None and action.kind == "crash":
                from ..faults.plan import InjectedCrash

                self._crash()
                raise InjectedCrash(
                    "replica.apply",
                    action.kind,
                    f"crashed applying replicated seq {record.seq}",
                )
        seq = await self.host.apply_replicated(record)
        self.epoch = max(self.epoch, record.epoch)
        self.host.epoch = self.epoch
        if record.key is not None:
            entry = self._dedup.get(record.key)
            if entry is None:
                entry = self._dedup[record.key] = _BatchEntry()
                self._trim_dedup()
            else:
                self._dedup.move_to_end(record.key)
            entry.done += 1
            entry.last_seq = seq
        return seq

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def _label(self, v: int) -> Union[str, int]:
        return str(self.names[v]) if self.names is not None else v

    def _labels(self, nodes: Sequence[int]) -> List[Union[str, int]]:
        return [self._label(v) for v in nodes]

    def _resolve_node(self, raw: object) -> int:
        """Map a protocol node reference (label or dense id) to a node id."""
        if self.names is not None:
            v = self._label_to_id.get(str(raw))
            if v is not None:
                return v
        if isinstance(raw, int) or (isinstance(raw, str) and raw.lstrip("-").isdigit()):
            v = int(raw)
            if self.graph.has_node(v):
                return v
        raise ValueError(f"unknown node {raw!r}")

    def _resolve_activation(self, item: Sequence[object]) -> Activation:
        if len(item) != 3:
            raise ValueError(f"activation must be [u, v, t], got {item!r}")
        u = self._resolve_node(item[0])
        v = self._resolve_node(item[1])
        if u == v:
            raise ValueError(f"self-activation on node {item[0]!r}")
        u, v = edge_key(u, v)
        if not self.graph.has_edge(u, v):
            raise ValueError(f"({item[0]!r}, {item[1]!r}) is not a relation edge")
        t = self.host.clamp_time(float(item[2]))
        return Activation(u, v, t)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        try:
            if self._faults is not None:
                action = self._faults.hit("server.accept")
                if action is not None and action.kind == "reset":
                    writer.transport.abort()
                    return
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                if self._faults is not None:
                    action = self._faults.hit("server.request")
                    if action is not None:
                        if action.kind == "reset":
                            writer.transport.abort()
                            return
                        if action.kind == "delay":
                            await asyncio.sleep(action.seconds())
                response = await self._handle_request(line)
                if response is None:
                    # Injected link drop or crash: sever, never answer.
                    writer.transport.abort()
                    return
                writer.write(json.dumps(response).encode() + b"\n")
                if not await self._drain(writer):
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):  # anclint: disable=service-exception-discipline — peer went away mid-conversation; no one is left to answer, so closing our side (the finally below) is the handling
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # anclint: disable=service-exception-discipline — the close handshake racing the peer's reset is how an already-dead connection finishes; nothing to map
                pass

    async def _drain(self, writer: asyncio.StreamWriter) -> bool:
        """Flush one response, evicting a reader that will not take it.

        A client that stops reading (the stalled-consumer failure mode)
        would otherwise pin this handler — and its buffered responses —
        forever.  ``write_timeout`` bounds the wait; on expiry the
        connection is aborted and counted (``slow_reader_evictions``),
        and the server flags itself degraded.  Returns False when the
        connection was evicted.
        """
        timeout = self.config.write_timeout
        stalled = 0.0
        if self._faults is not None:
            action = self._faults.hit("server.send")
            if action is not None and action.kind == "stall":
                # Deterministic stand-in for "drain never completes":
                # hold the handler like a full socket buffer would.
                stalled = action.seconds()
        try:
            if stalled > 0.0:
                await asyncio.wait_for(asyncio.sleep(stalled), timeout or None)
            await asyncio.wait_for(writer.drain(), timeout or None)
        except asyncio.TimeoutError:
            self._c_evictions.inc()
            self._note_degraded()
            log.warning("evicting slow reader (write stalled > %.1fs)", timeout)
            writer.transport.abort()
            return False
        return True

    def _is_injected_crash(self, exc: BaseException) -> bool:
        if self._faults is None:
            return False
        from ..faults.plan import InjectedCrash

        return isinstance(exc, InjectedCrash)

    async def _handle_request(self, raw: bytes) -> Optional[Dict[str, object]]:
        """Answer one request; ``None`` means "sever the connection".

        Every envelope is stamped with this node's ``epoch`` and ``role``
        so clients can reject answers from a deposed primary (the
        stale-read half of fencing; docs/replication.md).
        """
        request_id: object = None
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise UnknownOp(f"unknown op {op!r}")
            # Bind the request's trace context (when the client sent one)
            # around the whole dispatch: a sampled request records one
            # ``server.<op>`` span parented to the caller's span, and any
            # request this handler makes downstream inherits the context.
            ctx = TraceContext.from_wire(request.get("trace"))
            with self.tracer.wire_span(f"server.{op}", ctx, op=str(op)):
                response = await handler(self, request)
            response.setdefault("ok", True)
        except ConnectionResetError:  # anclint: disable=service-exception-discipline — the injected replication-link drop: the contract is *no* answer, so the connection is severed instead of mapped
            return None
        except Exception as exc:  # protocol boundary: map to a typed envelope
            if self._is_injected_crash(exc):
                # Simulated kill -9 escaping a handler: the process is
                # gone; nobody is left to send a response.
                self._crash()
                return None
            if isinstance(exc, Overloaded):
                self._note_degraded()
            response = fault_response(exc)
        response["epoch"] = self.epoch
        response["role"] = self.role
        if self.config.shard_id is not None:
            response["shard"] = self.config.shard_id
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------
    async def _op_ping(self, request: Dict) -> Dict[str, object]:
        return {"t": self.host.state.t, "applied": self.host.applied}

    async def _op_ingest(self, request: Dict) -> Dict[str, object]:
        self._require_writable()
        act = self._resolve_activation(
            [request.get("u"), request.get("v"), request.get("t", self.host.state.t)]
        )
        seq = await self.host.ingest(act)
        return {"seq": seq, "t": act.t}

    async def _op_ingest_batch(self, request: Dict) -> Dict[str, object]:
        self._require_writable()
        items = request.get("items")
        if not isinstance(items, list):
            raise ValueError("ingest_batch needs a list 'items' of [u, v, t]")
        key = request.get("key")
        if isinstance(key, str) and (not key or any(ch.isspace() for ch in key)):
            # Keys are persisted inside space-delimited WAL records.
            raise ValueError(
                "ingest_batch key must be non-empty and whitespace-free"
            )
        if isinstance(key, str) and len(key) > MAX_KEY_LEN:
            raise ValueError(
                f"ingest_batch key is longer than {MAX_KEY_LEN} characters"
            )
        if self._faults is not None:
            action = self._faults.hit("server.ingest_batch", key=key)
            if action is not None:
                if action.kind == "delay":
                    await asyncio.sleep(action.seconds())
                elif action.kind == "duplicate" and isinstance(key, str):
                    # Network-level duplication: the same request arrives
                    # twice; the second pass must dedup against the first.
                    await self._ingest_batch_keyed(key, items)
                    return await self._ingest_batch_keyed(key, items)
        if not isinstance(key, str):
            # Legacy un-keyed path: at-most-once, no resend safety.
            seq = -1
            for item in items:
                act = self._resolve_activation(item)
                seq = await self.host.ingest(act)
            return {"accepted": len(items), "seq": seq}
        return await self._ingest_batch_keyed(key, items)

    async def _ingest_batch_keyed(
        self, key: str, items: List[object]
    ) -> Dict[str, object]:
        """Idempotent ingest: at-least-once delivery, exactly-once apply.

        The client keys each batch by its own sequence number and resends
        the *same* key on retry.  Completed keys replay their cached
        response; an in-flight duplicate awaits the original; a key whose
        previous attempt failed mid-batch resumes from the first
        un-ingested item (see :class:`_BatchEntry`).
        """
        entry = self._dedup.get(key)
        if entry is None:
            entry = self._dedup[key] = _BatchEntry()
            self._trim_dedup()
        else:
            self._dedup.move_to_end(key)
        future = entry.future
        if future is not None:
            if not future.done():
                self._c_dedup.inc()
                result = await future
                return {**result, "deduped": True}
            if not future.cancelled() and future.exception() is None:
                self._c_dedup.inc()
                return {**future.result(), "deduped": True}
            # The previous attempt failed partway; fall through and resume.
        if entry.done:
            # Resuming a key whose prefix is already applied — by this
            # node's own failed attempt, or by records replicated from a
            # deposed primary before a failover. Either way the resend
            # is being absorbed by the dedup map, not re-ingested.
            self._c_dedup.inc()
        entry.future = asyncio.get_running_loop().create_future()
        try:
            while entry.done < len(items):
                act = self._resolve_activation(items[entry.done])  # type: ignore[arg-type]
                entry.last_seq = await self.host.ingest(act, key=key)
                entry.done += 1
            response: Dict[str, object] = {
                "accepted": len(items),
                "seq": entry.last_seq,
            }
        except BaseException as exc:
            if not entry.future.done():
                entry.future.set_exception(exc)
                entry.future.exception()  # mark retrieved; retries re-raise via `raise`
            raise
        entry.future.set_result(response)
        return response

    def _trim_dedup(self) -> None:
        """Drop the oldest *settled* dedup keys past the capacity bound."""
        capacity = max(1, self.config.dedup_capacity)
        for key in list(self._dedup):
            if len(self._dedup) <= capacity:
                break
            entry = self._dedup[key]
            if entry.future is None or entry.future.done():
                del self._dedup[key]

    async def _op_clusters(self, request: Dict) -> Dict[str, object]:
        self._require_queryable()
        self._check_read_bound(request)
        level, clusters = await self.host.clusters(request.get("level"))
        min_size = int(request.get("min_size", 1))
        state = self.host.state
        return {
            "level": level,
            "num_levels": state.num_levels,
            "t": state.t,
            "applied": state.activations,
            "clusters": [
                self._labels(c) for c in clusters if len(c) >= min_size
            ],
        }

    async def _op_local(self, request: Dict) -> Dict[str, object]:
        self._require_queryable()
        self._check_read_bound(request)
        node = self._resolve_node(request.get("node"))
        level, cluster = await self.host.cluster_of(node, request.get("level"))
        state = self.host.state
        return {
            "level": level,
            "t": state.t,
            "applied": state.activations,
            "cluster": self._labels(cluster),
        }

    async def _op_zoom_in(self, request: Dict) -> Dict[str, object]:
        return {"level": self.host.zoom_in(int(request.get("level", 0)))}

    async def _op_zoom_out(self, request: Dict) -> Dict[str, object]:
        return {"level": self.host.zoom_out(int(request.get("level", 0)))}

    async def _op_watch(self, request: Dict) -> Dict[str, object]:
        self._require_queryable()
        self._check_read_bound(request)
        node = self._resolve_node(request.get("node"))
        cluster = await self.host.watch(node, request.get("level"))
        return {"cluster": self._labels(cluster)}

    async def _op_unwatch(self, request: Dict) -> Dict[str, object]:
        node = self._resolve_node(request.get("node"))
        await self.host.unwatch(node, request.get("level"))
        return {}

    async def _op_changes(self, request: Dict) -> Dict[str, object]:
        events = self.host.drain_watch_events()
        return {
            "changes": [
                {
                    "node": self._label(e.node),
                    "level": e.level,
                    "t": e.t,
                    "joined": self._labels(sorted(e.joined)),
                    "left": self._labels(sorted(e.left)),
                }
                for e in events
            ]
        }

    async def _op_sync(self, request: Dict) -> Dict[str, object]:
        state = await self.host.wait_applied()
        return {"applied": state.activations, "t": state.t}

    async def _op_stats(self, request: Dict) -> Dict[str, object]:
        stats = self.host.stats()
        stats["degraded"] = self.degraded
        stats["role"] = self.role
        stats["epoch"] = self.epoch
        stats["fenced_by"] = self.fenced_by
        stats["diverged"] = self.diverged
        stats["wal_entries"] = self._wal_entries()
        stats["replicas"] = len(self._replicas)
        if self.config.shard_id is not None:
            stats["shard"] = self.config.shard_id
        return {"stats": stats}

    async def _op_metrics(self, request: Dict) -> Dict[str, object]:
        # Read-only by default: a polling client must not reset anyone
        # else's rate window (notably the operator log line's).  Clients
        # that want delta rates pass their own ``rate_key``.
        rate_key = request.get("rate_key")
        return {
            "metrics": self.metrics.snapshot(
                rate_key=str(rate_key) if rate_key is not None else None
            )
        }

    async def _op_metrics_text(self, request: Dict) -> Dict[str, object]:
        namespace = str(request.get("namespace", "anc"))
        return {"text": render_prometheus(self.metrics, namespace=namespace)}

    async def _op_trace(self, request: Dict) -> Dict[str, object]:
        return trace_op(self.tracer, request)

    async def _op_trace_fetch(self, request: Dict) -> Dict[str, object]:
        """This process's span buffer in wire form (fleet trace assembly).

        The router scatters this op to every worker and merges the
        answers — plus its own buffer — into one multi-process Chrome
        trace (:func:`repro.obs.export.fleet_chrome_trace`).  Span start
        times are absolute unix seconds (the tracer's ``epoch_unix``
        anchor), so buffers from different processes land on one shared
        timeline without clock negotiation.
        """
        spans = (
            self.tracer.drain()
            if bool(request.get("drain", False))
            else self.tracer.spans()
        )
        name = (
            f"shard-{self.config.shard_id}"
            if self.config.shard_id is not None
            else self.role
        )
        return {
            "pid": os.getpid(),
            "process": name,
            "spans": span_dicts(spans, epoch_unix=self.tracer.epoch_unix),
        }

    async def _op_profile(self, request: Dict) -> Dict[str, object]:
        """Drive the sampling profiler: start / stop / status / report."""
        action = str(request.get("action", "status"))
        profiler = self.profiler
        if action == "start":
            hz = request.get("hz")
            if hz is not None and not profiler.running:
                # A fresh profiler: a new cadence must not dilute the
                # previous run's sample counts.
                profiler = SamplingProfiler(float(hz), tracer=self.tracer)
                self.profiler = profiler
            profiler.start()
        elif action == "stop":
            profiler.stop()
        elif action == "report":
            return {"profile": profiler.report(), **profiler.status()}
        elif action != "status":
            raise ValueError(
                f"unknown profile action {action!r}; expected "
                f"start/stop/status/report"
            )
        return dict(profiler.status())

    async def _op_snapshot(self, request: Dict) -> Dict[str, object]:
        await self.host.wait_applied()
        path = await self.host.checkpoint()
        if path is None:
            raise ValueError("server has no data_dir; checkpoints are disabled")
        return {"path": path, "applied": self.host.applied}

    async def _op_shutdown(self, request: Dict) -> Dict[str, object]:
        self.request_stop()
        return {"stopping": True}

    # -- replication ops (docs/replication.md) -------------------------
    async def _op_wal_fetch(self, request: Dict) -> Dict[str, object]:
        """Serve committed WAL records to a follower (pull replication).

        A fetch that finds nothing new parks until the next WAL append,
        for at most ``wait`` seconds (capped at :data:`MAX_FETCH_WAIT`),
        so a caught-up follower gets each record as it is appended
        without re-polling.  ``from_seq`` doubles as the follower's
        applied watermark.  A *fenced* node still answers — a behind
        follower may legally finish catching up from a deposed
        primary's committed prefix.
        """
        from_seq = int(request.get("from_seq", 0))
        if from_seq < 0:
            raise ValueError(f"from_seq must be >= 0, got {from_seq}")
        limit = max(1, min(int(request.get("max", 512)), 4096))
        wait = request.get("wait", 0.0)
        if isinstance(wait, bool) or not isinstance(wait, (int, float)) or not wait >= 0:
            raise ValueError(f"wait must be a number of seconds >= 0, got {wait!r}")
        follower = request.get("follower")
        if isinstance(follower, str) and follower:
            self._note_replica(follower, from_seq)
        if wait > 0 and from_seq >= self._wal_entries() and not self._stop.is_set():
            if self._appended is None:
                self._appended = asyncio.Event()
            await _wait_set(self._appended, min(float(wait), MAX_FETCH_WAIT))
        records = self._wal_slice(from_seq, limit)
        if self._faults is not None:
            action = self._faults.hit("replica.fetch", from_seq=from_seq)
            if action is not None:
                if action.kind == "stall":
                    # A slow primary; a stop ends the stall as it ends a park.
                    await _wait_set(self._stop, action.seconds())
                elif action.kind == "drop":
                    raise ConnectionResetError("injected replication-link drop")
                elif action.kind == "reorder" and len(records) > 1:
                    records = records[::-1]
        self._c_fetch.inc(len(records))
        return {
            "records": [
                [r.seq, r.act.u, r.act.v, r.act.t, r.epoch, r.key]
                for r in records
            ],
            "entries": self._wal_entries(),
        }

    async def _op_replicas(self, request: Dict) -> Dict[str, object]:
        now = time.monotonic()
        entries = self._wal_entries()
        return {
            "entries": entries,
            "replicas": {
                follower: {
                    "applied": int(info["applied"]),
                    "lag": max(0, entries - int(info["applied"])),
                    "age": round(now - info["last_seen"], 3),
                    # Seconds since the applied watermark last advanced —
                    # the operator-facing staleness clock (a follower can
                    # heartbeat forever while applying nothing).
                    "apply_age": round(now - info["advanced_at"], 3),
                }
                for follower, info in sorted(self._replicas.items())
            },
        }

    async def _op_signature(self, request: Dict) -> Dict[str, object]:
        return dict(await self.host.signature())

    async def _op_fence(self, request: Dict) -> Dict[str, object]:
        """Depose this node: refuse writes below ``epoch`` from now on.

        The fence reaches the WAL itself, so even a handler already past
        the role check cannot complete a write (the last-moment refusal
        the split-brain chaos scenario exercises).
        """
        epoch = int(request.get("epoch", self.epoch + 1))
        if epoch <= self.epoch:
            raise ValueError(
                f"fence epoch {epoch} must exceed this node's epoch "
                f"{self.epoch}"
            )
        self.fenced_by = max(self.fenced_by, epoch)
        if self.host.wal is not None:
            self.host.wal.fence(epoch)
        self._release_fetches()
        log.warning("fenced at epoch %d (own epoch %d)", self.fenced_by, self.epoch)
        return {"fenced_by": self.fenced_by}

    async def _op_promote(self, request: Dict) -> Dict[str, object]:
        """Make this node the primary under a fresh (higher) epoch."""
        if self.diverged is not None:
            raise Diverged(
                f"refusing to promote a diverged follower: {self.diverged}"
            )
        requested = request.get("epoch")
        new_epoch = max(
            self.epoch + 1,
            int(requested) if requested is not None else 0,
            self.fenced_by + 1 if self.fenced_by > self.epoch else 0,
        )
        link = self.replication
        if link is not None:
            link.stop()  # type: ignore[attr-defined]
            self.replication = None
        self.role = "primary"
        self.epoch = new_epoch
        self.host.epoch = new_epoch
        if self.host.wal is not None:
            self.host.wal.epoch = new_epoch
        self._release_fetches()
        log.info("promoted to primary at epoch %d", new_epoch)
        return {"promoted": True}

    _OPS = {
        "ping": _op_ping,
        "ingest": _op_ingest,
        "ingest_batch": _op_ingest_batch,
        "clusters": _op_clusters,
        "local": _op_local,
        "zoom_in": _op_zoom_in,
        "zoom_out": _op_zoom_out,
        "watch": _op_watch,
        "unwatch": _op_unwatch,
        "changes": _op_changes,
        "sync": _op_sync,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "metrics_text": _op_metrics_text,
        "trace": _op_trace,
        "trace_fetch": _op_trace_fetch,
        "profile": _op_profile,
        "snapshot": _op_snapshot,
        "shutdown": _op_shutdown,
        "wal_fetch": _op_wal_fetch,
        "replicas": _op_replicas,
        "signature": _op_signature,
        "fence": _op_fence,
        "promote": _op_promote,
    }
