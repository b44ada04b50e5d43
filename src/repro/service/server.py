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
    writer thread.

Every server is durable.  On startup it first recovers from its data
directory: newest complete checkpoint + WAL tail replay (see
:mod:`~repro.service.snapshots`), so a ``kill -9`` loses nothing that
was acknowledged.  A server configured without a directory serves from
a throwaway one that it removes when it stops.  A writer that fails
stops the server the same way (fail-stop): nothing more is acknowledged
that could not be applied.

The listener, the read–dispatch–write loop, slow-client eviction, the
error envelope and the stop sequence are :class:`~repro.service.wire.FrontEnd`'s,
shared with both routers; the server adds its fault sites, crash
semantics and ``degraded`` accounting through the front end's hooks.

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
import contextlib
import itertools
import logging
import re
import tempfile
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.activation import Activation
from ..core.anc import ANCParams
from ..graph.graph import Graph, edge_key
from ..obs.profiler import SamplingProfiler
from .engine_host import EngineHost
from .errors import Diverged, Fenced, Overloaded, ReadOnly, Stale
from .ingest import MicroBatcher
from .snapshots import CheckpointStore, WalRecord, WriteAheadLog, recover_to
from .wire import FrontEnd, Sever, parse_number

if TYPE_CHECKING:  # hook-only dependency (see repro.faults)
    from ..faults.plan import FaultPlan
    from ..replica.link import ReplicationLink

__all__ = ["MAX_KEY_LEN", "ANCServer", "RequestRules", "ServerConfig"]

log = logging.getLogger("repro.service")

#: Cap on a ``wal_fetch`` request's ``wait`` (seconds): the longest a
#: caught-up fetch may park on this node before answering empty.
MAX_FETCH_WAIT = 5.0

#: Longest ``ingest_batch`` key: every WAL record of the batch carries
#: it, so a 4,096-record ``wal_fetch`` chunk stays near 1.3 MB.
MAX_KEY_LEN = 256

#: Seconds the ``degraded`` flag stays up after a shed or an eviction,
#: so operators see transients.
DEGRADED_HOLD = 5.0

#: Remembered ``ingest_batch`` keys for idempotent resend (LRU bound).
DEDUP_CAPACITY = 1024

#: In-memory WAL tail kept for followers, so ``wal_fetch`` is served
#: without touching the disk until a follower falls far behind.
WAL_TAIL_CAPACITY = 4096

#: Sampling cadence of the wall-clock profiler (prime, so it cannot
#: phase-lock with periodic work); the ``profile`` op's ``hz`` picks
#: another for one run.
PROFILE_HZ = 97.0

#: The fastest cadence the ``profile`` op accepts.  Each sample walks
#: every thread's stack while holding the GIL, so a faster sampler
#: slows the writer thread it is there to observe.
MAX_PROFILE_HZ = 1000.0


class RequestRules:
    """How a request names nodes, activations and batch keys, for one
    relation network.

    ``names[i]`` is dense id ``i``'s protocol label (``None`` serves the
    dense ids themselves).  The server and the shard router both read
    requests through this one class, so a client's references resolve
    the same way at every hop.
    """

    def __init__(self, graph: Graph, names: Optional[Sequence[Hashable]]) -> None:
        self.graph = graph
        self.names = list(names) if names is not None else None
        self._ids: Dict[str, int] = (
            {str(name): i for i, name in enumerate(self.names)}
            if self.names is not None
            else {}
        )

    def label(self, v: int) -> Union[str, int]:
        return str(self.names[v]) if self.names is not None else v

    def labels(self, nodes: Sequence[int]) -> List[Union[str, int]]:
        return [self.label(v) for v in nodes]

    def node(self, raw: object) -> int:
        """Map a protocol node reference (label or dense id) to a node id."""
        v = self._ids.get(str(raw))
        if v is not None:
            return v
        if isinstance(raw, int) or (isinstance(raw, str) and raw.lstrip("-").isdigit()):
            v = int(raw)
            if self.graph.has_node(v):
                return v
        raise ValueError(f"unknown node {raw!r}")

    def item(self, item: object) -> Tuple[int, int, float]:
        """Validate one ``[u, v, t]`` activation: a relation edge and a
        finite time (the server's clock clamps it later)."""
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ValueError(f"activation must be [u, v, t], got {item!r}")
        u = self.node(item[0])
        v = self.node(item[1])
        if u == v:
            raise ValueError(f"self-activation on node {item[0]!r}")
        u, v = edge_key(u, v)
        if not self.graph.has_edge(u, v):
            raise ValueError(f"({item[0]!r}, {item[1]!r}) is not a relation edge")
        return u, v, parse_number(item[2], "t", float)

    @staticmethod
    def batch(
        request: Dict, max_key_len: int = MAX_KEY_LEN
    ) -> Tuple[List[object], Optional[str]]:
        """An ``ingest_batch``'s ``items`` list and idempotency ``key``.

        The key is optional (``None`` = unkeyed); when present it is a
        non-empty, whitespace-free string (it is persisted inside
        space-delimited WAL records) of at most ``max_key_len`` characters.
        """
        items = request.get("items")
        if not isinstance(items, list):
            raise ValueError("ingest_batch needs a list 'items' of [u, v, t]")
        key = request.get("key")
        if key is not None:
            if not isinstance(key, str) or not key or any(ch.isspace() for ch in key):
                raise ValueError(
                    "ingest_batch key must be a non-empty, whitespace-free string"
                )
            if len(key) > max_key_len:
                raise ValueError(
                    f"ingest_batch key is longer than {max_key_len} characters"
                )
        return items, key


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
    #: Durability directory (WAL + checkpoints); None = a throwaway
    #: directory, removed when the server stops.
    data_dir: Optional[Union[str, Path]] = None
    #: Checkpoint after this many applied activations (0 = only on shutdown).
    checkpoint_every: int = 2000
    #: Queue depth at which ingest *sheds* with a typed ``RETRY_AFTER``
    #: instead of delaying the acknowledgement (0 = never shed).
    shed_watermark: int = 0
    #: Evict a connection whose response write does not drain within this
    #: many seconds — a stalled/slow reader (0 = wait forever).
    write_timeout: float = 30.0
    #: Role of this node: ``primary`` (writable) or ``follower`` (a
    #: read-only replica; pair with ``primary_host``/``primary_port``).
    role: str = "primary"
    #: Endpoint of the primary a follower replicates from.
    primary_host: Optional[str] = None
    primary_port: int = 0
    #: Identity under which a follower fetches (default ``host:port``).
    replica_id: str = ""
    #: Divergence-audit cadence on a follower (seconds; 0 = disabled).
    audit_interval: float = 0.25
    #: Start the sampling profiler at boot (``serve --profile``); the
    #: ``profile`` op starts/stops it live either way.
    profile: bool = False
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

    def __init__(self, done: int = 0, last_seq: int = -1) -> None:
        self.done = done
        self.last_seq = last_seq
        self.future: Optional[asyncio.Future] = None


class ANCServer(FrontEnd):
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

    _PREFIX = "server"

    def __init__(
        self,
        graph: Graph,
        names: Optional[Sequence[Hashable]] = None,
        *,
        config: Optional[ServerConfig] = None,
        params: Optional[ANCParams] = None,
    ) -> None:
        self.config = config or ServerConfig()
        super().__init__(
            self.config.host, self.config.port, write_timeout=self.config.write_timeout
        )
        self.graph = graph
        self.rules = RequestRules(graph, names)

        if self.config.role not in ("primary", "follower"):
            raise ValueError(
                f"unknown role {self.config.role!r}; expected "
                f"'primary' or 'follower'"
            )

        self._faults = self.config.faults
        #: Removes the throwaway data directory, if any, when the server stops.
        self._scratch = contextlib.ExitStack()
        data_dir = self.config.data_dir
        if data_dir is None:
            data_dir = self._scratch.enter_context(
                tempfile.TemporaryDirectory(prefix="anc-server-")
            )
        store = CheckpointStore(data_dir, faults=self._faults)
        recovery = recover_to(
            graph,
            store,
            params=params,
            engine_name=self.config.engine.upper(),
        )
        engine = recovery.engine
        # Rebuild the exactly-once dedup map from the keyed WAL records
        # (capped to the newest DEDUP_CAPACITY keys), so a client resend
        # that straddles the restart resumes instead of double-applying.
        self._dedup: "OrderedDict[str, _BatchEntry]" = OrderedDict(
            (key, _BatchEntry(done, last_seq))
            for key, (done, last_seq) in list(recovery.dedup.items())[-DEDUP_CAPACITY:]
        )
        if recovery.replayed or engine.activations_processed:
            log.info(
                "recovered engine at %d activations (%d replayed from "
                "WAL, epoch %d, %d dedup keys)",
                engine.activations_processed,
                recovery.replayed,
                recovery.epoch,
                len(self._dedup),
            )
        #: The log owns this node's epoch and fence (see :attr:`epoch`).
        #: A checkpoint may record a newer epoch than the tail record; a
        #: fresh primary starts at 1 (0 marks a follower that has applied
        #: nothing yet).
        self.wal = WriteAheadLog(store.wal_path, faults=self._faults)
        self.wal.epoch = (
            max(recovery.epoch, 1) if self.config.role == "primary" else recovery.epoch
        )
        self.wal.on_append = self._on_wal_append

        # Engine-deep observability: the front end's registry and tracer
        # are shared by the engine, its index, the query engine and the
        # watcher.  The tracer starts disabled (the no-op fast path); the
        # ``trace`` op turns it on live.
        self.profiler = SamplingProfiler(PROFILE_HZ, tracer=self.tracer)
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
            wal=self.wal,
            checkpoints=store,
            checkpoint_every=self.config.checkpoint_every,
            metrics=self.metrics,
            shed_watermark=self.config.shed_watermark,
        )
        self._run_task: Optional["asyncio.Task[None]"] = None
        self._background: List["asyncio.Task[None]"] = []
        # Graceful-degradation state: sticks for DEGRADED_HOLD seconds
        # after the last shed/eviction.
        self._degraded_until = 0.0

        # -- replication state (docs/replication.md) -------------------
        #: ``primary`` | ``follower`` (promote flips a follower live).
        self.role = self.config.role
        #: Sticky divergence-audit verdict; ``None`` = consistent.
        self.diverged: Optional[str] = None
        #: The follower's replication link (started by :meth:`start`).
        self.replication: Optional["ReplicationLink"] = None
        #: Recent committed records served to followers without a file scan.
        self._wal_tail: Deque[WalRecord] = deque(maxlen=WAL_TAIL_CAPACITY)
        #: Set (and dropped) by the next WAL append; caught-up
        #: ``wal_fetch`` requests park on it.  Created by the first parker.
        self._appended: Optional[asyncio.Event] = None
        #: follower id -> {"applied": int, "last_seen": monotonic seconds}.
        self._replicas: Dict[str, Dict[str, float]] = {}
        self._crashed = False

        self._c_evictions = self.metrics.counter("slow_reader_evictions")
        self._c_dedup = self.metrics.counter("ingest_dedup_hits")
        self._c_fetch = self.metrics.counter("wal_fetch_served")
        self.metrics.gauge("degraded", lambda: 1.0 if self.degraded else 0.0)
        self.metrics.gauge("epoch", lambda: float(self.epoch))
        self.metrics.gauge(
            "replica_diverged", lambda: 1.0 if self.diverged else 0.0
        )

    # ------------------------------------------------------------------
    # Front-end steps
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        """Start the writer and, on a follower, the replication link."""
        if self.config.profile:
            self.profiler.start()
        self._run_task = asyncio.create_task(self.host.run())
        self._run_task.add_done_callback(self._writer_done)
        if self.role == "follower" and self.config.primary_host is not None:
            # Deferred import: repro.replica builds on this module.
            from ..replica.link import ReplicationLink

            link = ReplicationLink(
                self,
                (self.config.primary_host, int(self.config.primary_port)),
                replica_id=self.config.replica_id or f"{self.bind_host}:{self.port}",
                audit_interval=self.config.audit_interval,
            )
            self.replication = link
            self._background.append(asyncio.create_task(link.run()))
        log.info("starting as %s at epoch %d", self.role, self.epoch)

    async def _on_stop(self) -> None:
        """Stop the background tasks and the writer.

        A clean stop drains the queue and cuts a final checkpoint; a
        crash does neither (``kill -9`` semantics: recovery must come
        from the WAL plus the last complete checkpoint alone).
        """
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        self._background.clear()
        if self._crashed:
            if self._run_task is not None:
                self._run_task.cancel()
                await asyncio.gather(self._run_task, return_exceptions=True)
            await self.host.abort()
        else:
            await self.host.close(self._run_task)
        self.wal.close()
        self.profiler.stop()
        if self._crashed:
            log.info("crashed hard at %d applied activations", self.host.applied)
        else:
            log.info("shut down cleanly at %d activations", self.host.applied)
        self._scratch.close()

    def _stamp(self, response: Dict[str, object]) -> None:
        # Every envelope carries this node's epoch and role, so clients
        # can reject answers from a deposed primary (the stale-read half
        # of fencing; docs/replication.md).
        response["epoch"] = self.epoch
        response["role"] = self.role
        if self.config.shard_id is not None:
            response["shard"] = self.config.shard_id

    def request_stop(self) -> None:
        # A parked ``wal_fetch`` answers at once: neither a stop nor a
        # crash waits out a park.
        super().request_stop()
        self._release_fetches()

    def _crash(self) -> None:
        """Simulated ``kill -9``: die *now*, clean up nothing.

        Every connection is aborted mid-conversation, the queue is
        dropped on the floor and no final checkpoint is cut — recovery
        must come from the WAL plus the last complete checkpoint alone,
        exactly like a real sudden process death.  An injected crash and
        a failed writer both end here.
        """
        if self._crashed:
            return
        self._crashed = True
        log.warning("hard-stopping the server")
        for writer in list(self._clients):
            writer.transport.abort()
        self.request_stop()

    def _writer_done(self, task: "asyncio.Task[None]") -> None:
        """Fail-stop: a writer that raised must not leave the server
        acknowledging activations it will never apply."""
        if task.cancelled() or task.exception() is None:
            return
        log.error("the writer failed", exc_info=task.exception())
        self._crash()

    # -- connection hooks: fault sites, crash, degraded accounting -----
    async def _on_connect(self) -> None:
        if self._faults is not None:
            action = self._faults.hit("server.accept")
            if action is not None and action.kind == "reset":
                raise Sever("injected reset on accept")

    async def _on_request(self) -> None:
        if self._faults is not None:
            action = self._faults.hit("server.request")
            if action is not None:
                if action.kind == "reset":
                    raise Sever("injected reset on request")
                if action.kind == "delay":
                    await asyncio.sleep(action.seconds())

    async def _on_send(self) -> None:
        if self._faults is not None:
            action = self._faults.hit("server.send")
            if action is not None and action.kind == "stall":
                # Deterministic stand-in for "drain never completes":
                # hold the handler like a full socket buffer would.
                await asyncio.sleep(action.seconds())

    def _on_evict(self) -> None:
        self._c_evictions.inc()
        self._note_degraded()

    def _on_error(self, exc: Exception) -> None:
        if self._is_injected_crash(exc):
            # Simulated kill -9 escaping a handler: the process is gone;
            # nobody is left to send a response.
            self._crash()
            raise Sever("injected crash") from exc
        if isinstance(exc, Overloaded):
            self._note_degraded()

    def _is_injected_crash(self, exc: BaseException) -> bool:
        if self._faults is None:
            return False
        from ..faults.plan import InjectedCrash

        return isinstance(exc, InjectedCrash)

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Overloaded now, or shed/evicted within the last DEGRADED_HOLD s.

        Surfaced in the ``stats`` op and as the ``degraded`` Prometheus
        gauge; the contract is in docs/faults.md.
        """
        watermark = self.config.shed_watermark
        if watermark > 0 and self.batcher.depth >= watermark:
            return True
        return time.monotonic() < self._degraded_until

    def _note_degraded(self) -> None:
        self._degraded_until = time.monotonic() + DEGRADED_HOLD

    # ------------------------------------------------------------------
    # Replication plumbing (docs/replication.md)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """This node's primary epoch, the fencing token (the WAL's)."""
        return self.wal.epoch

    @property
    def fenced_by(self) -> int:
        """Highest epoch a ``fence`` op stamped on this node (the WAL's
        durable fence); writes are refused while it exceeds :attr:`epoch`."""
        return self.wal.fence_epoch

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
        return link.lag if link is not None else 0

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
            required = parse_number(token, "token", int)
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
            if lag > parse_number(bound, "max_staleness", int):
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

    def _wal_slice(self, from_seq: int, limit: int) -> List[WalRecord]:
        """Records ``[from_seq, from_seq + limit)`` — tail buffer first.

        Tail seqs are contiguous, so the slice is indexed by offset.
        Falls back to a file scan when the follower is further behind
        than the in-memory tail reaches.
        """
        tail = self._wal_tail
        if tail and tail[0].seq <= from_seq:
            start = from_seq - tail[0].seq
            return [tail[i] for i in range(start, min(start + limit, len(tail)))]
        if from_seq >= self.wal.entries:
            return []
        return list(
            itertools.islice(
                WriteAheadLog.replay_records(self.wal.path, skip=from_seq), limit
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
                    max(0, self.wal.entries - int(self._replicas[f]["applied"]))
                ),
            )
        if float(applied) > info["applied"]:
            info["applied"] = float(applied)
            info["advanced_at"] = now
        info["last_seen"] = now

    async def apply_replicated(self, record: WalRecord) -> int:
        """Apply one fetched primary record (called by the follower link).

        The WAL refuses a gap or a stale epoch and adopts the record's
        epoch (:meth:`~repro.service.snapshots.WriteAheadLog.append_record`);
        this maintains the server-side exactly-once dedup map, so a client
        batch resent across a failover resumes on the promoted follower
        exactly where the old primary's replicated records left it.
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
    def _activation(self, item: Tuple[int, int, float]) -> Activation:
        """A validated item at the stream clock: an earlier timestamp is
        clamped to the current stream time, not refused."""
        u, v, t = item
        return Activation(u, v, self.host.clamp_time(t))

    @staticmethod
    def _level(request: Dict) -> Optional[int]:
        """The request's granularity ``level``; absent or null = the default."""
        level = request.get("level")
        return None if level is None else parse_number(level, "level", int)

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------
    async def _op_ping(self, request: Dict) -> Dict[str, object]:
        return {"t": self.host.state.t, "applied": self.host.applied}

    async def _op_ingest(self, request: Dict) -> Dict[str, object]:
        self._require_writable()
        act = self._activation(
            self.rules.item(
                [request.get("u"), request.get("v"), request.get("t", self.host.state.t)]
            )
        )
        seq = await self.host.ingest(act)
        return {"seq": seq, "t": act.t}

    async def _op_ingest_batch(self, request: Dict) -> Dict[str, object]:
        self._require_writable()
        items, key = self.rules.batch(request)
        # Validate every item before logging any: a malformed batch
        # leaves no trace in the WAL.
        resolved = [self.rules.item(item) for item in items]
        if self._faults is not None:
            action = self._faults.hit("server.ingest_batch", key=key)
            if action is not None:
                if action.kind == "delay":
                    await asyncio.sleep(action.seconds())
                elif action.kind == "duplicate" and key is not None:
                    # Network-level duplication: the same request arrives
                    # twice; the second pass must dedup against the first.
                    await self._ingest_batch_keyed(key, resolved)
                    return await self._ingest_batch_keyed(key, resolved)
        if key is None:
            # Legacy un-keyed path: at-most-once, no resend safety.
            seq = -1
            for item in resolved:
                seq = await self.host.ingest(self._activation(item))
            return {"accepted": len(items), "seq": seq}
        return await self._ingest_batch_keyed(key, resolved)

    async def _ingest_batch_keyed(
        self, key: str, items: List[Tuple[int, int, float]]
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
                act = self._activation(items[entry.done])
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
        if len(self._dedup) <= DEDUP_CAPACITY:
            return
        for key in list(self._dedup):
            if len(self._dedup) <= DEDUP_CAPACITY:
                break
            entry = self._dedup[key]
            if entry.future is None or entry.future.done():
                del self._dedup[key]

    async def _op_clusters(self, request: Dict) -> Dict[str, object]:
        self._require_queryable()
        self._check_read_bound(request)
        min_size = parse_number(request.get("min_size", 1), "min_size", int)
        level, clusters = await self.host.clusters(self._level(request))
        state = self.host.state
        return {
            "level": level,
            "num_levels": state.num_levels,
            "t": state.t,
            "applied": state.activations,
            "clusters": [
                self.rules.labels(c) for c in clusters if len(c) >= min_size
            ],
        }

    async def _op_local(self, request: Dict) -> Dict[str, object]:
        self._require_queryable()
        self._check_read_bound(request)
        node = self.rules.node(request.get("node"))
        level, cluster = await self.host.cluster_of(node, self._level(request))
        state = self.host.state
        return {
            "level": level,
            "t": state.t,
            "applied": state.activations,
            "cluster": self.rules.labels(cluster),
        }

    async def _op_zoom_in(self, request: Dict) -> Dict[str, object]:
        level = parse_number(request.get("level", 0), "level", int)
        return {"level": self.host.zoom_in(level)}

    async def _op_zoom_out(self, request: Dict) -> Dict[str, object]:
        level = parse_number(request.get("level", 0), "level", int)
        return {"level": self.host.zoom_out(level)}

    async def _op_watch(self, request: Dict) -> Dict[str, object]:
        self._require_queryable()
        self._check_read_bound(request)
        node = self.rules.node(request.get("node"))
        cluster = await self.host.watch(node, self._level(request))
        return {"cluster": self.rules.labels(cluster)}

    async def _op_unwatch(self, request: Dict) -> Dict[str, object]:
        node = self.rules.node(request.get("node"))
        await self.host.unwatch(node, self._level(request))
        return {}

    async def _op_changes(self, request: Dict) -> Dict[str, object]:
        events = self.host.drain_watch_events()
        return {
            "changes": [
                {
                    "node": self.rules.label(e.node),
                    "level": e.level,
                    "t": e.t,
                    "joined": self.rules.labels(sorted(e.joined)),
                    "left": self.rules.labels(sorted(e.left)),
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
        stats["wal_entries"] = self.wal.entries
        stats["replicas"] = len(self._replicas)
        if self.config.shard_id is not None:
            stats["shard"] = self.config.shard_id
        return {"stats": stats}

    async def _op_trace_fetch(self, request: Dict) -> Dict[str, object]:
        """This process's span buffer in wire form (fleet trace assembly).

        The router scatters this op to every worker and merges the
        answers — plus its own buffer — into one multi-process Chrome
        trace (:func:`repro.obs.export.fleet_chrome_trace`).  Span start
        times are absolute unix seconds (the tracer's ``epoch_unix``
        anchor), so buffers from different processes land on one shared
        timeline without clock negotiation.
        """
        name = (
            f"shard-{self.config.shard_id}"
            if self.config.shard_id is not None
            else self.role
        )
        return self._trace_entry(name, bool(request.get("drain", False)))

    async def _op_profile(self, request: Dict) -> Dict[str, object]:
        """Drive the sampling profiler: start / stop / status / report."""
        action = str(request.get("action", "status"))
        profiler = self.profiler
        if action == "start":
            if request.get("hz") is not None:
                hz = parse_number(request["hz"], "hz", float)
                if not 0 < hz <= MAX_PROFILE_HZ:
                    raise ValueError(f"hz must be in (0, {MAX_PROFILE_HZ:g}], got {hz!r}")
                if not profiler.running:
                    # A fresh profiler: a new cadence must not dilute the
                    # previous run's sample counts.
                    profiler = SamplingProfiler(hz, tracer=self.tracer)
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
        return {"path": path, "applied": self.host.applied}

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
        from_seq = parse_number(request.get("from_seq", 0), "from_seq", int)
        if from_seq < 0:
            raise ValueError(f"from_seq must be >= 0, got {from_seq}")
        limit = max(1, min(parse_number(request.get("max", 512), "max", int), 4096))
        wait = parse_number(request.get("wait", 0.0), "wait", float)
        if wait < 0:
            raise ValueError(f"wait must be a number of seconds >= 0, got {wait!r}")
        follower = request.get("follower")
        if isinstance(follower, str) and follower:
            self._note_replica(follower, from_seq)
        if wait > 0 and from_seq >= self.wal.entries and not self._stop.is_set():
            if self._appended is None:
                self._appended = asyncio.Event()
            await _wait_set(self._appended, min(wait, MAX_FETCH_WAIT))
        records = self._wal_slice(from_seq, limit)
        if self._faults is not None:
            action = self._faults.hit("replica.fetch", from_seq=from_seq)
            if action is not None:
                if action.kind == "stall":
                    # A slow primary; a stop ends the stall as it ends a park.
                    await _wait_set(self._stop, action.seconds())
                elif action.kind == "drop":
                    raise Sever("injected replication-link drop")
                elif action.kind == "reorder" and len(records) > 1:
                    records = records[::-1]
        self._c_fetch.inc(len(records))
        return {
            "records": [
                [r.seq, r.act.u, r.act.v, r.act.t, r.epoch, r.key]
                for r in records
            ],
            "entries": self.wal.entries,
        }

    async def _op_replicas(self, request: Dict) -> Dict[str, object]:
        now = time.monotonic()
        entries = self.wal.entries
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

        The fence lives in the WAL itself, so even a handler already past
        the role check cannot complete a write (the last-moment refusal
        the split-brain chaos scenario exercises), and it is on disk
        before this answers, so a restart does not lift it.
        """
        epoch = parse_number(request.get("epoch", self.epoch + 1), "epoch", int)
        if epoch <= self.epoch:
            raise ValueError(
                f"fence epoch {epoch} must exceed this node's epoch "
                f"{self.epoch}"
            )
        self.wal.fence(epoch)
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
            parse_number(requested, "epoch", int) if requested is not None else 0,
            self.fenced_by + 1 if self.fenced_by > self.epoch else 0,
        )
        link = self.replication
        if link is not None:
            link.stop()
            self.replication = None
        self.role = "primary"
        self.wal.epoch = new_epoch
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
        "metrics": FrontEnd._op_metrics,
        "metrics_text": FrontEnd._op_metrics_text,
        "trace": FrontEnd._op_trace,
        "trace_fetch": _op_trace_fetch,
        "profile": _op_profile,
        "snapshot": _op_snapshot,
        "shutdown": FrontEnd._op_shutdown,
        "wal_fetch": _op_wal_fetch,
        "replicas": _op_replicas,
        "signature": _op_signature,
        "fence": _op_fence,
        "promote": _op_promote,
    }
