"""Single-writer / multi-reader hosting of one ANC engine.

The engines are not thread-safe: an activation mutates the decay clock,
the similarity stores and the pyramid partitions in place.  The host
therefore serializes *all* engine mutation onto one dedicated writer
thread and never lets readers touch the live engine at all.  Instead,
after every applied micro-batch the writer materializes a
:class:`PublishedState` — cluster memberships for the tracked
granularity levels, engine stats, watcher events — and publishes it by
a single attribute assignment.  Queries (``clusters``, ``local``,
``zoom``, ``stats``) read whichever state object they see; they never
block the writer and the writer never blocks them.

A query for a level that is not yet materialized registers the level and
awaits the next publication (one micro-batch flush away, or immediate
when the engine is idle).  A level stays tracked once it has been asked
for: every later snapshot carries it.  Each publish pays only for the
seeds that moved since the previous one, because
:class:`~repro.index.clustering.ClusterQueryEngine` keeps every tracked
level's voted subgraph live.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from ..core.activation import Activation
from ..core.anc import ANCEngineBase
from ..monitor import ClusterChange, ClusterWatcher
from ..obs.instruments import MetricsRegistry
from .errors import Overloaded
from .ingest import MicroBatcher
from .snapshots import (
    CheckpointStore,
    WalRecord,
    WriteAheadLog,
    apply_activations,
    signature_digest,
)

__all__ = ["EngineHost", "PublishedState"]

T = TypeVar("T")

Clustering = List[List[int]]


class PublishedState:
    """One immutable, consistent view of the engine.

    Built entirely on the writer thread *between* mutations, then
    published; readers may hold a reference for as long as they like.
    """

    __slots__ = (
        "seq",
        "t",
        "activations",
        "num_levels",
        "sqrt_level",
        "clusters_by_level",
        "membership_by_level",
        "stats",
    )

    def __init__(
        self,
        *,
        seq: int,
        t: float,
        activations: int,
        num_levels: int,
        sqrt_level: int,
        clusters_by_level: Dict[int, Clustering],
        membership_by_level: Dict[int, List[int]],
        stats: Dict[str, object],
    ) -> None:
        self.seq = seq
        self.t = t
        self.activations = activations
        self.num_levels = num_levels
        self.sqrt_level = sqrt_level
        self.clusters_by_level = clusters_by_level
        self.membership_by_level = membership_by_level
        self.stats = stats

    def clusters(self, level: int) -> Clustering:
        """All clusters at ``level`` — as copies.

        The snapshot is shared by every reader concurrently; handing out
        the stored lists would let one caller's mutation corrupt what
        everyone else (and later queries against the same state) sees.
        """
        return [list(c) for c in self.clusters_by_level[level]]

    def cluster_of(self, node: int, level: int) -> List[int]:
        """The node's cluster (a copy), resolved from the membership."""
        cluster_id = self.membership_by_level[level][node]
        return list(self.clusters_by_level[level][cluster_id])


class EngineHost:
    """Owns the engine, the writer thread and the published state.

    Parameters
    ----------
    engine:
        Any :class:`~repro.core.anc.ANCEngineBase`; the host becomes its
        sole mutator.
    batcher:
        Intake queue; the host's run loop drains it.
    wal:
        Write-ahead log; every activation is appended (and flushed)
        before it is enqueued, making acknowledged ingest durable.  A
        server always passes one; a host without it is an in-process
        view of the engine (no replication, no checkpoints).
    checkpoints / checkpoint_every:
        Checkpoint store and the activation interval between automatic
        checkpoints (taken on the writer thread at a batch boundary, so
        they are always consistent).  Checkpoints need the WAL too: it
        owns the epoch each one records.
    metrics:
        Optional registry; the host records ingest/apply/flush
        instruments into it.
    shed_watermark:
        Queue depth at which :meth:`ingest` *sheds* instead of awaiting
        queue space: the caller gets a typed
        :class:`~repro.service.errors.Overloaded` (wire code
        ``RETRY_AFTER``) immediately.  0 (the default) keeps the
        pre-existing behavior — pure backpressure, acknowledgements
        delayed but never refused.
    """

    def __init__(
        self,
        engine: ANCEngineBase,
        batcher: MicroBatcher,
        *,
        wal: Optional[WriteAheadLog] = None,
        checkpoints: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        shed_watermark: int = 0,
    ) -> None:
        self.engine = engine
        self.batcher = batcher
        self.wal = wal
        self.checkpoints = checkpoints
        self.checkpoint_every = checkpoint_every
        self.shed_watermark = shed_watermark
        self.metrics = metrics or MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="anc-writer"
        )
        # Replaced wholesale (never mutated) so the writer thread can take
        # a consistent snapshot with a single attribute read.
        self._tracked_levels: frozenset = frozenset({engine.queries.sqrt_n_level()})
        self._seq = 0
        self._watcher: Optional[ClusterWatcher] = None
        self._watch_events: List[ClusterChange] = []
        self._ingested = engine.activations_processed
        self._last_t = engine.now
        self._applied_waiters: List[Tuple[int, asyncio.Future]] = []
        self._since_checkpoint = 0
        self._last_checkpoint_at = time.monotonic()
        self._closed = False
        # Materialize the initial state synchronously: queries are
        # answerable before the first activation ever arrives.
        self.state: PublishedState = self._materialize()

        m = self.metrics
        self._c_shed = m.counter("ingest_shed")
        self._c_ingested = m.counter("activations_ingested")
        self._c_applied = m.counter("activations_applied")
        self._c_batches = m.counter("batches_applied")
        self._c_queries = m.counter("queries_served")
        self._h_flush = m.histogram("batch_flush_seconds")
        self._h_query = m.histogram("query_seconds")
        m.gauge("queue_depth", lambda: float(self.batcher.depth))
        m.gauge("stream_time", lambda: float(self.state.t))
        m.gauge(
            "snapshot_age_s",
            lambda: time.monotonic() - self._last_checkpoint_at,
        )

    # ------------------------------------------------------------------
    # Ingest path (event loop side)
    # ------------------------------------------------------------------
    @property
    def ingested(self) -> int:
        """Activations accepted so far (including not-yet-applied ones)."""
        return self._ingested

    @property
    def applied(self) -> int:
        """Activations the engine has absorbed (from the published state)."""
        return self.state.activations

    def clamp_time(self, t: float) -> float:
        """Monotonize a client timestamp against the stream clock."""
        return t if t > self._last_t else self._last_t

    async def ingest(self, act: Activation, *, key: Optional[str] = None) -> int:
        """Log + enqueue one activation; returns its sequence number.

        The caller must pass a clamped (monotonic) timestamp — see
        :meth:`clamp_time`.  Awaiting the bounded queue is the
        backpressure: acknowledgements are delayed, not dropped.
        ``key`` is the idempotency key of the keyed batch the activation
        belongs to (persisted in the WAL record; see
        :mod:`~repro.service.snapshots`).
        """
        if self._closed:
            raise RuntimeError("host is closed")
        if self.shed_watermark > 0 and self.batcher.depth >= self.shed_watermark:
            # Shed *before* the WAL append and the timestamp clamp: a
            # refused activation must leave no durable or clock trace,
            # or the client's retry would double-apply / non-monotonize.
            self._c_shed.inc()
            raise Overloaded(
                f"ingest queue at {self.batcher.depth} >= shed watermark "
                f"{self.shed_watermark}; retry later",
                retry_after=max(2 * self.batcher.max_latency, 0.05),
            )
        if act.t < self._last_t:
            raise ValueError(
                f"non-monotonic ingest: {act.t} < {self._last_t} "
                "(clamp_time first)"
            )
        self._last_t = act.t
        if self.wal is not None:
            self.wal.append(act, key=key)
        seq = self._ingested
        self._ingested += 1
        self._c_ingested.inc()
        await self.batcher.submit(act)
        return seq

    async def apply_replicated(self, record: WalRecord) -> int:
        """Apply one record shipped from a primary (the follower path).

        The record keeps the *primary's* seq/epoch/key, so the local WAL
        stays a byte-identical prefix of the primary's; gap and
        stale-epoch refusal live in
        :meth:`~repro.service.snapshots.WriteAheadLog.append_record`.
        Returns the applied seq.
        """
        if self._closed:
            raise RuntimeError("host is closed")
        if self.wal is None:
            raise RuntimeError("a replicated record needs the host's WAL")
        self.wal.append_record(record)
        self._last_t = max(self._last_t, record.act.t)
        self._ingested = record.seq + 1
        self._c_ingested.inc()
        await self.batcher.submit(record.act)
        return record.seq

    # ------------------------------------------------------------------
    # Writer loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Drain the batcher until it closes; apply and publish each batch."""
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.batcher.next_batch()
            if batch is None:
                break
            started = time.perf_counter()
            state, events = await loop.run_in_executor(
                self._executor, self._apply_and_materialize, batch
            )
            # Buffer watch events here, on the loop thread: extending from
            # the writer thread raced drain_watch_events' swap-and-clear.
            self._watch_events.extend(events)
            self._publish(state)
            self._h_flush.observe(time.perf_counter() - started)
            self._c_applied.inc(len(batch))
            self._c_batches.inc()
            self._since_checkpoint += len(batch)
            if 0 < self.checkpoint_every <= self._since_checkpoint:
                await self.checkpoint()

    def _apply_and_materialize(
        self, batch: List[Activation]
    ) -> Tuple[PublishedState, List[ClusterChange]]:
        """Writer thread: mutate the engine, then build the next state.

        The engine is always driven through
        :func:`~repro.service.snapshots.apply_activations` so batch-end
        hooks fire at data-derived timestamp boundaries — identically
        live and during crash recovery.  The watcher only *observes* the
        applied batch afterwards; its events are returned rather than
        buffered so ``_watch_events`` stays loop-thread-only.
        """
        apply_activations(self.engine, batch)
        events: List[ClusterChange] = []
        if self._watcher is not None:
            events = list(self._watcher.observe_applied(batch))
        return self._materialize(), events

    def _materialize(self) -> PublishedState:
        queries = self.engine.queries
        clusters_by_level: Dict[int, Clustering] = {}
        membership_by_level: Dict[int, List[int]] = {}
        n = self.engine.graph.n
        for level in sorted(self._tracked_levels):
            clusters = queries.clusters(level)
            membership = [0] * n
            for cid, cluster in enumerate(clusters):
                for v in cluster:
                    membership[v] = cid
            clusters_by_level[level] = clusters
            membership_by_level[level] = membership
        seq = self._seq
        self._seq += 1
        return PublishedState(
            seq=seq,
            t=self.engine.now,
            activations=self.engine.activations_processed,
            num_levels=queries.num_levels,
            sqrt_level=queries.sqrt_n_level(),
            clusters_by_level=clusters_by_level,
            membership_by_level=membership_by_level,
            stats=self.engine.stats(),
        )

    def _publish(self, state: PublishedState) -> None:
        self.state = state
        remaining: List[Tuple[int, asyncio.Future]] = []
        for target, future in self._applied_waiters:
            if state.activations >= target:
                if not future.done():
                    future.set_result(state)
            else:
                remaining.append((target, future))
        self._applied_waiters = remaining

    async def _run_on_writer(self, fn: Callable[..., T], *args: object) -> T:
        """Run ``fn`` on the writer thread (serialized with batches)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    async def _republish(self) -> PublishedState:
        state = await self._run_on_writer(self._materialize)
        self._publish(state)
        return state

    # ------------------------------------------------------------------
    # Query path (never blocks the writer)
    # ------------------------------------------------------------------
    async def ensure_level(self, level: Optional[int]) -> int:
        """Resolve/clamp ``level`` and make sure it is materialized."""
        state = self.state
        if level is None:
            level = state.sqrt_level
        level = max(1, min(state.num_levels, int(level)))
        if level not in self.state.clusters_by_level:
            self._tracked_levels = self._tracked_levels | {level}
            await self._republish()
        return level

    async def clusters(self, level: Optional[int] = None) -> Tuple[int, Clustering]:
        """All clusters at ``level`` from the published state."""
        started = time.perf_counter()
        level = await self.ensure_level(level)
        result = self.state.clusters(level)
        self._observe_query(started)
        return level, result

    async def cluster_of(self, node: int, level: Optional[int] = None) -> Tuple[int, List[int]]:
        """The node's local cluster at ``level``."""
        started = time.perf_counter()
        if not self.engine.graph.has_node(node):
            raise ValueError(f"unknown node {node}")
        level = await self.ensure_level(level)
        result = self.state.cluster_of(node, level)
        self._observe_query(started)
        return level, result

    def zoom_in(self, level: int) -> int:
        return max(1, min(self.state.num_levels, level + 1))

    def zoom_out(self, level: int) -> int:
        return max(1, min(self.state.num_levels, level - 1))

    def stats(self) -> Dict[str, object]:
        """Engine stats of the published state plus host-level info."""
        doc = dict(self.state.stats)
        doc.update(
            ingested=self._ingested,
            applied=self.state.activations,
            queue_depth=self.batcher.depth,
            tracked_levels=sorted(self._tracked_levels),
            state_seq=self.state.seq,
        )
        return doc

    def _observe_query(self, started: float) -> None:
        self._c_queries.inc()
        self._h_query.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Synchronization and watches
    # ------------------------------------------------------------------
    async def wait_applied(self, target: Optional[int] = None) -> PublishedState:
        """Await a published state covering ``target`` activations.

        Default target: everything ingested so far — i.e. "flush what I
        have sent".  Returns the state that satisfied the wait.
        """
        if target is None:
            target = self._ingested
        if self.state.activations >= target:
            return self.state
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._applied_waiters.append((target, future))
        return await future

    async def watch(self, node: int, level: Optional[int] = None) -> List[int]:
        """Register a watched node; returns its current cluster.

        Watches live on the writer thread's :class:`ClusterWatcher`; the
        emitted :class:`ClusterChange` events accumulate until drained
        with :meth:`drain_watch_events`.  Watches are in-memory only —
        they do not survive a restart (clients re-register).
        """
        level = await self.ensure_level(level)

        def register() -> List[int]:
            if self._watcher is None:
                self._watcher = ClusterWatcher(self.engine, levels=[level])
            self._watcher.add_level(level)
            return sorted(self._watcher.watch(node, level))

        return await self._run_on_writer(register)

    async def unwatch(self, node: int, level: Optional[int] = None) -> None:
        level = await self.ensure_level(level)

        def unregister() -> None:
            if self._watcher is not None:
                self._watcher.unwatch(node, level)

        await self._run_on_writer(unregister)

    def drain_watch_events(self) -> List[ClusterChange]:
        """Return and clear the accumulated watch events."""
        out = self._watch_events
        self._watch_events = []
        return out

    # ------------------------------------------------------------------
    # Checkpointing and shutdown
    # ------------------------------------------------------------------
    async def checkpoint(self) -> Optional[str]:
        """Write a consistent checkpoint now, stamped with the WAL's
        epoch; returns its path.

        Runs on the writer thread, so it never overlaps a mutation.
        No-op (returns None) without a checkpoint store and a WAL.
        """
        wal, checkpoints = self.wal, self.checkpoints
        if wal is None or checkpoints is None:
            return None
        path = await self._run_on_writer(
            lambda: checkpoints.write_checkpoint(self.engine, epoch=wal.epoch)
        )
        self._since_checkpoint = 0
        self._last_checkpoint_at = time.monotonic()
        return str(path)

    async def signature(self) -> Dict[str, object]:
        """Digest + applied count, computed quiescently on the writer thread.

        Running on the writer serializes the fingerprint with batch
        application, so it always captures a between-batches state — the
        precondition for the divergence auditor's primary/follower
        comparison (docs/replication.md).
        """
        def compute() -> Dict[str, object]:
            return {
                "digest": signature_digest(self.engine),
                "applied": self.engine.activations_processed,
            }

        return await self._run_on_writer(compute)

    async def close(self, run_task: Optional["asyncio.Task"] = None) -> None:
        """Stop ingest, drain the queue, final-checkpoint, shut down.

        Pass the :meth:`run` task so the drain completes before the
        final checkpoint is cut; without it, close() checkpoints
        whatever has been applied so far (still consistent — anything
        unapplied stays recoverable from the WAL).
        """
        if self._closed:
            return
        self._closed = True
        await self.batcher.close()
        if run_task is not None:
            await run_task
        await self.checkpoint()
        self._executor.shutdown(wait=True)
        for _, future in self._applied_waiters:
            if not future.done():
                future.cancel()
        self._applied_waiters.clear()

    async def abort(self) -> None:
        """Hard-stop (simulated ``kill -9``): no drain, no final checkpoint.

        The chaos harness uses this to model sudden process death on a
        live server: whatever the queue held is lost from memory and must
        come back from the WAL, exactly as a real crash would leave it.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        for _, future in self._applied_waiters:
            if not future.done():
                future.cancel()
        self._applied_waiters.clear()
