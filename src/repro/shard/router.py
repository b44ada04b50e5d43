"""The scatter-gather front tier: one router over N shard workers.

The router speaks the **same TCP/JSON-lines protocol** as a single
:class:`~repro.service.server.ANCServer` — clients built against
:mod:`repro.service.client` work unchanged against a sharded
deployment.  Per request it either *routes* (ingest goes to the shard
that owns the activation's edge, ``local_cluster`` to the node's home
shard) or *scatter-gathers* (``clusters``/``stats``/``metrics``/``sync``
fan out to every worker and the answers are merged by
:mod:`repro.shard.merge`).

Envelope conventions: responses are stamped ``role="router"``,
``shards=N`` and ``epoch=0``.  Epoch 0 is deliberate — the client's
stale-epoch rotation only arms for ``0 < epoch``, so a router in an
endpoint list never trips replica fencing heuristics.

Failure handling per forward: each shard has a pooled
:class:`~repro.service.wire.Upstream`, and a transport failure is
retried with exponential backoff; between attempts the router checks
whether the worker *process* died and respawns it on the same data
directory (WAL recovery + the resent idempotency key make the crash
invisible to the client beyond latency).  A scatter that misses
``fanout_timeout`` turns into a typed ``RETRY_AFTER`` so clients back
off instead of hanging on one slow shard.

Chaos hook points (see :mod:`repro.faults.injectors`):

* ``router.forward`` — ingest-path forwards; ``drop`` severs the link
  *after* the request bytes leave (the genuinely ambiguous in-flight
  partition: the retry resends the same key and the worker's dedup map
  decides), ``delay`` stalls the first attempt.
* ``router.scatter`` — fan-out queries; ``stall`` holds one shard's arm
  (``args: {"shard", "seconds"}``) so the scatter deadline trips.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from ..index.pyramid import levels_for
from ..obs.export import Source, federate_snapshots, render_prometheus, trace_op
from ..service.errors import (
    BadRequest,
    Overloaded,
    ServiceFault,
    Unavailable,
)
from ..service.server import MAX_KEY_LEN, RequestRules
from ..service.wire import TRANSPORT_ERRORS, FrontEnd, Upstream, parse_number
from .merge import merge_clusters, merge_stats
from .worker import ShardDeployment

if TYPE_CHECKING:  # hook-only dependency (see repro.faults)
    from ..faults.plan import FaultAction, FaultPlan

__all__ = ["RouterConfig", "ShardRouter"]

#: Per-attempt deadline of one worker request.
FORWARD_TIMEOUT = 30.0
#: Attempts per forward (worker respawn in between).
FORWARD_ATTEMPTS = 4
#: Base of the exponential backoff between forward attempts.
RETRY_BACKOFF = 0.05


@dataclass
class RouterConfig:
    """Operational knobs of the router tier."""

    host: str = "127.0.0.1"
    #: Port to bind; 0 picks a free port (read :attr:`ShardRouter.port`).
    port: int = 0
    #: Deadline for a full scatter (all shards answered); 0 = no deadline.
    fanout_timeout: float = 10.0
    #: ``retry_after`` hint handed to clients when a scatter times out.
    shed_retry_after: float = 0.25
    #: Chaos hooks for the router tier (worker plans travel in specs).
    faults: Optional["FaultPlan"] = None


def _sever() -> None:
    """The ``drop`` fault: partition after the request bytes left."""
    raise ConnectionResetError("injected router-worker partition")


class ShardRouter(FrontEnd):
    """Asyncio front tier multiplexing clients over a :class:`ShardDeployment`."""

    _PREFIX = "router"

    def __init__(
        self,
        deployment: ShardDeployment,
        *,
        config: Optional[RouterConfig] = None,
    ) -> None:
        self.config = config or RouterConfig()
        super().__init__(self.config.host, self.config.port)
        self.deployment = deployment
        self.shard_map = deployment.shard_map
        self._faults = self.config.faults
        if self._faults is not None:
            self._faults.attach_obs(self.obs)

        self._c_ingested = self.metrics.counter("router_ingested")
        self._c_retries = self.metrics.counter("router_forward_retries")
        self._c_timeouts = self.metrics.counter("router_scatter_timeouts")
        self._c_restarts = self.metrics.counter("router_worker_restarts")
        self._h_fanout = self.metrics.histogram("router_fanout_seconds")
        self._h_forward = self.metrics.histogram("router_forward_seconds")

        #: The workers' request rules over the whole graph: the router
        #: resolves a reference only to pick its shard, and forwards the
        #: client's own reference for the worker to resolve alike.
        self.rules = RequestRules(deployment.graph, deployment.names)
        #: Every worker serves the full node space, so all share one
        #: level range, and a zoom (pure arithmetic on a worker too) is
        #: answered here without a scatter.
        self._num_levels = levels_for(self.shard_map.n)
        #: Protocol label → home shard, for the cluster merge.
        self._label_home: Dict[object, int] = {
            self.rules.label(v): self.shard_map.shard_of(v)
            for v in range(self.shard_map.n)
        }

        #: shard -> pooled link to its worker's current port.
        self._links: Dict[int, Upstream] = {}
        #: Held around a respawn only: two concurrent restarts would
        #: start two worker processes on one data directory.
        self._respawn_locks = [asyncio.Lock() for _ in range(self.shards)]
        # Per-shard freshness gauges, refreshed from every forwarded
        # answer and every ``stats``: applied, queue depth, and lag =
        # activations routed to the shard minus activations it applied.
        self._shard_applied: Dict[int, float] = {}
        self._shard_queue: Dict[int, float] = {}
        self._routed: Dict[int, int] = {s: 0 for s in range(self.shards)}
        for s in range(self.shards):
            self.metrics.gauge(
                f"shard{s}_applied",
                lambda s=s: self._shard_applied.get(s, 0.0),  # type: ignore[misc]
            )
            self.metrics.gauge(
                f"shard{s}_queue_depth",
                lambda s=s: self._shard_queue.get(s, 0.0),  # type: ignore[misc]
            )
            self.metrics.gauge(
                f"shard{s}_lag",
                lambda s=s: max(  # type: ignore[misc]
                    0.0, self._routed[s] - self._shard_applied.get(s, 0.0)
                ),
            )

        # Router-generated idempotency keys for unkeyed batches: a
        # forward retry after an in-flight failure must not double-apply.
        self._key_prefix = f"r:{os.getpid():x}-{int(time.time() * 1000) & 0xFFFFFF:x}"
        self._key_counter = itertools.count()

    @property
    def shards(self) -> int:
        return self.shard_map.shards

    # ------------------------------------------------------------------
    # Front-end steps
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        """Spawn the workers (if needed) before the router binds."""
        if not self.deployment.started:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.deployment.start)

    async def _on_stop(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.deployment.stop)

    def upstreams(self) -> List[Upstream]:
        return list(self._links.values())

    def _announce_lines(self) -> List[str]:
        return [
            f"SHARD {shard} {host} {port}"
            for shard, (host, port) in sorted(self.deployment.endpoints().items())
        ]

    def _stamp(self, response: Dict[str, object]) -> None:
        # Router envelope: epoch 0 never trips client fencing heuristics
        # (module docstring); ``shards`` advertises the topology width.
        response["epoch"] = 0
        response["role"] = "router"
        response["shards"] = self.shards

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _worker_fault(self, shard: int, response: Mapping[str, object]) -> ServiceFault:
        """Map a worker's error envelope to the fault the client should see."""
        code = str(response.get("error_type", "INTERNAL"))
        message = f"shard {shard}: {response.get('error')}"
        if code == "RETRY_AFTER":
            hint = response.get("retry_after", 0.05)
            retry_after = (
                float(hint) if isinstance(hint, (int, float)) else 0.05
            )
            return Overloaded(message, retry_after=retry_after)
        if code in ("BAD_REQUEST", "UNKNOWN_OP"):
            return BadRequest(message)
        return Unavailable(message)

    def _note_answer(self, shard: int, response: Mapping[str, object]) -> None:
        applied = response.get("applied")
        if isinstance(applied, (int, float)):
            self._shard_applied[shard] = float(applied)

    async def _forward(
        self,
        shard: int,
        payload: Mapping[str, object],
        *,
        action: Optional["FaultAction"] = None,
    ) -> Dict[str, object]:
        """One routed worker call; raises the mapped typed fault on error."""
        start = time.monotonic()
        op = str(payload.get("op"))
        # Propagate the request's trace context into the worker hop: a
        # sampled context records a ``router.forward`` wire span and the
        # stamped child makes the worker's ``server.<op>`` span its
        # child; an unsampled one propagates ids only.
        with self.tracer.wire_span("router.forward", op=op, shard=shard):
            response = await self._request(shard, payload, action)
        self._h_forward.observe(time.monotonic() - start)
        if not response.get("ok", False):
            raise self._worker_fault(shard, response)
        self._note_answer(shard, response)
        return response

    async def _request(
        self,
        shard: int,
        payload: Mapping[str, object],
        action: Optional["FaultAction"],
    ) -> Dict[str, object]:
        """Send ``payload`` to the shard's worker, retrying across
        transport failures and respawning a dead worker in between.

        ``action`` is a fired ``router.forward`` fault, applied to the
        *first* attempt only (retries model the recovery path, not the
        fault).  Raises :class:`Unavailable` once attempts are spent, or
        on the first failure once the router is stopping: a stopping
        router neither retries nor respawns a worker.
        """
        if action is not None and action.kind == "delay":
            await asyncio.sleep(action.seconds())
        on_sent = _sever if action is not None and action.kind == "drop" else None
        last_exc: Optional[BaseException] = None
        for attempt in range(FORWARD_ATTEMPTS):
            if attempt > 0:
                if self._stop.is_set():
                    break
                self._c_retries.inc()
                await self._respawn_if_dead(shard)
                await asyncio.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
            try:
                return await self._link(shard).request(
                    payload, timeout=FORWARD_TIMEOUT, trace=True, on_sent=on_sent
                )
            except TRANSPORT_ERRORS as exc:
                last_exc = exc
            on_sent = None  # the injected fault fired; retries run clean
        raise Unavailable(
            f"shard {shard} unreachable after {FORWARD_ATTEMPTS} attempts: "
            f"{type(last_exc).__name__}: {last_exc}"
        )

    def _link(self, shard: int) -> Upstream:
        """The shard's pooled link, following its worker to a new port."""
        worker = self.deployment.workers[shard]
        if worker.port is None:
            raise ConnectionRefusedError(f"shard {shard} worker has no port")
        link = self._links.get(shard)
        if link is None or link.port != worker.port:
            if link is not None:
                link.abort_all()
            link = self._links[shard] = Upstream(worker.spec.config.host, worker.port)
        return link

    async def _respawn_if_dead(self, shard: int) -> None:
        """Restart the worker process if it died (blocking → executor)."""
        worker = self.deployment.workers[shard]
        loop = asyncio.get_running_loop()
        async with self._respawn_locks[shard]:
            restarted = await loop.run_in_executor(None, worker.restart_if_dead)
        if restarted:
            self._c_restarts.inc()

    async def _scatter(
        self, op: str, payload: Mapping[str, object]
    ) -> Dict[int, Dict[str, object]]:
        """Fan ``payload`` out to every shard; all must answer in time."""
        stall_shard: Optional[int] = None
        stall_seconds = 0.0
        if self._faults is not None:
            action = self._faults.hit("router.scatter", op=op)
            if action is not None and action.kind == "stall":
                raw_shard = action.args.get("shard", 0)
                stall_shard = int(raw_shard) if isinstance(raw_shard, (int, str)) else 0
                stall_seconds = action.seconds(2.0)

        async def arm(shard: int) -> Dict[str, object]:
            if shard == stall_shard and stall_seconds > 0:
                # One shard gone slow: hold its arm past the deadline.
                await asyncio.sleep(stall_seconds)
            return await self._forward(shard, payload)

        start = time.monotonic()
        timeout = self.config.fanout_timeout or None
        # The arms are tasks created under the scatter's wire span, so
        # each copies its bound context: every ``router.forward`` is a
        # child of this ``router.scatter``.
        with self.tracer.wire_span("router.scatter", op=op, shards=self.shards):
            tasks = [asyncio.create_task(arm(s)) for s in range(self.shards)]
            try:
                answers = await asyncio.wait_for(asyncio.gather(*tasks), timeout)
            except asyncio.TimeoutError:
                self._c_timeouts.inc()
                raise Overloaded(
                    f"scatter {op!r} missed the {self.config.fanout_timeout}s "
                    f"deadline; one or more shards are slow",
                    retry_after=self.config.shed_retry_after,
                ) from None
            finally:
                for task in tasks:
                    if not task.done():
                        task.cancel()
        self._h_fanout.observe(time.monotonic() - start)
        return {shard: answer for shard, answer in enumerate(answers)}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _home(self, request: Dict) -> int:
        """The home shard of the request's ``node``."""
        return self.shard_map.shard_of(self.rules.node(request.get("node")))

    def _ingest_action(self, shard: int) -> Optional["FaultAction"]:
        if self._faults is None:
            return None
        return self._faults.hit("router.forward", shard=shard)

    async def _ingest(
        self, items: List[object], key: Optional[str]
    ) -> Dict[int, Dict[str, object]]:
        """Route each activation to its edge's owner; shard → its answer.

        Every item is validated and routed before any is forwarded: a
        bad activation rejects the whole batch, same as a single server.
        Each shard gets the client's own items under a derived key
        (``<key>@s<shard>``; an unkeyed batch gets a router-generated
        key), so a retry re-derives the same sub-keys and each worker
        dedups its own slice: exactly-once across router retries.
        """
        by_shard: Dict[int, List[object]] = {}
        for item in items:
            u, v, _ = self.rules.item(item)
            by_shard.setdefault(self.shard_map.shard_of_edge(u, v), []).append(item)
        if key is None:
            key = f"{self._key_prefix}:{next(self._key_counter)}"

        async def send(shard: int) -> Dict[str, object]:
            payload = {
                "op": "ingest_batch",
                "items": by_shard[shard],
                "key": f"{key}@s{shard}",
            }
            return await self._forward(
                shard, payload, action=self._ingest_action(shard)
            )

        shards = sorted(by_shard)
        answers = dict(zip(shards, await asyncio.gather(*map(send, shards))))
        for shard, answer in answers.items():
            count = len(by_shard[shard])
            self._routed[shard] += count
            self._c_ingested.inc(int(answer.get("accepted", count)))  # type: ignore[arg-type]
        return answers

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------
    async def _op_ping(self, request: Dict) -> Dict[str, object]:
        answers = await self._scatter("ping", {"op": "ping"})
        return {
            "t": max(float(a.get("t", 0.0)) for a in answers.values()),  # type: ignore[arg-type]
            "applied": sum(int(a.get("applied", 0)) for a in answers.values()),  # type: ignore[arg-type]
        }

    async def _op_ingest(self, request: Dict) -> Dict[str, object]:
        # One activation rides the unkeyed-batch path, router key and all.
        t = request.get("t", 0.0)
        answers = await self._ingest([[request.get("u"), request.get("v"), t]], None)
        [(shard, answer)] = answers.items()
        return {
            "seq": answer.get("seq"),
            "t": parse_number(t, "t", float),
            "shard": shard,
        }

    async def _op_ingest_batch(self, request: Dict) -> Dict[str, object]:
        # Workers see ``<key>@s<shard>``, which must fit their key bound.
        room = MAX_KEY_LEN - len(f"@s{self.shards - 1}")
        items, key = self.rules.batch(request, room)
        answers = await self._ingest(items, key)
        return {
            "accepted": sum(int(a.get("accepted", 0)) for a in answers.values()),  # type: ignore[arg-type]
            "seq": max((int(a.get("seq", -1)) for a in answers.values()), default=-1),  # type: ignore[arg-type]
            "per_shard": {
                str(shard): {"accepted": a.get("accepted"), "seq": a.get("seq")}
                for shard, a in answers.items()
            },
        }

    async def _op_clusters(self, request: Dict) -> Dict[str, object]:
        min_size = parse_number(request.get("min_size", 1), "min_size", int)
        payload: Dict[str, object] = {"op": "clusters", "min_size": 1}
        if request.get("level") is not None:
            payload["level"] = parse_number(request.get("level"), "level", int)
        answers = await self._scatter("clusters", payload)
        return merge_clusters(
            answers,
            self._label_home,
            min_size=min_size,
            cross_edge_count=len(self.shard_map.cross_edges),
        )

    async def _op_local(self, request: Dict) -> Dict[str, object]:
        shard = self._home(request)
        payload: Dict[str, object] = {"op": "local", "node": request.get("node")}
        if request.get("level") is not None:
            payload["level"] = request.get("level")
        response = await self._forward(shard, payload)
        out = {
            k: response[k]
            for k in ("level", "t", "applied", "cluster")
            if k in response
        }
        out["shard"] = shard
        return out

    async def _op_zoom_in(self, request: Dict) -> Dict[str, object]:
        level = parse_number(request.get("level", 0), "level", int)
        return {"level": max(1, min(self._num_levels, level + 1))}

    async def _op_zoom_out(self, request: Dict) -> Dict[str, object]:
        level = parse_number(request.get("level", 0), "level", int)
        return {"level": max(1, min(self._num_levels, level - 1))}

    async def _op_watch(self, request: Dict) -> Dict[str, object]:
        shard = self._home(request)
        payload: Dict[str, object] = {"op": "watch", "node": request.get("node")}
        if request.get("level") is not None:
            payload["level"] = request.get("level")
        response = await self._forward(shard, payload)
        out: Dict[str, object] = {
            k: response[k] for k in ("cluster",) if k in response
        }
        out["shard"] = shard
        return out

    async def _op_unwatch(self, request: Dict) -> Dict[str, object]:
        shard = self._home(request)
        payload: Dict[str, object] = {"op": "unwatch", "node": request.get("node")}
        if request.get("level") is not None:
            payload["level"] = request.get("level")
        await self._forward(shard, payload)
        return {"shard": shard}

    async def _op_changes(self, request: Dict) -> Dict[str, object]:
        answers = await self._scatter("changes", {"op": "changes"})
        merged: List[Dict[str, object]] = []
        for shard in sorted(answers):
            changes = answers[shard].get("changes")
            if isinstance(changes, list):
                merged.extend(c for c in changes if isinstance(c, dict))
        merged.sort(
            key=lambda c: (float(c.get("t", 0.0)), str(c.get("node", "")))  # type: ignore[arg-type]
        )
        return {"changes": merged}

    async def _op_snapshot(self, request: Dict) -> Dict[str, object]:
        answers = await self._scatter("snapshot", {"op": "snapshot"})
        return {
            "path": {
                str(shard): answer.get("path")
                for shard, answer in answers.items()
            },
            "applied": sum(
                int(a.get("applied", 0)) for a in answers.values()  # type: ignore[arg-type]
            ),
        }

    async def _op_sync(self, request: Dict) -> Dict[str, object]:
        answers = await self._scatter("sync", {"op": "sync"})
        return {
            "applied": sum(int(a.get("applied", 0)) for a in answers.values()),  # type: ignore[arg-type]
            "t": max(float(a.get("t", 0.0)) for a in answers.values()),  # type: ignore[arg-type]
        }

    async def _op_stats(self, request: Dict) -> Dict[str, object]:
        answers = await self._scatter("stats", {"op": "stats"})
        docs: Dict[int, Mapping[str, object]] = {}
        for shard, answer in answers.items():
            doc = answer.get("stats")
            docs[shard] = doc if isinstance(doc, Mapping) else {}
            if isinstance(doc, Mapping):
                depth = doc.get("queue_depth")
                if isinstance(depth, (int, float)):
                    self._shard_queue[shard] = float(depth)
                self._note_answer(shard, doc)
        merged = merge_stats(docs)
        merged["cross_edges"] = len(self.shard_map.cross_edges)
        merged["worker_restarts"] = self.deployment.total_restarts()
        merged["shard_map_digest"] = self.shard_map.digest()
        return {"stats": merged}

    async def _metric_sources(self) -> List[Source]:
        """Labeled registry snapshots of the whole fleet (router first).

        The labels are what makes the federation sound: each worker's
        gauges and histograms stay distinct series (``shard="0"``,
        ``shard="1"``) instead of collapsing into a meaningless sum —
        see :func:`repro.obs.export.federate_snapshots`.
        """
        answers = await self._scatter("metrics", {"op": "metrics"})
        sources: List[Source] = [({"role": "router"}, self.metrics.snapshot())]
        for shard in sorted(answers):
            doc = answers[shard].get("metrics")
            if isinstance(doc, Mapping):
                sources.append(({"role": "worker", "shard": str(shard)}, doc))
        return sources

    async def _op_metrics(self, request: Dict) -> Dict[str, object]:
        return {"metrics": federate_snapshots(await self._metric_sources())}

    async def _op_metrics_text(self, request: Dict) -> Dict[str, object]:
        """One Prometheus scrape for the whole fleet, every source labeled."""
        namespace = str(request.get("namespace", "anc"))
        sources = await self._metric_sources()
        return {"text": render_prometheus(sources, namespace=namespace)}

    async def _op_trace(self, request: Dict) -> Dict[str, object]:
        answer = trace_op(self.tracer, request)
        if request.get("action") in ("start", "stop", "clear"):
            # Engine-span control is fleet-wide through the router: one
            # ``trace start`` arms every worker's tracer too.  (Wire
            # spans need none of this — the sampled flag in the request
            # envelope is their only switch.)
            await self._scatter("trace", dict(request, op="trace"))
            answer = dict(self.tracer.status())
        return answer

    async def _op_trace_fetch(self, request: Dict) -> Dict[str, object]:
        """Every process's span buffer, merged-ready (fleet tracing).

        Returns ``{"processes": [...]}``: the router's own buffer plus
        one entry per worker, each ``{pid, process, spans}`` — exactly
        the input :func:`repro.obs.export.fleet_chrome_trace` takes.
        """
        drain = bool(request.get("drain", False))
        answers = await self._scatter(
            "trace_fetch", {"op": "trace_fetch", "drain": drain}
        )
        processes = [self._trace_entry("router", drain)]
        for shard in sorted(answers):
            answer = answers[shard]
            processes.append(
                {
                    "pid": answer.get("pid"),
                    "process": answer.get("process", f"shard-{shard}"),
                    "spans": answer.get("spans", []),
                }
            )
        return {"processes": processes}

    async def _op_profile(self, request: Dict) -> Dict[str, object]:
        """Fan the profiler op out to every worker (status per shard)."""
        payload: Dict[str, object] = {
            "op": "profile",
            "action": str(request.get("action", "status")),
        }
        if request.get("hz") is not None:
            payload["hz"] = request.get("hz")
        answers = await self._scatter("profile", payload)
        return {
            "shards": {
                str(shard): {
                    key: answer[key]
                    for key in ("running", "hz", "samples", "stacks", "profile")
                    if key in answer
                }
                for shard, answer in answers.items()
            }
        }

    async def _op_shard_map(self, request: Dict) -> Dict[str, object]:
        doc = self.shard_map.to_dict()
        doc["workers"] = {
            str(worker.shard_id): {
                "host": worker.spec.config.host,
                "port": worker.port,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "data_dir": worker.spec.config.data_dir,
            }
            for worker in self.deployment.workers
        }
        return {"shard_map": doc}

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
        "snapshot": _op_snapshot,
        "sync": _op_sync,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "metrics_text": _op_metrics_text,
        "trace": _op_trace,
        "trace_fetch": _op_trace_fetch,
        "profile": _op_profile,
        "shard_map": _op_shard_map,
        "shutdown": FrontEnd._op_shutdown,
    }
