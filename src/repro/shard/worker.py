"""Shard workers: one :class:`~repro.service.server.ANCServer` per process.

Each worker is a full serving stack — engine, micro-batcher, WAL,
checkpoints, even a replica chain if configured — running the shard's
graph (full node space, owned edges only; see
:mod:`repro.shard.shardmap`) in its **own OS process**.  Process
isolation is the point: N shards give N independent GILs, N independent
writer threads and N independent durability directories, so the
single-writer discipline the service layer enforces per process now
scales horizontally instead of being the ceiling.

:class:`WorkerSpec` is a picklable bundle (the spawn start method
re-imports everything in the child, so the spec carries edge lists and
the worker's :class:`~repro.service.server.ServerConfig`, never live
objects).  Fault specs ride along the same way and the child rebuilds
its own :class:`~repro.faults.plan.FaultPlan` — that is how the chaos
matrix reaches into a worker process.

:class:`ShardWorker` is the parent-side supervisor handle: it spawns
the process, waits for the port announcement, and can restart a dead
worker on the same data directory (WAL + checkpoint recovery brings the
engine back; the router resends in-flight batches under their original
idempotency keys, so a crash-respawn cycle stays exactly-once).
Restarts drop the spec's fault specs — an injected fault models a
transient failure, and re-arming it in the respawned process would
crash-loop the shard.

:class:`ShardDeployment` builds the :class:`~repro.shard.shardmap.ShardMap`
and owns the full set of workers.  Every worker is durable: a deployment
configured without a data directory persists under a throwaway root that
:meth:`ShardDeployment.stop` removes, so a respawned worker still
recovers what it acknowledged.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from queue import Empty
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.anc import ANCParams
from ..faults.plan import FaultPlan, FaultSpec
from ..graph.graph import Edge, Graph
from ..service.client import RetryPolicy, ServiceClient, ServiceError
from ..service.server import ANCServer, ServerConfig
from .shardmap import ShardMap

__all__ = ["ShardDeployment", "ShardWorker", "WorkerSpec", "worker_main"]

log = logging.getLogger("repro.shard")

#: ``(port, error)`` announced by a child once its socket is bound;
#: ``port < 0`` carries a startup failure in ``error``.
WorkerAnnounce = Tuple[int, str]

#: Seconds a spawned worker has to bind and announce its port.
SPAWN_TIMEOUT = 60.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker process needs, as plain picklables."""

    n: int
    edges: Tuple[Edge, ...]
    names: Optional[Tuple[Hashable, ...]]
    #: This worker's server config (own ``data_dir`` and ``shard_id``,
    #: port 0); the child arms ``faults`` from ``fault_specs``.
    config: ServerConfig
    params: Optional[ANCParams] = None
    fault_specs: Tuple[FaultSpec, ...] = ()
    fault_seed: int = 0


def worker_main(spec: WorkerSpec, ready: "multiprocessing.queues.Queue[WorkerAnnounce]") -> None:
    """Child-process entry point: build the stack, announce, serve.

    Must stay importable at module top level (the spawn start method
    pickles the function reference, not the code).
    """
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING,
        format=f"%(asctime)s shard-{spec.config.shard_id} %(name)s %(levelname)s %(message)s",
    )
    try:
        graph = Graph(spec.n, spec.edges)
        plan = (
            FaultPlan(list(spec.fault_specs), seed=spec.fault_seed)
            if spec.fault_specs
            else None
        )
        server = ANCServer(
            graph,
            spec.names,
            config=replace(spec.config, faults=plan),
            params=spec.params,
        )
    except Exception as exc:
        ready.put((-1, f"{type(exc).__name__}: {exc}"))
        raise

    async def _main() -> None:
        # ``ShardWorker.stop`` escalates to SIGTERM: stop cleanly on it.
        server.stop_on_signals()
        try:
            await server.start()
        except Exception as exc:
            ready.put((-1, f"{type(exc).__name__}: {exc}"))
            raise
        assert server.port is not None
        ready.put((server.port, ""))
        await server.serve_forever()

    asyncio.run(_main())


class ShardWorker:
    """Parent-side handle of one shard's worker process."""

    def __init__(self, spec: WorkerSpec) -> None:
        assert spec.config.shard_id is not None, "a worker config names its shard"
        self.shard_id: int = spec.config.shard_id
        self.spec = spec
        self.port: Optional[int] = None
        #: Times this worker was respawned after dying (supervisor metric).
        self.restarts = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._proc: Optional[multiprocessing.process.BaseProcess] = None

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def start(self) -> "ShardWorker":
        """Spawn the process and wait for its port announcement."""
        queue: "multiprocessing.queues.Queue[WorkerAnnounce]" = self._ctx.Queue(1)
        proc = self._ctx.Process(
            target=worker_main,
            args=(self.spec, queue),
            name=f"anc-shard-{self.shard_id}",
            daemon=True,
        )
        proc.start()
        try:
            port, error = queue.get(timeout=SPAWN_TIMEOUT)
        except Empty:
            proc.terminate()
            proc.join(timeout=5.0)
            raise RuntimeError(
                f"shard {self.shard_id} worker did not announce within "
                f"{SPAWN_TIMEOUT}s"
            ) from None
        finally:
            queue.close()
        if port < 0:
            proc.join(timeout=5.0)
            raise RuntimeError(f"shard {self.shard_id} worker failed to start: {error}")
        self._proc = proc
        self.port = port
        log.info("shard %d worker up on %s:%d", self.shard_id, self.spec.config.host, port)
        return self

    def restart_if_dead(self) -> bool:
        """Respawn a dead worker on its data dir; True when a restart ran.

        Fault specs are dropped from the respawned spec (module
        docstring); recovery comes from the WAL + checkpoints under the
        unchanged ``data_dir``.  A worker that is still alive is left
        alone — the caller saw a connection failure, not a death.
        """
        proc = self._proc
        if proc is not None:
            proc.join(timeout=0.5)
            if proc.is_alive():
                return False
        if self.spec.fault_specs:
            self.spec = replace(self.spec, fault_specs=())
        self.restarts += 1
        log.warning(
            "shard %d worker died; respawning (restart #%d)",
            self.shard_id,
            self.restarts,
        )
        self.start()
        return True

    def stop(self, *, timeout: float = 10.0) -> None:
        """Graceful shutdown (protocol op), escalating to terminate."""
        proc = self._proc
        if proc is None:
            return
        if proc.is_alive() and self.port is not None:
            # Best effort, one attempt: a worker that does not answer is
            # terminated below.
            try:
                with ServiceClient(
                    self.spec.config.host,
                    self.port,
                    timeout=min(timeout, 5.0),
                    retry=RetryPolicy(attempts=1),
                ) as client:
                    client.shutdown()
            except ServiceError:
                pass
        proc.join(timeout=timeout)
        if proc.is_alive():
            log.warning("shard %d worker ignored shutdown; terminating", self.shard_id)
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():
            # SIGTERM is a clean stop, which a wedged loop never runs.
            log.warning("shard %d worker ignored SIGTERM; killing", self.shard_id)
            proc.kill()
            proc.join(timeout=5.0)
        self._proc = None


class ShardDeployment:
    """The :class:`ShardMap` plus one supervised worker per shard.

    ``config`` is every worker's :class:`ServerConfig`, read per worker:
    ``data_dir`` is the root each worker persists under (``shard-<i>``;
    ``None`` = a throwaway root, removed by :meth:`stop`), ``shard_id``
    and a free port are filled in, and fault plans come from
    ``fault_specs``.
    """

    def __init__(
        self,
        graph: Graph,
        names: Optional[Sequence[Hashable]] = None,
        *,
        shards: int,
        seed: int = 0,
        params: Optional[ANCParams] = None,
        config: Optional[ServerConfig] = None,
        fault_specs: Optional[Mapping[int, Sequence[FaultSpec]]] = None,
        fault_seed: int = 0,
    ) -> None:
        self.graph = graph
        self.shard_map = ShardMap.build(graph, shards, seed=seed)
        self.names: Optional[Tuple[Hashable, ...]] = (
            tuple(names) if names is not None else None
        )
        config = config or ServerConfig()
        root = config.data_dir
        self._scratch: "Optional[tempfile.TemporaryDirectory[str]]" = None
        if root is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="anc-shards-")
            root = self._scratch.name
        self.workers: List[ShardWorker] = []
        for shard in range(shards):
            worker_config = replace(
                config,
                port=0,
                data_dir=str(Path(root) / f"shard-{shard}"),
                shard_id=shard,
                faults=None,
            )
            spec = WorkerSpec(
                n=graph.n,
                edges=self.shard_map.shard_edges[shard],
                names=self.names,
                config=worker_config,
                params=params,
                fault_specs=tuple(fault_specs.get(shard, ())) if fault_specs else (),
                fault_seed=fault_seed,
            )
            self.workers.append(ShardWorker(spec))
        self._started = False

    @property
    def shards(self) -> int:
        return self.shard_map.shards

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> "ShardDeployment":
        """Spawn every worker (idempotent); all ports known on return."""
        if self._started:
            return self
        started: List[ShardWorker] = []
        try:
            for worker in self.workers:
                worker.start()
                started.append(worker)
        except Exception:
            for worker in started:
                worker.stop(timeout=5.0)
            raise
        self._started = True
        return self

    def stop(self) -> None:
        """Stop every worker (graceful, then terminate), then remove the
        throwaway root, if this deployment made one."""
        for worker in self.workers:
            worker.stop()
        self._started = False
        if self._scratch is not None:
            self._scratch.cleanup()

    def endpoints(self) -> Dict[int, Tuple[str, int]]:
        """shard id → ``(host, port)`` of each live worker."""
        out: Dict[int, Tuple[str, int]] = {}
        for worker in self.workers:
            if worker.port is not None:
                out[worker.shard_id] = (worker.spec.config.host, worker.port)
        return out

    def total_restarts(self) -> int:
        return sum(worker.restarts for worker in self.workers)

    def __enter__(self) -> "ShardDeployment":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
