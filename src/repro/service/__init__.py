"""Long-lived serving layer over the ANC engines.

The paper's headline result — per-activation index maintenance up to
10⁶× faster than reconstruction (§V) — only pays off inside a serving
loop that interleaves a live activation stream with cluster queries.
This package is that loop:

* :mod:`~repro.service.ingest` — bounded intake queue with
  micro-batching (flush on batch size or max latency);
* :mod:`~repro.service.engine_host` — single-writer/multi-reader
  concurrency: the engine update runs on a dedicated writer thread while
  queries are answered from an immutable published snapshot;
* :mod:`~repro.service.snapshots` — write-ahead activation log plus
  periodic engine checkpoints (through :mod:`repro.index.persistence`),
  so recovery = load checkpoint + replay WAL tail;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — a
  stdlib-only TCP JSON-lines protocol and its blocking client.

Start a server from the command line with ``repro-anc serve`` or
programmatically via :class:`~repro.service.server.ANCServer`; see
``docs/service.md`` for the protocol and operational knobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from ..obs.instruments import MetricsRegistry
    from .breaker import CircuitBreaker
    from .client import (
        RetryPolicy,
        ServiceClient,
        ServiceConnectError,
        ServiceError,
        ServiceRetryAfter,
        ServiceTimeout,
        ServiceUnavailable,
    )
    from .engine_host import EngineHost, PublishedState
    from .errors import BadRequest, Overloaded, ServiceFault, Unavailable, UnknownOp
    from .ingest import MicroBatcher
    from .server import ANCServer, ServerConfig
    from .snapshots import (
        CheckpointCorruptError,
        CheckpointStore,
        WalCorruptError,
        WriteAheadLog,
        dump_engine_state,
        restore_engine,
    )

__all__ = [
    "ANCServer",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "ServiceConnectError",
    "ServiceTimeout",
    "ServiceRetryAfter",
    "ServiceUnavailable",
    "RetryPolicy",
    "CircuitBreaker",
    "ServiceFault",
    "BadRequest",
    "UnknownOp",
    "Overloaded",
    "Unavailable",
    "EngineHost",
    "PublishedState",
    "MicroBatcher",
    "MetricsRegistry",
    "CheckpointStore",
    "WriteAheadLog",
    "WalCorruptError",
    "CheckpointCorruptError",
    "dump_engine_state",
    "restore_engine",
]

__getattr__ = _lazy(
    __name__,
    {
        ".server": ("ANCServer", "ServerConfig"),
        ".client": (
            "ServiceClient",
            "ServiceError",
            "ServiceConnectError",
            "ServiceTimeout",
            "ServiceRetryAfter",
            "ServiceUnavailable",
            "RetryPolicy",
        ),
        ".breaker": ("CircuitBreaker",),
        ".errors": ("ServiceFault", "BadRequest", "UnknownOp", "Overloaded", "Unavailable"),
        ".engine_host": ("EngineHost", "PublishedState"),
        ".ingest": ("MicroBatcher",),
        "..obs.instruments": ("MetricsRegistry",),
        ".snapshots": (
            "CheckpointStore",
            "WriteAheadLog",
            "WalCorruptError",
            "CheckpointCorruptError",
            "dump_engine_state",
            "restore_engine",
        ),
    },
)
