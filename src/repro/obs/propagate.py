"""Cross-process trace-context propagation.

A fleet request crosses the client, the shard router, N workers and the
replica chain (docs/sharding.md, docs/replication.md).  To see one
request as one timeline, every wire payload may carry a ``trace``
envelope field::

    {"op": "clusters", "trace": {"id": "t3f1a-2", "span": "3f1a.7",
                                 "sampled": true}}

* ``id`` — the trace id, minted once by the originating
  :class:`~repro.service.client.ServiceClient` and copied verbatim by
  every hop;
* ``span`` — the *parent* span id: the sender's wire span, so the
  receiver's span can point back at it;
* ``sampled`` — the fleet-wide record/forward decision, made once at
  the root.  Unsampled contexts still propagate (so a downstream hop
  could flip sampling on in the future) but record nothing.

The current binding lives in a :class:`contextvars.ContextVar`, **not**
a thread-local: the server handles many connections as interleaved
asyncio tasks on one loop thread, and each task runs in its own Context
copy, so bindings cannot leak between concurrent requests.  Engine
spans recorded on the writer thread deliberately stay unparented — they
show up in the worker's process lane of the merged Chrome trace, while
tree connectivity comes from the wire spans
(:meth:`repro.obs.trace.Tracer.wire_span`).

Span ids are ``<pid-hex>.<counter-hex>`` — unique fleet-wide on one
machine without coordination.  Trace ids are minted by the client from
its session id, so they are unique per client and stable in replays.
"""

from __future__ import annotations

import itertools
import os
from contextvars import ContextVar, Token
from typing import Dict, Optional

__all__ = [
    "RootSampler",
    "TraceContext",
    "bind_context",
    "current_context",
    "new_span_id",
    "unbind_context",
]

_SPAN_IDS = itertools.count(1)


def new_span_id() -> str:
    """A fleet-unique span id (``<pid-hex>.<counter-hex>``)."""
    return f"{os.getpid():x}.{next(_SPAN_IDS):x}"


class TraceContext:
    """One hop's view of a distributed trace (immutable)."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool) -> None:
        self.trace_id = trace_id
        #: The sender-side span id — the *parent* of whatever span the
        #: receiver opens for this context.
        self.span_id = span_id
        self.sampled = sampled

    def child(self, span_id: str) -> "TraceContext":
        """The context a span opened under this one hands downstream."""
        return TraceContext(self.trace_id, span_id, self.sampled)

    def to_wire(self) -> Dict[str, object]:
        """The ``trace`` envelope field for an outgoing payload."""
        return {"id": self.trace_id, "span": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, obj: object) -> Optional["TraceContext"]:
        """Parse a ``trace`` envelope field; ``None`` when absent/bad.

        Malformed contexts are dropped rather than rejected: tracing is
        telemetry, and a request must never fail because its trace
        stamp is garbled.
        """
        if not isinstance(obj, dict):
            return None
        trace_id = obj.get("id")
        span_id = obj.get("span")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str):
            span_id = ""
        return cls(trace_id, span_id, bool(obj.get("sampled")))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(id={self.trace_id!r}, span={self.span_id!r}, "
            f"sampled={self.sampled})"
        )


class RootSampler:
    """Deterministic root traces for one request source.

    :meth:`mint` numbers each request (trace id ``<prefix>:<seq-hex>``)
    and samples it through an error-diffusion accumulator, with no
    PRNG: ``fraction=0.25`` samples exactly requests 4, 8, 12, ..., so
    a test (or an incident replay) sees the same traces every run.
    """

    __slots__ = ("prefix", "_seq", "_acc")

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._seq = 0
        self._acc = 0.0

    def mint(self, fraction: float) -> TraceContext:
        """The next request's root context, sampled at ``fraction``."""
        self._seq += 1
        self._acc += fraction
        sampled = self._acc >= 1.0 - 1e-12
        if sampled:
            self._acc -= 1.0
        return TraceContext(f"{self.prefix}:{self._seq:x}", new_span_id(), sampled)


#: The task's current trace binding (None outside any traced request).
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "anc_trace_context", default=None
)

#: Wire-span nesting depth within the current task (router request ->
#: scatter -> forward nest without touching any thread-local).
_DEPTH: ContextVar[int] = ContextVar("anc_trace_depth", default=0)


def current_context() -> Optional[TraceContext]:
    """The trace context bound to the running task, if any."""
    return _CURRENT.get()


def bind_context(ctx: Optional[TraceContext]) -> "Token[Optional[TraceContext]]":
    """Bind ``ctx`` for the current task; returns the reset token."""
    return _CURRENT.set(ctx)


def unbind_context(token: "Token[Optional[TraceContext]]") -> None:
    """Restore the binding captured by :func:`bind_context`."""
    _CURRENT.reset(token)
