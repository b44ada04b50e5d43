"""Low-overhead span tracing: where does one activation's time go?

A :class:`Tracer` records *spans* — named, nested phase timings — into a
bounded ring buffer.  The design constraints, in order:

1. **Disabled is free.**  ``tracer.span(...)`` on a disabled tracer is
   one attribute check plus returning a shared no-op context manager; no
   allocation, no clock read.  Engines are instrumented unconditionally
   and pay nothing until an operator turns tracing on.
2. **Enabled is cheap.**  A live span is two ``perf_counter`` reads and
   one deque append (under a lock, at span *exit* only).  The ring
   buffer (``capacity`` spans) keeps memory flat on unbounded streams —
   old spans fall off the back.
3. **Deterministic sampling.**  ``sample=0.25`` records every 4th
   top-level span via a per-thread accumulator — no RNG, so two runs of
   the same stream trace the same activations.  Nested spans follow
   their root's decision (a sampled activation is traced *whole*).

Spans carry start times relative to the tracer's epoch, a nesting depth
and the recording thread id, which is exactly what the Chrome
``trace_event`` export (:func:`repro.obs.export.fleet_chrome_trace`)
needs.

This module also re-exports :func:`time.perf_counter` as **the timing
facade for engine code**: ``repro.core`` / ``repro.index`` must never
read the machine clock for *state* (WAL replay must be byte-identical —
see the ``no-wall-clock-in-engine`` lint rule), but importing
``perf_counter`` from here marks a read as pure measurement, which the
rule's obs-facade allowlist admits.

:class:`Observability` bundles one registry + one tracer so a component
tree (engine → index → queries → watcher) shares a single wiring handle;
:data:`DISABLED_OBS` is the inert default every component starts with.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from time import time as _wall_time
from typing import ContextManager, Deque, Dict, List, Optional, Tuple

from .instruments import MetricsRegistry
from .propagate import (
    TraceContext,
    _DEPTH,
    bind_context,
    current_context,
    new_span_id,
    unbind_context,
)

__all__ = [
    "DISABLED_OBS",
    "NULL_TRACER",
    "Observability",
    "Span",
    "Tracer",
    "perf_counter",
]


class Span:
    """One completed phase timing (immutable once recorded).

    ``trace_id`` / ``span_id`` / ``parent_id`` are ``None`` for
    engine-internal spans; wire spans
    (:meth:`Tracer.wire_span`) carry all three so the fleet-trace merge
    (:func:`repro.obs.export.fleet_chrome_trace`) can stitch one
    request's hops across processes.
    """

    __slots__ = (
        "name",
        "start",
        "duration",
        "depth",
        "tid",
        "args",
        "trace_id",
        "span_id",
        "parent_id",
    )

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        depth: int,
        tid: int,
        args: Dict[str, object],
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.name = name
        #: Seconds since the tracer's epoch.
        self.start = start
        self.duration = duration
        #: Nesting depth (0 = top-level).
        self.depth = depth
        #: Recording thread id.
        self.tid = tid
        self.args = args
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, start={self.start:.6f}, "
            f"dur={self.duration:.6f}, depth={self.depth})"
        )


class _NullSpan:
    """Shared no-op context manager — the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _MutedSpan:
    """Context manager for a span under an unsampled root.

    Records nothing but maintains the per-thread mute depth, so every
    nested span of an unsampled top-level span is skipped with it.
    """

    __slots__ = ("_local",)

    def __init__(self, local: threading.local) -> None:
        self._local = local

    def __enter__(self) -> "_MutedSpan":
        self._local.muted = getattr(self._local, "muted", 0) + 1
        return self

    def __exit__(self, *exc: object) -> bool:
        self._local.muted -= 1
        return False


class _LiveSpan:
    """Context manager that times one phase and records it on exit."""

    __slots__ = ("_tracer", "_local", "name", "args", "depth", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        local: threading.local,
        name: str,
        args: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._local = local
        self.name = name
        self.args = args

    def __enter__(self) -> "_LiveSpan":
        local = self._local
        self.depth = getattr(local, "depth", 0)
        local.depth = self.depth + 1
        open_map = self._tracer._open
        if open_map is not None:
            open_map.setdefault(threading.get_ident(), []).append(self.name)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = perf_counter()
        self._local.depth = self.depth
        open_map = self._tracer._open
        if open_map is not None:
            stack = open_map.get(threading.get_ident())
            if stack:
                stack.pop()
        self._tracer._record(
            self.name, self._t0, end - self._t0, self.depth, self.args
        )
        return False


class _WireSpan:
    """A protocol-boundary span carrying distributed trace identity.

    Opened around one hop of a traced request (client request, router
    forward/scatter, server handler, replica fetch).  On entry it binds
    the *child* context — so payloads stamped inside (and nested wire
    spans) parent correctly — and on exit records a :class:`Span` with
    trace/span/parent ids.  Depth is tracked in a ``ContextVar``, never
    a thread-local: concurrent asyncio requests interleave on one loop
    thread.
    """

    __slots__ = ("_tracer", "name", "args", "_child", "_parent_id", "_tokens", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        args: Dict[str, object],
        child: TraceContext,
        parent_id: str,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._child = child
        self._parent_id = parent_id

    def __enter__(self) -> "_WireSpan":
        self._tokens = (bind_context(self._child), _DEPTH.set(_DEPTH.get() + 1))
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = perf_counter()
        ctx_token, depth_token = self._tokens
        depth = _DEPTH.get() - 1
        _DEPTH.reset(depth_token)
        unbind_context(ctx_token)
        self._tracer._record(
            self.name,
            self._t0,
            end - self._t0,
            depth,
            self.args,
            trace_id=self._child.trace_id,
            span_id=self._child.span_id,
            parent_id=self._parent_id,
        )
        return False


class _PropagateSpan:
    """Bind-only guard for an unsampled context: propagate, record nothing."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext) -> None:
        self._ctx = ctx

    def __enter__(self) -> "_PropagateSpan":
        self._token = bind_context(self._ctx)
        return self

    def __exit__(self, *exc: object) -> bool:
        unbind_context(self._token)
        return False


class Tracer:
    """Nested span recorder with a bounded buffer and deterministic sampling.

    Parameters
    ----------
    enabled:
        Initial state; :meth:`enable` / :meth:`disable` flip it live.
    capacity:
        Ring-buffer bound — only the most recent ``capacity`` spans are
        kept (memory stays flat on unbounded streams).
    sample:
        Fraction of *top-level* spans to record, in ``(0, 1]``.  Applied
        with a deterministic per-thread accumulator; nested spans follow
        their root's decision.
    """

    def __init__(
        self, *, enabled: bool = False, capacity: int = 8192, sample: float = 1.0
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.sample = 1.0
        self.set_sample(sample)
        self._epoch = perf_counter()
        #: Wall-clock time of the tracer's epoch — captured back-to-back
        #: with ``_epoch`` so exported spans can be placed on an absolute
        #: timeline shared by every process on the machine (the
        #: fleet-trace merge aligns lanes with it).
        self.epoch_unix = _wall_time()
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: tid -> names of currently open spans, maintained only while a
        #: profiler has called :meth:`track_open` (dark otherwise).
        self._open: Optional[Dict[int, List[str]]] = None
        #: Spans recorded over the tracer's lifetime (ring-buffer evictions
        #: do not decrement this).
        self.recorded = 0
        #: Top-level spans skipped by sampling.
        self.sampled_out = 0

    # -- configuration ----------------------------------------------------
    def enable(self) -> None:
        """Start recording (safe to call at any time)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; the buffer keeps its spans."""
        self.enabled = False

    def set_sample(self, sample: float) -> None:
        """Set the top-level sampling fraction (in ``(0, 1]``)."""
        if not 0.0 < sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {sample}")
        self.sample = sample

    def track_open(self, enabled: bool) -> None:
        """Maintain (or stop maintaining) the per-thread open-span stack.

        The sampling profiler (:mod:`repro.obs.profiler`) turns this on
        to attribute stack samples to engine phases; it is off by
        default so the live-span hot path pays only a ``None`` check.
        """
        self._open = {} if enabled else None

    def open_stack(self, tid: int) -> Tuple[str, ...]:
        """Names of the spans currently open on thread ``tid``."""
        open_map = self._open
        if not open_map:
            return ()
        return tuple(open_map.get(tid, ()))

    # -- recording --------------------------------------------------------
    def span(self, name: str, **args: object) -> ContextManager[object]:
        """Context manager timing one phase.

        Returns a shared no-op when disabled (the one-attribute-check
        fast path), a muted guard under an unsampled root, or a live
        span otherwise.  Usable from any thread; nesting depth is
        tracked per thread.
        """
        if not self.enabled:
            return _NULL_SPAN
        local = self._local
        if getattr(local, "muted", 0):
            return _MutedSpan(local)
        if self.sample < 1.0 and getattr(local, "depth", 0) == 0:
            acc = getattr(local, "acc", 0.0) + self.sample
            if acc < 1.0:
                local.acc = acc
                self.sampled_out += 1
                return _MutedSpan(local)
            local.acc = acc - 1.0
        return _LiveSpan(self, local, name, args)

    def wire_span(
        self,
        name: str,
        ctx: Optional[TraceContext] = None,
        **args: object,
    ) -> ContextManager[object]:
        """A protocol-boundary span joined to a distributed trace.

        ``ctx`` is the trace context that arrived on the wire; when
        omitted, the task's current binding
        (:func:`repro.obs.propagate.current_context`) is used, which is
        how a router's forward spans nest under its request span.

        Semantics differ from :meth:`span` in two deliberate ways:

        * **The sampled flag is the switch, not ``self.enabled``.**  A
          sampled context records on every hop even if this process
          never ran ``trace start`` — the fleet trace must not require
          coordinating N processes' tracer states.  An unsampled
          context binds (so downstream stamps stay correct) and records
          nothing; no context at all is a shared no-op.
        * **Task-safe, not thread-scoped.**  Binding and depth live in
          ``ContextVar``s because concurrent requests interleave as
          asyncio tasks on one loop thread.
        """
        if ctx is None:
            ctx = current_context()
            if ctx is None:
                return _NULL_SPAN
        if not ctx.sampled:
            return _PropagateSpan(ctx)
        return _WireSpan(self, name, args, ctx.child(new_span_id()), ctx.span_id)

    def record(
        self,
        name: str,
        *,
        duration: float,
        start: Optional[float] = None,
        depth: int = 0,
        **args: object,
    ) -> None:
        """Record an externally timed measurement as a completed span.

        For callers that already hold a duration (the bench harness's
        ``timed()``).  ``start`` is a ``perf_counter`` value; when omitted
        the span is laid out as ending now.  No-op when disabled;
        sampling does not apply.
        """
        if not self.enabled:
            return
        if start is None:
            start = perf_counter() - duration
        self._record(name, start, duration, depth, dict(args))

    def _record(
        self,
        name: str,
        t0: float,
        duration: float,
        depth: int,
        args: Dict[str, object],
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        span = Span(
            name,
            t0 - self._epoch,
            duration,
            depth,
            threading.get_ident(),
            dict(args) if args else {},
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
        )
        with self._lock:
            self._spans.append(span)
            self.recorded += 1

    # -- reading ----------------------------------------------------------
    def spans(self) -> List[Span]:
        """The buffered spans, oldest first (the buffer is kept)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Span]:
        """Return the buffered spans and clear the buffer."""
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
        return out

    def __len__(self) -> int:
        return len(self._spans)

    def status(self) -> Dict[str, object]:
        """JSON-able state summary (the server's ``trace`` op returns it)."""
        return {
            "enabled": self.enabled,
            "sample": self.sample,
            "capacity": self.capacity,
            "buffered": len(self._spans),
            "recorded": self.recorded,
            "sampled_out": self.sampled_out,
        }


#: Shared inert tracer — the default every instrumented component binds.
NULL_TRACER = Tracer(enabled=False, capacity=1)


class Observability:
    """One registry + one tracer, shared down a component tree.

    An engine's ``attach_obs`` hands the same bundle to its metric,
    index, query engine and watcher, so all of them register into one
    registry and trace into one buffer.  ``enabled=False`` (the
    :data:`DISABLED_OBS` default) means components skip registration
    entirely and keep the no-op tracer fast path.
    """

    __slots__ = ("registry", "tracer", "enabled")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        *,
        enabled: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.enabled = enabled


#: The inert default bundle: disabled, with the shared no-op tracer.
DISABLED_OBS = Observability(tracer=NULL_TRACER, enabled=False)
