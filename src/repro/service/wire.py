"""The JSON-lines transport every async hop of the fleet shares.

One request is one JSON object on one line, answered by one JSON object
on one line (docs/service.md).  Two pieces carry it:

* :class:`Upstream` — the calling side: pooled connections to one
  endpoint, one request/answer round trip per call.  The shard router's
  worker links, the read router's fleet nodes and the follower's
  replication link are all upstreams.
* :class:`FrontEnd` — the serving side of every node: bind, announce,
  read → dispatch → write with slow-client eviction, the typed-fault
  envelope, and a stop that fails in-flight work before it waits.
  :class:`~repro.service.server.ANCServer`, the shard router and the
  read router are front ends; the server's fault sites, injected-crash
  semantics and ``degraded`` accounting ride the connection hooks.

:func:`parse_number` is the one reader of numeric request fields.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import os
import signal
import sys
import threading
import time
from typing import (
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
)

from ..obs.export import render_prometheus, span_dicts, trace_op
from ..obs.instruments import MetricsRegistry
from ..obs.propagate import TraceContext, current_context
from ..obs.trace import Observability, Tracer
from .errors import BadRequest, UnknownOp, fault_response

__all__ = [
    "LINE_LIMIT",
    "TRANSPORT_ERRORS",
    "FrontEnd",
    "Sever",
    "Upstream",
    "parse_number",
]

log = logging.getLogger("repro.service.wire")

#: Longest line (request or answer) any hop reads: a 512-record
#: ``wal_fetch`` chunk or a merged ``clusters`` answer must fit.
LINE_LIMIT = 4 * 1024 * 1024

#: What one failed :meth:`Upstream.request` raises: socket errors, resets
#: and deadlines (``TimeoutError`` is an ``OSError``), and an answer line
#: that is over-long or not JSON (``ValueError``).
TRANSPORT_ERRORS = (OSError, ValueError)

#: Idle connections an :class:`Upstream` keeps for reuse.
POOL_CAPACITY = 8

#: A client whose answer does not drain within this many seconds is evicted.
WRITE_TIMEOUT = 30.0

#: Longest a stop waits for the listener to close after aborting clients.
STOP_TIMEOUT = 5.0

#: Span ring-buffer capacity of a front end's tracer (``trace`` op).
TRACE_CAPACITY = 8192

_Conn = Tuple[asyncio.StreamReader, asyncio.StreamWriter]
Handler = Callable[..., Awaitable[Dict[str, object]]]
_N = TypeVar("_N", int, float)


class Sever(Exception):
    """Raised by a handler or a connection hook: drop the client's
    connection and send no answer (an injected reset or crash)."""


def parse_number(value: object, name: str, kind: Type[_N]) -> _N:
    """Request field ``name`` as an ``int`` or as a finite ``float``.

    Only JSON numbers qualify: null, booleans, strings and lists are
    refused, and so are NaN and the infinities (``1e999`` decodes to
    one) and, where an ``int`` is due, a number with a fraction.  The
    refusal is a :class:`BadRequest`, so it answers ``BAD_REQUEST``.
    """
    if isinstance(value, float):
        if value.is_integer() or (kind is float and math.isfinite(value)):
            return kind(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        if kind is int or abs(value) <= sys.float_info.max:
            return kind(value)
    what = "an integer" if kind is int else "a finite number"
    raise BadRequest(f"{name} must be {what}, got {value!r}")


class Upstream:
    """Pooled JSON-lines connections to one endpoint.

    Each :meth:`request` is one attempt: take an idle connection (or
    open one), write one line, read one line, decode it.  Retries,
    backoff and breakers are the caller's: what to do between attempts
    differs per caller.  A request that fails or is cancelled aborts its
    connection, so no later request can read a stale answer; a failure
    also drops the idle connections, which lead to the same peer.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = str(host)
        self.port = int(port)
        self._idle: List[_Conn] = []
        #: Connections carrying a request, so :meth:`abort_all` can fail them.
        self._busy: Set[asyncio.StreamWriter] = set()
        self._closed = False

    @property
    def key(self) -> str:
        return f"{self.host}:{self.port}"

    async def request(
        self,
        payload: Mapping[str, object],
        *,
        timeout: Optional[float] = None,
        trace: bool = False,
        on_sent: Optional[Callable[[], None]] = None,
        observe: Optional[Callable[[float], None]] = None,
    ) -> Dict[str, object]:
        """One round trip; returns the decoded answer object.

        ``timeout`` bounds the whole attempt (connect included; ``None``
        or 0 = no deadline).  ``trace`` stamps the task's bound trace
        context onto the payload.  ``on_sent`` runs once the request
        bytes are flushed, before the answer is read; raising there
        fails the attempt.  ``observe`` receives the seconds from the
        first request byte written to the answer line read.  Raises one
        of :data:`TRANSPORT_ERRORS` on any failure.
        """
        if trace:
            bound = current_context()
            if bound is not None:
                payload = {**payload, "trace": bound.to_wire()}
        data = json.dumps(payload).encode() + b"\n"
        conn: Optional[_Conn] = None
        try:
            async with asyncio.timeout(timeout or None):
                conn = reader, writer = await self._take()
                started = time.monotonic()
                writer.write(data)
                await writer.drain()
                if on_sent is not None:
                    on_sent()
                line = await reader.readline()
            if observe is not None:
                observe(time.monotonic() - started)
            if not line:
                raise ConnectionResetError(
                    f"{self.key} closed the connection mid-request"
                )
            answer = json.loads(line)
            if not isinstance(answer, dict):
                raise ConnectionResetError(f"{self.key} sent a non-object answer")
        except BaseException as exc:
            if conn is not None:
                self._busy.discard(conn[1])
                conn[1].transport.abort()
            if not isinstance(exc, asyncio.CancelledError):
                self._drop_idle()
            raise
        self._busy.discard(writer)
        if self._closed or len(self._idle) >= POOL_CAPACITY:
            writer.transport.abort()
        else:
            self._idle.append((reader, writer))
        return answer

    async def _take(self) -> _Conn:
        """An idle connection the peer has not closed, or a new one."""
        while self._idle:
            reader, writer = self._idle.pop()
            if writer.is_closing() or reader.at_eof():
                writer.transport.abort()
                continue
            self._busy.add(writer)
            return reader, writer
        if self._closed:
            raise ConnectionAbortedError(f"upstream {self.key} is closed")
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT
        )
        if self._closed:  # aborted while connecting
            writer.transport.abort()
            raise ConnectionAbortedError(f"upstream {self.key} is closed")
        self._busy.add(writer)
        return reader, writer

    def _drop_idle(self) -> None:
        for _reader, writer in self._idle:
            writer.transport.abort()
        self._idle.clear()

    def abort_all(self) -> None:
        """Fail every connection, idle and in flight, and refuse new requests.

        Failing the in-flight requests is the point: one parked on a
        peer that never answers would otherwise hold its caller for the
        whole deadline (or forever, without one).
        """
        self._closed = True
        self._drop_idle()
        for writer in list(self._busy):
            writer.transport.abort()
        self._busy.clear()


class FrontEnd:
    """The serving side of a node: one JSON-lines listener.

    Subclasses supply the op table (``_OPS``), the span and metric
    prefix (``_PREFIX``: each request opens a ``<prefix>.<op>`` wire
    span and counts into ``<prefix>_requests``), the envelope stamp
    (:meth:`_stamp`), the upstreams a stop must fail (:meth:`upstreams`)
    and the start and stop steps (:meth:`_on_start`, :meth:`_on_stop`).
    The connection hooks (:meth:`_on_connect`, :meth:`_on_request`,
    :meth:`_on_send`, :meth:`_on_evict`, :meth:`_on_error`) do nothing
    here; a hook or handler that raises :class:`Sever` drops the
    connection without an answer.
    """

    #: op name -> ``async handler(self, request)``.
    _OPS: Dict[str, Handler] = {}
    _PREFIX = "frontend"

    def __init__(
        self, bind_host: str, port: int, *, write_timeout: float = WRITE_TIMEOUT
    ) -> None:
        self.bind_host = bind_host
        #: Bound port, set by :meth:`start` (``port=0`` picks a free one).
        self.port: Optional[int] = None
        self._bind_port = port
        #: Seconds an answer may take to drain before its client is
        #: evicted (0 = wait forever).
        self.write_timeout = write_timeout
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=False, capacity=TRACE_CAPACITY)
        self.obs = Observability(registry=self.metrics, tracer=self.tracer)
        self._c_requests = self.metrics.counter(f"{self._PREFIX}_requests")
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._clients: Set[asyncio.StreamWriter] = set()

    # -- subclass steps ---------------------------------------------------

    async def _on_start(self) -> None:
        """Runs once the listener is bound (:attr:`port` is known), before
        it accepts a connection."""

    async def _on_stop(self) -> None:
        """Runs after the listener closed and every client was dropped."""

    def upstreams(self) -> Iterable[Upstream]:
        """Every upstream a stop must fail."""
        return ()

    def _announce_lines(self) -> List[str]:
        """Lines :meth:`run` prints before ``SERVING host port``."""
        return []

    def _stamp(self, response: Dict[str, object]) -> None:
        """Add this tier's envelope fields to every answer."""

    def _unrouted(self, op: object) -> Handler:
        """The handler for an op missing from ``_OPS`` (default: refuse)."""
        raise UnknownOp(f"unknown op {op!r}")

    # -- connection hooks -------------------------------------------------

    async def _on_connect(self) -> None:
        """A client connected; runs before its first request is read."""

    async def _on_request(self) -> None:
        """A request line arrived; runs before it is dispatched."""

    async def _on_send(self) -> None:
        """An answer was written; runs before the drain, under the
        :attr:`write_timeout` deadline."""

    def _on_evict(self) -> None:
        """A client was evicted: its answer missed the write deadline."""

    def _on_error(self, exc: Exception) -> None:
        """A handler raised ``exc``, which is about to become an error
        envelope; raise :class:`Sever` to hang up instead."""

    # -- ops every front end may list -------------------------------------

    async def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        self.request_stop()
        return {"stopping": True}

    async def _op_metrics(self, request: Dict[str, object]) -> Dict[str, object]:
        return {"metrics": self.metrics.snapshot()}

    async def _op_metrics_text(self, request: Dict[str, object]) -> Dict[str, object]:
        namespace = str(request.get("namespace", "anc"))
        snapshot = self.metrics.snapshot()
        return {"text": render_prometheus([({}, snapshot)], namespace=namespace)}

    async def _op_trace(self, request: Dict[str, object]) -> Dict[str, object]:
        return trace_op(self.tracer, request)

    def _trace_entry(self, process: str, drain: bool) -> Dict[str, object]:
        """This process's span buffer as one ``trace_fetch`` entry
        (``{pid, process, spans}``); ``drain`` empties the buffer."""
        spans = self.tracer.drain() if drain else self.tracer.spans()
        return {
            "pid": os.getpid(),
            "process": process,
            "spans": span_dicts(spans, epoch_unix=self.tracer.epoch_unix),
        }

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind, run :meth:`_on_start`, then accept connections."""
        server = await asyncio.start_server(
            self._serve,
            self.bind_host,
            self._bind_port,
            limit=LINE_LIMIT,
            start_serving=False,
        )
        self.port = server.sockets[0].getsockname()[1]
        try:
            await self._on_start()
        except BaseException:
            server.close()
            raise
        self._server = server
        await server.start_serving()
        log.info("%s serving on %s:%d", type(self).__name__, self.bind_host, self.port)

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a client ``shutdown``), then stop."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self._shutdown()

    async def run(self, *, announce: Optional[Callable[[str], object]] = None) -> None:
        """Start, announce ``SERVING <host> <port>``, serve until stopped.

        ``announce`` receives each announce line (default: print to
        stdout, which process harnesses parse).
        """
        await self.start()
        emit = announce if announce is not None else lambda line: print(line, flush=True)
        for line in self._announce_lines():
            emit(line)
        emit(f"SERVING {self.bind_host} {self.port}")
        await self.serve_forever()

    def request_stop(self) -> None:
        """Ask the front end to stop (idempotent, safe from handlers)."""
        self._stop.set()

    def stop_on_signals(self) -> None:
        """Make SIGTERM and SIGINT call :meth:`request_stop`.

        Call it on the running loop: when that loop runs on the main
        thread, either signal stops the node as a ``shutdown`` op does,
        final checkpoint included.  Elsewhere it does nothing, since
        only the main thread handles signals.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_stop)

    @property
    def crashed(self) -> bool:
        """True when the node hard-stopped instead of stopping cleanly."""
        return False

    async def stop(self) -> None:
        """Request and await the stop."""
        self.request_stop()
        if self._server is not None:
            await self._shutdown()

    async def _shutdown(self) -> None:
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        # Fail in-flight work before waiting: a handler parked in a
        # forward to a dead upstream, or a client idling on its
        # connection, would hold wait_closed() (3.12 waits for every
        # client to go).  One loop turn between the two lets an answer
        # the stop released (a parked ``wal_fetch``) leave first.
        for upstream in self.upstreams():
            upstream.abort_all()
        await asyncio.sleep(0)
        for writer in list(self._clients):
            writer.transport.abort()
        try:
            async with asyncio.timeout(STOP_TIMEOUT):
                await server.wait_closed()
        except TimeoutError:
            log.warning(
                "%s connections did not drain within %.0fs; abandoning them",
                type(self).__name__,
                STOP_TIMEOUT,
            )
        await self._on_stop()

    # -- serving ----------------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients.add(writer)
        try:
            await self._on_connect()
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                await self._on_request()
                response = await self._respond(line)
                writer.write(json.dumps(response).encode() + b"\n")
                # A client that stops reading would otherwise pin this
                # handler, and every answer it buffers, forever.
                try:
                    async with asyncio.timeout(self.write_timeout or None):
                        await self._on_send()
                        await writer.drain()
                except TimeoutError:
                    log.warning(
                        "evicting slow %s client (write stalled > %.1fs)",
                        self._PREFIX,
                        self.write_timeout,
                    )
                    self._on_evict()
                    writer.transport.abort()
                    return
        except (Sever, ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):  # anclint: disable=service-exception-discipline — the peer went away mid-conversation, or a hook severed the link on purpose; aborting our side is the handling
            writer.transport.abort()
        finally:
            self._clients.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # anclint: disable=service-exception-discipline — close handshake racing the peer's reset; nothing to map
                pass

    async def _respond(self, raw: bytes) -> Dict[str, object]:
        """Answer one request line with an envelope; raises only :class:`Sever`."""
        request_id: object = None
        self._c_requests.inc()
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op")
            handler = self._OPS.get(op) if isinstance(op, str) else None
            if handler is None:
                handler = self._unrouted(op)
            # Bind the client's trace context around the whole dispatch:
            # a sampled request records one ``<prefix>.<op>`` span, and
            # the requests it triggers downstream stamp child contexts.
            # A trace_fetch is never traced, whoever sends it: each node
            # reads its span buffer while the fetch's own spans would
            # still be open, so they would reach no answer and leave
            # the spans below them without a parent.
            ctx = None if op == "trace_fetch" else TraceContext.from_wire(request.get("trace"))
            with self.tracer.wire_span(f"{self._PREFIX}.{op}", ctx, op=str(op)):
                response = await handler(self, request)
            response.setdefault("ok", True)
        except Sever:
            raise
        except Exception as exc:  # protocol boundary: map to a typed envelope
            self._on_error(exc)
            response = fault_response(exc)
        self._stamp(response)
        if request_id is not None:
            response["id"] = request_id
        return response
