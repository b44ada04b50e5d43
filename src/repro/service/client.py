"""Blocking JSON-lines client with retry, timeouts and a circuit breaker.

Plain sockets, no dependencies: one request out, one response in.  The
benchmark load generator, the examples and operational scripts all talk
to the server through this class; anything else can speak the protocol
directly (it is a dozen lines in any language — see ``docs/service.md``).

Resilience semantics (the full contract is in ``docs/faults.md``):

* **Typed failures.**  Connection refusal raises
  :class:`ServiceConnectError`; a connect or per-op deadline raises
  :class:`ServiceTimeout`; a server ``RETRY_AFTER`` that outlives the
  retry budget raises :class:`ServiceRetryAfter`; an open circuit
  breaker raises :class:`ServiceUnavailable` without touching the wire.
* **Bounded retry.**  Transport failures on idempotent requests retry up
  to :attr:`RetryPolicy.attempts` times with exponential backoff and
  *deterministic* jitter (the policy's seeded RNG — two clients built
  with the same seed sleep the same schedule).
* **Exactly-once ingest.**  Every ``ingest_batch`` carries an
  idempotency key derived from the client's own batch sequence number;
  the server remembers completed keys and resumes half-done ones, so an
  at-least-once resend never double-applies an activation.
* **Circuit breaker.**  After ``failure_threshold`` consecutive
  transport-level failures the breaker opens and requests fail fast for
  ``cooldown`` seconds, then a half-open probe decides.  Breaker state
  and client retry counters are appended to :meth:`metrics_text` as
  Prometheus samples next to the server's own.
* **Failover.**  Given a ``failover`` endpoint list the client rotates
  to the next endpoint on transport failures and on ``FENCED`` /
  ``READ_ONLY`` / ``STALE`` / stale-epoch refusals (a deposed primary,
  a follower that has not been promoted yet, or a replica behind the
  session token), so one client object rides out a replica failover
  (docs/replication.md).  ``RETRY_AFTER`` shed windows are honoured
  *per endpoint*: an overloaded primary's back-off hint never delays a
  request that can go to a different node, and rotation skips
  endpoints still inside their window.  An observed epoch advance (a
  promotion) clears every shed window — the topology the windows were
  recorded against is gone, and a fresh primary must not be skipped on
  the strength of its predecessor's overload.
* **Read-your-writes sessions.**  With ``session_reads=True`` the
  client carries a session token — the applied watermark implied by
  its own acknowledged writes (a write response's ``seq + 1``) — and
  stamps it on every snapshot read, so a follower (or the read router)
  either serves a state at least that new or answers the typed
  ``STALE`` (docs/replication.md § Read routing).  ``max_staleness``
  additionally bounds how many records a serving replica may trail its
  primary by.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.export import render_prometheus, span_dicts
from ..obs.propagate import RootSampler, TraceContext, current_context
from ..obs.trace import Tracer
from .breaker import CircuitBreaker

__all__ = [
    "RetryPolicy",
    "ServiceClient",
    "ServiceConnectError",
    "ServiceError",
    "ServiceRetryAfter",
    "ServiceTimeout",
    "ServiceUnavailable",
]

Label = Union[str, int]

#: Distinguishes concurrently-created clients in their idempotency keys.
_CLIENT_IDS = itertools.count()


class ServiceError(RuntimeError):
    """The server answered ``{"ok": false}``; carries its error message.

    ``code`` mirrors the protocol's ``error_type`` vocabulary
    (``BAD_REQUEST`` / ``RETRY_AFTER`` / ``INTERNAL`` / ...); client-side
    failures use their own codes (``CONNECT`` / ``TIMEOUT`` /
    ``UNAVAILABLE``).
    """

    def __init__(self, message: str, *, code: str = "INTERNAL") -> None:
        super().__init__(message)
        self.code = code


class ServiceConnectError(ServiceError):
    """Could not reach the server (refused, reset, or closed mid-request)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="CONNECT")


class ServiceTimeout(ServiceError):
    """A connect or request deadline expired."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="TIMEOUT")


class ServiceRetryAfter(ServiceError):
    """The server shed the request (overload) beyond the retry budget."""

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message, code="RETRY_AFTER")
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """The circuit breaker is open; the request never reached the wire."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="UNAVAILABLE")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay(k)`` for retry number ``k`` (0-based) is
    ``min(base_delay * factor**k, max_delay)`` spread by ``±jitter``
    using the policy consumer's seeded RNG, so retry storms decorrelate
    across clients while any single run replays exactly.
    """

    attempts: int = 4
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, retry: int, rng: random.Random) -> float:
        raw = min(self.base_delay * self.factor ** retry, self.max_delay)
        if self.jitter <= 0.0:
            return raw
        spread = raw * self.jitter
        return max(0.0, raw - spread + 2.0 * spread * rng.random())


class ServiceClient:
    """One TCP connection to a running ANC service.

    Usable as a context manager::

        with ServiceClient("127.0.0.1", 7700) as client:
            client.ingest("alice", "bob", t=12.5)
            client.sync()
            print(client.clusters())

    ``timeout`` is the default per-operation (and connect) deadline;
    individual :meth:`request` calls may override it.  ``retry`` and
    ``breaker`` default to :class:`RetryPolicy()` and
    :class:`CircuitBreaker()`.  ``failover`` lists additional
    ``(host, port)`` endpoints (typically the standbys of a replicated
    deployment) the client rotates through when the current endpoint is
    unreachable, fenced, read-only, or answering from a stale epoch.

    ``trace_sample`` > 0 turns on distributed tracing: every request is
    stamped with a ``trace`` envelope (``docs/observability.md``) whose
    trace id derives from this client's session and request counter —
    fully deterministic, no PRNG.  The sampled flag follows an
    accumulator (``trace_sample=0.25`` samples exactly every 4th
    request); sampled requests additionally record a ``client.<op>``
    root span in :attr:`tracer`, the client-side lane of the merged
    fleet trace.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        failover: Optional[Sequence[Tuple[str, int]]] = None,
        trace_sample: float = 0.0,
        session_reads: bool = False,
        max_staleness: Optional[int] = None,
    ) -> None:
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {trace_sample}"
            )
        self._host = host
        self._port = int(port)
        self._timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._endpoints: List[Tuple[str, int]] = [(str(host), int(port))]
        for extra_host, extra_port in failover or ():
            endpoint = (str(extra_host), int(extra_port))
            if endpoint not in self._endpoints:
                self._endpoints.append(endpoint)
        self._cursor = 0
        #: Per-endpoint monotonic deadline before which the server asked
        #: us not to resend (RETRY_AFTER).  Keyed by endpoint index so an
        #: overloaded node's shed window never throttles its peers.
        self._shed_until: Dict[int, float] = {}
        self._rng = random.Random(self.retry.seed)
        #: Requests re-sent after a transport failure or RETRY_AFTER.
        self.retries = 0
        #: Successful re-connections after losing an established one.
        self.reconnects = 0
        #: Endpoint rotations (transport failover + fenced/read-only/stale).
        self.failovers = 0
        #: Highest replication epoch seen in any response envelope.
        self.last_epoch = 0
        #: Thread the session token into snapshot reads (read-your-writes).
        self.session_reads = bool(session_reads)
        #: Staleness bound (in records behind the primary) stamped on reads.
        self.max_staleness = (
            int(max_staleness) if max_staleness is not None else None
        )
        #: The applied watermark this session's reads must reflect —
        #: advanced by every acknowledged write to ``seq + 1`` (seq is
        #: 0-based) and by observed ``sync`` barriers.
        self.session_token = 0
        self._batch_seq = 0
        self._session = f"{os.getpid()}-{next(_CLIENT_IDS)}"
        self._trace_sample = trace_sample
        self._trace_roots = RootSampler(self._session)
        #: Client-side span buffer; sampled requests record their
        #: ``client.<op>`` root spans here (the client lane of a fleet
        #: trace — see :meth:`trace_spans`).
        self.tracer = Tracer(enabled=False, capacity=4096)
        self._sock: Optional[socket.socket] = None
        self._file: Optional[IO[bytes]] = None
        self._connect()

    # -- plumbing ---------------------------------------------------------
    def _advance_endpoint(self) -> None:
        """Rotate to the next usable endpoint (no-op with a single one).

        Prefers the first endpoint past its ``RETRY_AFTER`` shed window;
        when every endpoint is still inside one, plain round-robin — the
        per-attempt backoff in :meth:`request` provides the waiting.
        """
        count = len(self._endpoints)
        if count <= 1:
            return
        now = time.monotonic()
        chosen = (self._cursor + 1) % count
        for step in range(1, count):
            candidate = (self._cursor + step) % count
            if self._shed_until.get(candidate, 0.0) <= now:
                chosen = candidate
                break
        self._cursor = chosen
        self._host, self._port = self._endpoints[chosen]
        self.failovers += 1

    def _observe_epoch(self, response: Dict[str, object]) -> int:
        """Track the topology's epoch; returns the pre-update watermark."""
        previous = self.last_epoch
        for field in ("epoch", "fenced_by"):
            value = response.get(field)
            if isinstance(value, int):
                self.last_epoch = max(self.last_epoch, value)
        if self.last_epoch > previous and self._shed_until:
            # A promotion happened: the shed windows were recorded
            # against the pre-failover topology, and the endpoint that
            # shed as an overloaded primary may now *be* the fresh
            # primary — rotation must not skip it on its predecessor's
            # overload hint.
            self._shed_until.clear()
        return previous

    def _connect(self) -> None:
        """Establish a connection, retrying refusals with backoff.

        With one endpoint this raises :class:`ServiceTimeout` when the
        connect deadline expires (the server is reachable but not
        answering — waiting longer is a different failure than "nothing
        listens there") and :class:`ServiceConnectError` once refusals
        exhaust the budget.  With a failover list every endpoint is
        tried each attempt (rotating on refusal *and* timeout) before
        backing off.
        """
        attempts = max(1, self.retry.attempts)
        single = len(self._endpoints) == 1
        last: Optional[ServiceError] = None
        cause: Optional[OSError] = None
        for attempt in range(attempts):
            if attempt > 0:
                self._sleep(self.retry.delay(attempt - 1, self._rng))
            for _ in range(len(self._endpoints)):
                host, port = self._endpoints[self._cursor]
                try:
                    sock = socket.create_connection(
                        (host, port), timeout=self._timeout
                    )
                except socket.timeout as exc:
                    timed_out = ServiceTimeout(
                        f"connecting to {host}:{port} timed out "
                        f"after {self._timeout}s"
                    )
                    if single:
                        raise timed_out from exc
                    last, cause = timed_out, exc
                    self._advance_endpoint()
                    continue
                except OSError as exc:  # anclint: disable=service-exception-discipline — refusal is retried (on the next endpoint when there is one); exhaustion raises ServiceConnectError from the stored cause below
                    last = ServiceConnectError(
                        f"cannot connect to {host}:{port}: {exc}"
                    )
                    cause = exc
                    self._advance_endpoint()
                    continue
                self._sock = sock
                self._file = sock.makefile("rwb")
                self._host, self._port = host, port
                return
        if isinstance(last, ServiceTimeout):
            raise last from cause
        targets = ", ".join(f"{h}:{p}" for h, p in self._endpoints)
        raise ServiceConnectError(
            f"cannot connect to {targets} after {attempts} attempts: {cause}"
        ) from cause

    def _teardown(self) -> None:
        """Drop the broken connection (reconnect happens lazily on retry)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # anclint: disable=service-exception-discipline — closing an already-broken pipe; the socket close below is the cleanup
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # anclint: disable=service-exception-discipline — nothing to map: the descriptor is gone either way
                pass
        self._file = None
        self._sock = None

    def _sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def _round_trip(self, payload: bytes, timeout: Optional[float]) -> Dict[str, object]:
        sock, file = self._sock, self._file
        if sock is None or file is None:
            raise ConnectionError("not connected")
        sock.settimeout(timeout if timeout is not None else self._timeout)
        file.write(payload)
        file.flush()
        line = file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ServiceError(f"malformed response: {response!r}")
        return response

    def _mint_trace(self) -> Optional[TraceContext]:
        """The next request's root trace context (None = tracing off).

        Deterministic: the trace id numbers the request within the
        client session, and ``trace_sample=0.25`` samples exactly
        requests 4, 8, 12, ... (:class:`~repro.obs.propagate.RootSampler`).
        """
        if self._trace_sample <= 0.0:
            return None
        return self._trace_roots.mint(self._trace_sample)

    def request(
        self,
        op: str,
        *,
        timeout: Optional[float] = None,
        idempotent: bool = True,
        **fields: object,
    ) -> Dict[str, object]:
        """Send one request; return the decoded response or raise typed.

        Transport failures and ``RETRY_AFTER`` envelopes are retried
        (with backoff) while ``idempotent`` is true; other error
        envelopes raise :class:`ServiceError` immediately with the
        server's ``error_type`` as :attr:`ServiceError.code`.

        With a failover list, transport failures rotate endpoints, and
        three refusals become retryable by rotating instead of raising:
        ``FENCED`` / ``READ_ONLY`` (this node cannot take writes — some
        peer presumably can) and an ``ok`` answer stamped with an epoch
        below the highest this client has seen (a deposed primary still
        answering; its reads may be arbitrarily stale).  ``RETRY_AFTER``
        is honoured per endpoint: the shed node's window is recorded,
        and the request goes immediately to a peer outside its own
        window when one exists.
        """
        body = {"op": op, **{k: v for k, v in fields.items() if v is not None}}
        ctx = self._mint_trace()
        if ctx is None:
            return self._send(op, body, timeout=timeout, idempotent=idempotent)
        with self.tracer.wire_span(f"client.{op}", ctx, op=op):
            bound = current_context()
            if bound is not None:
                body["trace"] = bound.to_wire()
            return self._send(op, body, timeout=timeout, idempotent=idempotent)

    def _send(
        self,
        op: str,
        body: Dict[str, object],
        *,
        timeout: Optional[float],
        idempotent: bool,
    ) -> Dict[str, object]:
        """The retry/failover loop behind :meth:`request`."""
        if not self.breaker.allow():
            raise ServiceUnavailable(
                f"circuit breaker open after {self.breaker.failures} "
                f"consecutive failures; cooling down {self.breaker.cooldown}s"
            )
        payload = json.dumps(body).encode() + b"\n"
        attempts = max(1, self.retry.attempts) if idempotent else 1
        last_error: Optional[ServiceError] = None
        next_delay: Optional[float] = None
        for attempt in range(attempts):
            if attempt > 0:
                self.retries += 1
                if next_delay is None:
                    next_delay = self.retry.delay(attempt - 1, self._rng)
                self._sleep(next_delay)
                next_delay = None
            if self._sock is None:
                try:
                    self._connect()
                    self.reconnects += 1
                except ServiceError as exc:
                    last_error = exc
                    continue
            try:
                response = self._round_trip(payload, timeout)
            except socket.timeout:
                self._teardown()
                self._advance_endpoint()
                last_error = ServiceTimeout(
                    f"{op} timed out after {timeout or self._timeout}s"
                )
                continue
            except (ConnectionError, OSError) as exc:
                self._teardown()
                self._advance_endpoint()
                last_error = ServiceConnectError(f"connection lost during {op}: {exc}")
                continue
            epoch_seen = self._observe_epoch(response)
            if response.get("ok"):
                epoch = response.get("epoch")
                if (
                    len(self._endpoints) > 1
                    and isinstance(epoch, int)
                    and 0 < epoch < epoch_seen
                ):
                    # A deposed node still answering: its data predates
                    # the fence.  Ask a peer instead.
                    last_error = ServiceError(
                        f"{op} answered from stale epoch {epoch} "
                        f"(newest seen: {epoch_seen})",
                        code="STALE_EPOCH",
                    )
                    self._teardown()
                    self._advance_endpoint()
                    continue
                self.breaker.record_success()
                return response
            error_type = str(response.get("error_type", "INTERNAL"))
            message = str(response.get("error", "unknown server error"))
            if error_type == "RETRY_AFTER":
                hint = response.get("retry_after")
                retry_after = (
                    float(hint)
                    if isinstance(hint, (int, float))
                    else self.retry.base_delay
                )
                last_error = ServiceRetryAfter(message, retry_after=retry_after)
                shed_endpoint = self._cursor
                self._shed_until[shed_endpoint] = time.monotonic() + retry_after
                self._advance_endpoint()
                if self._cursor != shed_endpoint:
                    # A peer outside its own shed window can take this
                    # request now; the overloaded node's hint only
                    # throttles the overloaded node.
                    self._teardown()
                    next_delay = 0.0
                else:
                    next_delay = min(retry_after, self.retry.max_delay)
                continue
            if error_type in ("FENCED", "READ_ONLY") and len(self._endpoints) > 1:
                # This node cannot take the write, but a peer (the newly
                # promoted primary) presumably can.
                last_error = ServiceError(message, code=error_type)
                self._teardown()
                self._advance_endpoint()
                continue
            if error_type == "STALE" and idempotent:
                # The node is behind this session's token (or the
                # staleness bound).  A peer may be caught up; with a
                # single endpoint the backoff gives this one time to
                # catch up.  Either way the retry budget bounds the wait
                # and exhaustion surfaces the typed STALE.
                last_error = ServiceError(message, code=error_type)
                if len(self._endpoints) > 1:
                    self._teardown()
                    self._advance_endpoint()
                continue
            # The server answered: it is alive.  Surface its error as-is
            # without moving the breaker or burning retries.
            raise ServiceError(message, code=error_type)
        self.breaker.record_failure()
        if last_error is None:  # attempts >= 1 always sets it; belt and braces
            last_error = ServiceConnectError(f"{op} failed without a response")
        raise last_error

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- client-side metrics ----------------------------------------------
    def client_metrics_text(self, *, namespace: str = "anc") -> str:
        """Client resilience counters in Prometheus text format.

        Rendered as one unlabeled source by the nodes' own renderer
        (:func:`~repro.obs.export.render_prometheus`), so it
        concatenates with a node's scrape (see :meth:`metrics_text`).
        Breaker state encodes as 0 = closed, 1 = open, 2 = half-open.
        """
        states = {
            CircuitBreaker.CLOSED: 0.0,
            CircuitBreaker.OPEN: 1.0,
            CircuitBreaker.HALF_OPEN: 2.0,
        }
        snapshot = {
            "counters": {
                "client_retries": self.retries,
                "client_reconnects": self.reconnects,
                "client_failovers": self.failovers,
                "client_breaker_opened": self.breaker.opened_total,
            },
            "gauges": {
                "client_last_epoch": self.last_epoch,
                "client_breaker_failures": self.breaker.failures,
                "client_breaker_state": states.get(self.breaker.state, -1.0),
            },
        }
        return render_prometheus([({}, snapshot)], namespace=namespace)

    # -- convenience ops ---------------------------------------------------
    def ping(self) -> Dict[str, object]:
        return self.request("ping")

    def ingest(self, u: Label, v: Label, t: float) -> int:
        """Ingest one activation; returns its sequence number.

        Routed through :meth:`ingest_batch` so the single-activation path
        gets the same idempotency key and resend safety.
        """
        return self.ingest_batch([(u, v, t)])

    def ingest_batch(
        self,
        items: Sequence[Tuple[Label, Label, float]],
        *,
        key: Optional[str] = None,
    ) -> int:
        """Ingest many activations; returns the last sequence number.

        ``key`` is the idempotency key; the default derives one from this
        client's batch sequence number, making retries (automatic or
        manual resends of the same call) exactly-once on the server.
        """
        if key is None:
            self._batch_seq += 1
            key = f"{self._session}:{self._batch_seq}"
        response = self.request(
            "ingest_batch", items=[[u, v, t] for u, v, t in items], key=key
        )
        seq = int(response["seq"])  # type: ignore[arg-type]
        # seq is the 0-based sequence of the last record, so the state
        # reflecting this write has applied >= seq + 1 — the session
        # token subsequent reads must clear (docs/replication.md).
        self.session_token = max(self.session_token, seq + 1)
        return seq

    def _read_fields(self) -> Dict[str, object]:
        """Consistency fields stamped on snapshot reads (None = omitted)."""
        fields: Dict[str, object] = {}
        if self.session_reads and self.session_token > 0:
            fields["token"] = self.session_token
        if self.max_staleness is not None:
            fields["max_staleness"] = self.max_staleness
        return fields

    def clusters(
        self, level: Optional[int] = None, *, min_size: int = 1
    ) -> List[List[Label]]:
        """All clusters at ``level`` (default √n granularity)."""
        return self.clusters_info(level, min_size=min_size)["clusters"]  # type: ignore[return-value]

    def clusters_info(
        self, level: Optional[int] = None, *, min_size: int = 1
    ) -> Dict[str, object]:
        """Clusters plus level/time/applied metadata."""
        return self.request(
            "clusters", level=level, min_size=min_size, **self._read_fields()
        )

    def local(self, node: Label, level: Optional[int] = None) -> List[Label]:
        """The node's cluster at ``level``."""
        return self.request(
            "local", node=node, level=level, **self._read_fields()
        )["cluster"]  # type: ignore[return-value]

    def zoom_in(self, level: int) -> int:
        return int(self.request("zoom_in", level=level)["level"])  # type: ignore[arg-type]

    def zoom_out(self, level: int) -> int:
        return int(self.request("zoom_out", level=level)["level"])  # type: ignore[arg-type]

    def watch(self, node: Label, level: Optional[int] = None) -> List[Label]:
        """Watch a node's cluster; returns the current cluster."""
        return self.request(
            "watch", node=node, level=level, **self._read_fields()
        )["cluster"]  # type: ignore[return-value]

    def unwatch(self, node: Label, level: Optional[int] = None) -> None:
        self.request("unwatch", node=node, level=level)

    def changes(self) -> List[Dict[str, object]]:
        """Drain accumulated cluster-change events for watched nodes."""
        return self.request("changes")["changes"]  # type: ignore[return-value]

    def sync(self) -> int:
        """Block until everything ingested so far is applied and visible."""
        applied = int(self.request("sync")["applied"])  # type: ignore[arg-type]
        self.session_token = max(self.session_token, applied)
        return applied

    def stats(self) -> Dict[str, object]:
        return self.request("stats")["stats"]  # type: ignore[return-value]

    def metrics(self) -> Dict[str, object]:
        """The node's registry snapshot: ``{counters, gauges, histograms}``."""
        return self.request("metrics")["metrics"]  # type: ignore[return-value]

    def metrics_text(self, *, namespace: Optional[str] = None) -> str:
        """Server Prometheus exposition plus this client's own samples."""
        text = str(self.request("metrics_text", namespace=namespace)["text"])
        return text + self.client_metrics_text(
            namespace=namespace if namespace is not None else "anc"
        )

    def trace(
        self, action: str = "status", *, sample: Optional[float] = None
    ) -> Dict[str, object]:
        """Drive the server-side engine tracer (docs/observability.md).

        ``action``: ``start`` / ``stop`` / ``status`` / ``clear``; each
        answers the tracer's status.  The spans come out through
        :meth:`trace_fetch`.
        """
        return self.request("trace", action=action, sample=sample)

    def trace_spans(self, *, drain: bool = False) -> List[Dict[str, object]]:
        """This client's own recorded spans in wire form.

        The client lane of a fleet trace: merge with the processes a
        ``trace_fetch`` returns (:func:`repro.obs.export.fleet_chrome_trace`).
        """
        spans = self.tracer.drain() if drain else self.tracer.spans()
        return span_dicts(spans, epoch_unix=self.tracer.epoch_unix)

    def trace_fetch(self, *, drain: bool = False) -> Dict[str, object]:
        """Fetch the server's (or, via a router, the fleet's) span buffers.

        No node traces a ``trace_fetch`` (``FrontEnd._respond``), so a
        sampled fetch leaves only this client's own span behind.
        """
        return self.request("trace_fetch", drain=drain or None)

    def profile(
        self, action: str = "status", *, hz: Optional[float] = None
    ) -> Dict[str, object]:
        """Drive the server-side sampling profiler (docs/observability.md).

        ``action``: ``start`` / ``stop`` / ``status`` / ``report``;
        ``report`` returns the profile document under ``"profile"``.
        """
        return self.request("profile", action=action, hz=hz)

    def snapshot(self) -> str:
        """Force a durable checkpoint; returns its path on the server."""
        return str(self.request("snapshot")["path"])

    def shutdown(self) -> None:
        """Ask the server to shut down gracefully."""
        self.request("shutdown")
