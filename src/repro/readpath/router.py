"""The read-path router: lag-aware reads over a primary + follower fleet.

The router speaks the **same TCP/JSON-lines protocol** as a single
:class:`~repro.service.server.ANCServer` — clients built against
:mod:`repro.service.client` work unchanged.  Per request it either
*routes a read* (``clusters`` / ``local`` / ``watch`` go to a follower
picked by lag-aware weighted round-robin) or *passes through* to the
primary (ingest, ``sync``, admin — anything that must see the writable
head).

Consistency contract (docs/replication.md § Read routing):

* the client's session ``token`` (its last write's ``seq + 1``) rides
  the request; the serving node refuses with a typed ``STALE`` unless
  its applied watermark has passed it — the router then tries the next
  follower or the primary, so a read is never *silently* older than the
  session's own writes;
* ``max_staleness`` (the router's configured bound, tightened by a
  per-request field) bounds how many records a serving follower may
  trail the primary by, enforced by the follower against its own
  replication lag;
* the **degradation ladder**: eligible follower → next follower (on
  ``STALE`` / transport failure / open breaker) → primary under a
  token-bucket read budget → typed ``RETRY_AFTER``.  The rungs are all
  typed; none of them is "serve old data and hope".

Fleet awareness: a heartbeat loop pings every upstream (role + epoch +
applied from the envelope) and reads the primary's ``replicas`` op —
the same per-follower applied/lag bookkeeping behind the PR 5
``replica_lag_<id>`` gauges — both to compute follower lag and to
**auto-register** followers whose replica id is a ``host:port`` (the
server's default).  Failover needs no router restart: ``promote`` /
``fence`` are observed through envelope epochs and roles, and the
router re-resolves the primary as the node claiming ``primary`` at the
highest epoch that is not fenced.

Envelope conventions: responses are stamped ``role="readpath-router"``,
``epoch=0`` (a router never participates in fencing — epoch 0 is below
every real epoch, so client stale-epoch rotation never arms against
it) and ``followers=N`` (live follower count).
"""

from __future__ import annotations

import asyncio
import logging
import re
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..service.breaker import CircuitBreaker
from ..service.errors import BadRequest, Overloaded, ServiceFault, Unavailable
from ..service.wire import TRANSPORT_ERRORS, FrontEnd, Handler, Upstream, parse_number

__all__ = ["READ_OPS", "FleetNode", "ReadRouter", "ReadRouterConfig"]

log = logging.getLogger("repro.readpath")

#: Snapshot-read ops fanned across the follower fleet; every other op
#: passes through to the primary.
READ_OPS = frozenset({"clusters", "local", "watch"})

#: ``host:port`` replica ids (the server's default) auto-register.
_ENDPOINT_ID = re.compile(r"^(?P<host>[\w.\-]+):(?P<port>\d{1,5})$")

#: Per-heartbeat deadline; a missed beat marks the node down.
HEARTBEAT_TIMEOUT = 2.0
#: Passthrough (write-path) attempts across primary re-resolution.
PRIMARY_ATTEMPTS = 6
#: Base of the exponential backoff between passthrough attempts.
RETRY_BACKOFF = 0.05
#: ``retry_after`` hint when the ladder ends in a typed shed.
SHED_RETRY_AFTER = 0.1
#: Consecutive failures that open one node's circuit breaker, and the
#: breaker's cooldown before a half-open probe.
FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN = 1.0


def _failed(exc: BaseException) -> str:
    """How one upstream exchange failed, for the node's ``last_error``."""
    return "timed out" if isinstance(exc, TimeoutError) else f"failed: {exc}"


@dataclass
class ReadRouterConfig:
    """Operational knobs of the read-routing tier."""

    host: str = "127.0.0.1"
    #: Port to bind; 0 picks a free port (read :attr:`ReadRouter.port`).
    port: int = 0
    #: Cadence of the upstream heartbeat (ping + primary ``replicas``).
    heartbeat_interval: float = 0.25
    #: Per-attempt deadline of one forwarded request; 0 = no deadline.
    forward_timeout: float = 30.0
    #: Router-imposed staleness bound (records behind the primary) for
    #: routed reads; ``None`` = only what the request itself asks for.
    max_staleness: Optional[int] = None
    #: Token-bucket budget for reads shed to the primary when no
    #: follower can serve: sustained reads/second (0 = unlimited).
    primary_read_rate: float = 200.0
    #: Burst capacity of the primary-read bucket.
    primary_read_burst: float = 64.0


class FleetNode(Upstream):
    """Router-side state of one fleet node (primary or follower).

    On top of the node's pooled connections (pooling, not one
    serialized link, so concurrent reads to the same follower overlap
    instead of queueing) it holds the last envelope facts (role / epoch
    / applied), the derived replication lag, a per-node
    :class:`CircuitBreaker` and the smooth weighted-round-robin credit.
    """

    def __init__(self, host: str, port: int, *, role: str = "follower") -> None:
        super().__init__(host, port)
        self.role = role
        self.epoch = 0
        self.fenced_by = 0
        #: Applied watermark from the last answer/heartbeat.
        self.applied = 0
        #: Records behind the primary's committed head (heartbeat-fed).
        self.lag = 0
        self.alive = False
        self.reads_served = 0
        self.breaker = CircuitBreaker(
            failure_threshold=FAILURE_THRESHOLD, cooldown=BREAKER_COOLDOWN
        )
        #: Smooth-WRR credit (error diffusion; no PRNG).
        self.wrr = 0.0
        self.last_error: Optional[ServiceFault] = None

    @property
    def fenced(self) -> bool:
        return self.fenced_by > self.epoch

    def status(self) -> Dict[str, object]:
        """This node's row in the ``route_status`` admin op."""
        return {
            "role": self.role,
            "epoch": self.epoch,
            "fenced_by": self.fenced_by,
            "applied": self.applied,
            "lag": self.lag,
            "alive": self.alive,
            "breaker": self.breaker.state,
            "reads_served": self.reads_served,
        }


class ReadRouter(FrontEnd):
    """Asyncio front tier fanning reads across one replicated fleet."""

    _PREFIX = "readpath"

    def __init__(
        self,
        primary: Tuple[str, int],
        *,
        followers: Sequence[Tuple[str, int]] = (),
        config: Optional[ReadRouterConfig] = None,
    ) -> None:
        self.config = config or ReadRouterConfig()
        super().__init__(self.config.host, self.config.port)

        self._upstreams: Dict[str, FleetNode] = {}
        self._primary_key = self._register(primary[0], primary[1], role="primary")
        for host, port in followers:
            self._register(host, port, role="follower")

        #: The primary's committed WAL head (from its ``replicas`` op);
        #: follower lag is computed against this watermark.
        self._primary_entries = 0

        # Primary-read token bucket (the shed-to-primary budget).
        self._budget_tokens = float(self.config.primary_read_burst)
        self._budget_stamp = time.monotonic()

        self._refresh_lock = asyncio.Lock()
        self._heartbeat: Optional["asyncio.Task[None]"] = None

        self._c_follower_reads = self.metrics.counter("readpath_follower_reads")
        self._c_primary_reads = self.metrics.counter("readpath_primary_reads")
        self._c_stale_bounces = self.metrics.counter("readpath_stale_bounces")
        self._c_shed = self.metrics.counter("readpath_shed_total")
        self._c_reresolves = self.metrics.counter("readpath_reresolves")
        self._c_passthrough = self.metrics.counter("readpath_passthrough")
        self._c_heartbeats = self.metrics.counter("readpath_heartbeats")
        self._c_upstream_errors = self.metrics.counter("readpath_upstream_errors")
        self._h_forward = self.metrics.histogram("readpath_forward_seconds")
        self.metrics.gauge(
            "readpath_followers_alive",
            lambda: float(len(self._live_followers())),
        )
        self.metrics.gauge(
            "readpath_primary_epoch",
            lambda: float(max((u.epoch for u in self._upstreams.values()), default=0)),
        )
        self.metrics.gauge("readpath_budget_tokens", lambda: self._budget_tokens)

    # ------------------------------------------------------------------
    # Fleet bookkeeping
    # ------------------------------------------------------------------
    def _register(self, host: str, port: int, *, role: str) -> str:
        """Add one upstream (idempotent); returns its key."""
        key = f"{host}:{int(port)}"
        if key in self._upstreams:
            return key
        self._upstreams[key] = FleetNode(host, port, role=role)
        slug = re.sub(r"\W", "_", key)
        self.metrics.gauge(
            f"readpath_lag_{slug}",
            lambda k=key: float(self._upstreams[k].lag),  # type: ignore[misc]
        )
        self.metrics.gauge(
            f"readpath_reads_{slug}",
            lambda k=key: float(self._upstreams[k].reads_served),  # type: ignore[misc]
        )
        log.info("registered upstream %s as %s", key, role)
        return key

    def _live_followers(self) -> List[FleetNode]:
        return [
            up
            for up in self._upstreams.values()
            if up.role == "follower" and up.alive
        ]

    def _has_followers(self) -> bool:
        return any(up.role == "follower" for up in self._upstreams.values())

    def _current_primary(self) -> Optional[FleetNode]:
        """The node claiming ``primary`` at the highest unfenced epoch.

        Role re-resolution after ``promote``/``fence`` lives here: the
        heartbeat (and every forwarded answer) refreshes role/epoch from
        envelopes, and this picks the winner — a deposed-but-answering
        old primary loses to the promoted follower's strictly higher
        epoch, and a fenced node is never selected.
        """
        best: Optional[FleetNode] = None
        for up in self._upstreams.values():
            if up.role != "primary" or up.fenced or not up.alive:
                continue
            if best is None or up.epoch > best.epoch:
                best = up
        if best is not None:
            return best
        # Nothing alive claims primary (e.g. before the first heartbeat
        # lands, or mid-failover): fall back to the configured one so
        # the forward itself can discover the truth.
        return self._upstreams.get(self._primary_key)

    def _observe(self, up: FleetNode, response: Mapping[str, object]) -> None:
        """Fold one response envelope into the upstream's state."""
        role = response.get("role")
        if isinstance(role, str) and role in ("primary", "follower"):
            if role != up.role:
                self._c_reresolves.inc()
                log.info("upstream %s role %s -> %s", up.key, up.role, role)
            up.role = role
        epoch = response.get("epoch")
        if isinstance(epoch, int):
            up.epoch = max(up.epoch, epoch)
        fenced_by = response.get("fenced_by")
        if isinstance(fenced_by, int):
            up.fenced_by = max(up.fenced_by, fenced_by)
        applied = response.get("applied")
        if isinstance(applied, int):
            up.applied = max(up.applied, applied)
        up.alive = True
        up.last_error = None
        if up.role == "primary":
            self._primary_entries = max(self._primary_entries, up.applied)
        up.lag = (
            0
            if up.role == "primary"
            else max(0, self._primary_entries - up.applied)
        )

    def _note_down(self, up: FleetNode, fault: ServiceFault) -> None:
        """One failed exchange with ``up``: breaker, liveness, last error."""
        self._c_upstream_errors.inc()
        up.breaker.record_failure()
        up.alive = False
        up.last_error = fault

    async def _forward(
        self, up: FleetNode, payload: Mapping[str, object]
    ) -> Dict[str, object]:
        """Forward with trace propagation; folds the envelope in.

        The forward histogram times the wire round trip (request bytes
        out to answer bytes in): what the node and the network cost,
        not this router's encode/decode.  Heartbeats and fleet polls
        stay out of it.
        """
        op = str(payload.get("op"))
        with self.tracer.wire_span("readpath.forward", op=op, upstream=up.key):
            response = await up.request(
                payload,
                timeout=self.config.forward_timeout,
                trace=True,
                observe=self._h_forward.observe,
            )
        self._observe(up, response)
        return response

    # ------------------------------------------------------------------
    # Heartbeats + follower auto-registration
    # ------------------------------------------------------------------
    async def _refresh_once(self) -> None:
        """Ping every upstream; learn the fleet from the primary."""
        async with self._refresh_lock:
            self._c_heartbeats.inc()
            for up in list(self._upstreams.values()):
                try:
                    response = await up.request(
                        {"op": "ping"}, timeout=HEARTBEAT_TIMEOUT
                    )
                except TRANSPORT_ERRORS as exc:
                    self._note_down(up, Unavailable(f"heartbeat to {up.key} {_failed(exc)}"))
                    continue
                self._observe(up, response)
                up.breaker.record_success()
            await self._learn_fleet()

    async def _learn_fleet(self) -> None:
        """Read the primary's ``replicas`` view: lag facts + new followers.

        The per-follower ``applied`` here is the same bookkeeping behind
        the primary's ``replica_lag_<id>`` gauges; ids shaped like
        ``host:port`` (the server's default ``replica_id``) are
        auto-registered as routable followers.
        """
        primary = self._current_primary()
        if primary is None or not primary.alive:
            return
        try:
            response = await primary.request(
                {"op": "replicas"}, timeout=HEARTBEAT_TIMEOUT
            )
        except TRANSPORT_ERRORS as exc:
            self._note_down(
                primary,
                Unavailable(f"replicas poll of {primary.key} {_failed(exc)}"),
            )
            return
        if not response.get("ok", False):
            return
        entries = response.get("entries")
        if isinstance(entries, int):
            self._primary_entries = max(self._primary_entries, entries)
        replicas = response.get("replicas")
        if not isinstance(replicas, Mapping):
            return
        for replica_id, info in replicas.items():
            match = _ENDPOINT_ID.match(str(replica_id))
            if match is not None and str(replica_id) not in self._upstreams:
                self._register(
                    match.group("host"), int(match.group("port")), role="follower"
                )
            up = self._upstreams.get(str(replica_id))
            if up is None or not isinstance(info, Mapping):
                continue
            applied = info.get("applied")
            if isinstance(applied, int):
                up.applied = max(up.applied, applied)
            up.lag = max(0, self._primary_entries - up.applied)

    async def _heartbeat_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            await self._refresh_once()

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def _effective_staleness(self, request: Mapping[str, object]) -> Optional[int]:
        """The tighter of the router's bound and the request's own."""
        bound = self.config.max_staleness
        if request.get("max_staleness") is not None:
            asked = parse_number(request["max_staleness"], "max_staleness", int)
            bound = asked if bound is None else min(bound, asked)
        return bound

    def _follower_order(self, required: int) -> List[FleetNode]:
        """Live followers in lag-aware smooth-WRR order.

        Weight is ``1 / (1 + lag)``; every candidate accrues its weight
        and the winner pays the round's total — deterministic smooth
        weighted round-robin (no PRNG).  Followers known to satisfy the
        session token sort ahead of ones last seen behind it (they may
        have caught up since, so they stay in the list as fallbacks).
        """
        followers = [
            up for up in self._live_followers() if up.breaker.allow()
        ]
        if not followers:
            return []
        total = 0.0
        for up in followers:
            weight = 1.0 / (1.0 + max(0, up.lag))
            total += weight
            up.wrr += weight
        followers.sort(
            key=lambda u: (u.applied < required, -u.wrr, u.key)
        )
        followers[0].wrr -= total
        return followers

    def _budget_take(self) -> bool:
        """One token from the primary-read bucket (True = spend it)."""
        rate = self.config.primary_read_rate
        if rate <= 0:
            return True
        now = time.monotonic()
        self._budget_tokens = min(
            float(self.config.primary_read_burst),
            self._budget_tokens + (now - self._budget_stamp) * rate,
        )
        self._budget_stamp = now
        if self._budget_tokens >= 1.0:
            self._budget_tokens -= 1.0
            return True
        return False

    async def _op_read(self, request: Dict) -> Dict[str, object]:
        """The degradation ladder behind every routed snapshot read."""
        token = request.get("token")
        required = 0 if token is None else parse_number(token, "token", int)
        payload = {k: v for k, v in request.items() if k not in ("id", "trace")}
        bound = self._effective_staleness(request)
        if bound is not None:
            payload["max_staleness"] = bound
        stale_doc: Optional[Dict[str, object]] = None

        for up in self._follower_order(required):
            try:
                response = await self._forward(up, payload)
            except TRANSPORT_ERRORS as exc:
                self._note_down(up, Unavailable(f"read on {up.key} {_failed(exc)}"))
                continue
            up.breaker.record_success()
            if response.get("ok", False):
                up.reads_served += 1
                self._c_follower_reads.inc()
                response["served_by"] = up.key
                return response
            error_type = str(response.get("error_type", ""))
            if error_type == "STALE":
                # Typed bounce, never a silent downgrade: remember the
                # freshest refusal and try the next rung.
                self._c_stale_bounces.inc()
                stale_doc = response
                continue
            if error_type in (
                "FENCED",
                "READ_ONLY",
                "DIVERGED",
                "RETRY_AFTER",
                "UNAVAILABLE",
            ):
                # This follower cannot serve (role confusion, diverged
                # state, shedding, or mid-shutdown); the envelope already
                # updated our view of it.  Next rung.
                continue
            # Anything else (BAD_REQUEST, ...) is the client's to see.
            return response

        # All followers exhausted: shed to the primary under the budget.
        primary = self._current_primary()
        if primary is not None and (
            not self._has_followers() or self._budget_take()
        ):
            try:
                response = await self._forward(primary, payload)
            except TRANSPORT_ERRORS as exc:
                self._note_down(primary, Unavailable(f"read on {primary.key} {_failed(exc)}"))
            else:
                primary.breaker.record_success()
                if response.get("ok", False):
                    primary.reads_served += 1
                    self._c_primary_reads.inc()
                    response["served_by"] = primary.key
                    return response
                if str(response.get("error_type", "")) == "STALE":
                    # A deposed primary behind the session token still
                    # answers *typed*; surface its watermark.
                    self._c_stale_bounces.inc()
                    stale_doc = response
                else:
                    return response

        self._c_shed.inc()
        if stale_doc is not None:
            # Every rung refused with a typed STALE: hand the freshest
            # refusal (watermark included) to the client, which retries
            # with backoff.
            return stale_doc
        raise Overloaded(
            "no follower can serve within the staleness bound and the "
            "primary read budget is exhausted; retry shortly",
            retry_after=SHED_RETRY_AFTER,
        )

    # ------------------------------------------------------------------
    # The write/admin passthrough
    # ------------------------------------------------------------------
    async def _op_passthrough(self, request: Dict) -> Dict[str, object]:
        """Forward to the current primary, re-resolving roles on refusal.

        Survives ``promote``/``fence`` mid-stream: a ``FENCED`` /
        ``READ_ONLY`` refusal or a dead primary triggers a fleet refresh
        and the retry lands on whichever node now claims the highest
        epoch — the client never has to know a failover happened.
        """
        payload = {k: v for k, v in request.items() if k not in ("id", "trace")}
        last_fault: Optional[ServiceFault] = None
        for attempt in range(PRIMARY_ATTEMPTS):
            if attempt > 0:
                await asyncio.sleep(RETRY_BACKOFF * (2 ** (attempt - 1)))
                await self._refresh_once()
            primary = self._current_primary()
            if primary is None:
                last_fault = Unavailable("no primary known to the read router")
                continue
            try:
                response = await self._forward(primary, payload)
            except TRANSPORT_ERRORS as exc:
                self._note_down(primary, Unavailable(f"primary {primary.key} {_failed(exc)}"))
                last_fault = primary.last_error
                continue
            primary.breaker.record_success()
            if response.get("ok", False):
                self._c_passthrough.inc()
                return response
            error_type = str(response.get("error_type", ""))
            if error_type in ("FENCED", "READ_ONLY", "UNAVAILABLE"):
                self._c_reresolves.inc()
                if error_type == "READ_ONLY":
                    # The node told us outright it is a follower.
                    primary.role = "follower"
                last_fault = Unavailable(
                    f"{primary.key} refused with {error_type}; "
                    f"re-resolving the primary"
                )
                continue
            # Typed server error (RETRY_AFTER, BAD_REQUEST, ...): the
            # client's to handle.
            return response
        if last_fault is None:
            last_fault = Unavailable("primary passthrough failed")
        raise last_fault

    # ------------------------------------------------------------------
    # Router-local ops
    # ------------------------------------------------------------------
    async def _op_route_status(self, request: Dict) -> Dict[str, object]:
        """The router's live view of the fleet (CLI + CI smoke)."""
        primary = self._current_primary()
        return {
            "primary": primary.key if primary is not None else None,
            "entries": self._primary_entries,
            "followers_alive": len(self._live_followers()),
            "budget_tokens": round(self._budget_tokens, 3),
            "max_staleness": self.config.max_staleness,
            "upstreams": {
                key: up.status() for key, up in sorted(self._upstreams.items())
            },
        }

    async def _op_trace_fetch(self, request: Dict) -> Dict[str, object]:
        """Every fleet node's span buffer, merged-ready (fleet tracing).

        Returns ``{"processes": [...]}`` as the shard router does: this
        router's own buffer, then each upstream's ``trace_fetch``
        answer.  An upstream that does not answer is left out.
        """
        drain = bool(request.get("drain", False))
        answers = await asyncio.gather(
            *(
                self._fetch_spans(up, drain)
                for _key, up in sorted(self._upstreams.items())
            )
        )
        processes = [self._trace_entry("readpath-router", drain)]
        processes.extend(answer for answer in answers if answer is not None)
        return {"processes": processes}

    async def _fetch_spans(
        self, up: FleetNode, drain: bool
    ) -> Optional[Dict[str, object]]:
        """``up``'s ``trace_fetch`` entry; ``None`` when it does not answer
        (a failed exchange counts against ``up`` as any other does)."""
        try:
            answer = await up.request(
                {"op": "trace_fetch", "drain": drain},
                timeout=self.config.forward_timeout,
            )
        except TRANSPORT_ERRORS as exc:
            self._note_down(up, Unavailable(f"trace_fetch from {up.key} {_failed(exc)}"))
            return None
        if not answer.get("ok", False):
            return None
        return {
            "pid": answer.get("pid"),
            "process": answer.get("process", up.key),
            "spans": answer.get("spans", []),
        }

    _OPS: Dict[str, Handler] = {
        "clusters": _op_read,
        "local": _op_read,
        "watch": _op_read,
        "metrics": FrontEnd._op_metrics,
        "metrics_text": FrontEnd._op_metrics_text,
        "route_status": _op_route_status,
        "trace_fetch": _op_trace_fetch,
        "shutdown": FrontEnd._op_shutdown,
    }

    # ------------------------------------------------------------------
    # Front-end steps
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        """Probe the fleet once, then heartbeat it until the stop."""
        await self._refresh_once()
        if self.config.heartbeat_interval > 0:
            self._heartbeat = asyncio.create_task(
                self._heartbeat_loop(self.config.heartbeat_interval)
            )

    async def _on_stop(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except asyncio.CancelledError:
                pass
            self._heartbeat = None

    def upstreams(self) -> List[FleetNode]:
        return list(self._upstreams.values())

    def _announce_lines(self) -> List[str]:
        return [
            f"UPSTREAM {up.role} {key}" for key, up in sorted(self._upstreams.items())
        ]

    def _unrouted(self, op: object) -> Handler:
        if not isinstance(op, str):
            raise BadRequest(f"request needs a string 'op', got {op!r}")
        return ReadRouter._op_passthrough

    def _stamp(self, response: Dict[str, object]) -> None:
        # Router envelope: epoch 0 never trips client fencing heuristics
        # (module docstring); ``followers`` advertises live capacity.
        response["epoch"] = 0
        response["role"] = "readpath-router"
        response["followers"] = len(self._live_followers())
