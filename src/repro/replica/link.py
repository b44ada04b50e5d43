"""The follower side of WAL-shipping replication.

:class:`ReplicationLink` runs inside the follower's event loop (started
by :meth:`ANCServer.start` when the server is configured with
``role="follower"`` and a primary endpoint). Its whole life is one loop:

    fetch a chunk of committed WAL records from the primary
      → verify the chunk is a contiguous extension of our log
      → apply each record through :meth:`ANCServer.apply_replicated`
      → periodically audit our engine signature against the primary's

The link *pulls*: the primary keeps no per-follower cursor beyond the
lag bookkeeping, which each fetch's ``from_seq`` (our applied
watermark) feeds, so a follower that crashes and restarts simply
resumes fetching from wherever its own recovered WAL ends. A fetch that
finds nothing new parks on the primary until the next append, for at
most ``wait`` seconds, so the loop never sleeps and records ship as
they are appended. Chunks that arrive reordered or gapped (the
``replica.fetch`` fault site exercises both) are discarded wholesale
and refetched — the WAL's seq contiguity check makes partial
application impossible, so discarding is always safe.

Divergence auditing compares :func:`~repro.service.snapshots.signature_digest`
values, but only when both sides report the same applied count — a lagging
follower is *behind*, not *wrong*. A genuine mismatch trips the server's
sticky ``diverged`` state: the follower keeps replicating (so the operator
can inspect how the logs disagree) but refuses snapshot queries.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Dict, List, Optional, Tuple

from ..core.activation import Activation
from ..obs.propagate import RootSampler, TraceContext
from ..service.snapshots import WalRecord
from ..service.wire import TRANSPORT_ERRORS, Upstream

log = logging.getLogger("repro.replica")

__all__ = ["ReplicationError", "ReplicationLink"]

#: Seconds a caught-up fetch parks on the primary when auditing is off.
IDLE_FETCH_WAIT = 1.0

#: Records asked for per ``wal_fetch``.
FETCH_MAX = 512

#: Seconds between a failed fetch and the next attempt.
RECONNECT_BACKOFF = 0.2


class ReplicationError(RuntimeError):
    """A replication-protocol violation (refused fetch, stale primary...).

    Raised inside the link's loop and handled there: the fetch is
    retried after :data:`RECONNECT_BACKOFF`. It never propagates out of
    :meth:`ReplicationLink.run`.
    """


def _decode_record(raw: object) -> WalRecord:
    """Decode one ``wal_fetch`` wire record ``[seq, u, v, t, epoch, key]``."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 6:
        raise ReplicationError(f"malformed wal_fetch record: {raw!r}")
    seq, u, v, t, epoch, key = raw
    try:
        return WalRecord(
            int(seq),  # type: ignore[arg-type]
            Activation(int(u), int(v), float(t)),  # type: ignore[arg-type]
            int(epoch),  # type: ignore[arg-type]
            key if isinstance(key, str) and key else None,
        )
    except (TypeError, ValueError) as exc:
        raise ReplicationError(f"malformed wal_fetch record: {raw!r}") from exc


class ReplicationLink:
    """Pull committed WAL records from a primary into a follower server.

    Parameters
    ----------
    server:
        The follower's :class:`~repro.service.server.ANCServer`. The link
        reads ``server.role`` / ``server.crashed`` to know when to stop
        and applies records via ``server.apply_replicated``.
    primary:
        ``(host, port)`` of the primary to replicate from.
    replica_id:
        Identity sent with every fetch; keys the primary's
        per-follower lag gauge.
    """

    def __init__(
        self,
        server: "object",
        primary: Tuple[str, int],
        *,
        replica_id: str,
        audit_interval: float = 0.25,
    ) -> None:
        from ..service.server import ANCServer  # deferred: server imports us lazily

        if not isinstance(server, ANCServer):
            raise TypeError("ReplicationLink needs an ANCServer")
        self.server = server
        self.primary = (str(primary[0]), int(primary[1]))
        #: Pooled connection to the primary; requests carry no deadline
        #: (a caught-up fetch parks there by design).
        self._upstream = Upstream(*self.primary)
        self.replica_id = replica_id
        self.audit_interval = float(audit_interval)
        #: How long a caught-up fetch parks on the primary: one audit
        #: interval keeps the audit cadence, and bounds how long stop()
        #: or a promotion waits to be noticed.
        self.fetch_wait = (
            self.audit_interval if self.audit_interval > 0 else IDLE_FETCH_WAIT
        )
        self._stopped = False
        self._last_audit = 0.0
        self._primary_entries = 0
        # Deterministic trace roots for the replication lane: one
        # context per fetch, sampled by the follower tracer's fraction.
        self._trace_roots = RootSampler(f"{replica_id}:wal")
        m = server.metrics
        self._c_applied = m.counter("replica_records_applied")
        self._c_refetches = m.counter("replica_refetches")
        self._c_errors = m.counter("replica_link_errors")
        self._c_audits = m.counter("replica_audits")
        m.gauge("replication_lag", self._lag)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the link to exit its loop (promotion calls this)."""
        self._stopped = True

    def _active(self) -> bool:
        return (
            not self._stopped
            and self.server.role == "follower"
            and not self.server.crashed
        )

    def _lag(self) -> float:
        return float(max(0, self._primary_entries - self.server.host.ingested))

    @property
    def lag(self) -> int:
        """Records this follower trails the primary's committed head by.

        Computed against the ``entries`` watermark of the *last
        successful fetch* — the same number the ``replication_lag``
        gauge publishes.  The server's ``max_staleness`` read-bound
        check (docs/replication.md § Read routing) consumes this.
        """
        return int(self._lag())

    async def run(self) -> None:
        """Fetch loop: runs until stopped/promoted/crashed.

        A failed request aborts its connection; the next one reconnects
        after :data:`RECONNECT_BACKOFF`.
        """
        try:
            while self._active():
                try:
                    await self._fetch_once()
                    await self._maybe_audit()
                    continue
                except asyncio.CancelledError:
                    raise
                except (*TRANSPORT_ERRORS, ReplicationError) as exc:
                    if not self._active():
                        break
                    self._c_errors.inc()
                    log.warning(
                        "replication session to %s:%d failed (%s); reconnecting",
                        self.primary[0],
                        self.primary[1],
                        exc,
                    )
                except Exception as exc:  # anclint: disable=service-exception-discipline — an injected crash in apply_replicated already crashed the server (checked below); anything else is logged and retried because a follower must outlive a flaky primary
                    if not self._active():
                        break
                    self._c_errors.inc()
                    log.warning("replication session error (%s); reconnecting", exc)
                if self._active():
                    await asyncio.sleep(RECONNECT_BACKOFF)
        finally:
            self._upstream.abort_all()
        log.info("replication link to %s:%d stopped", *self.primary)

    def _mint_trace(self) -> Optional[TraceContext]:
        """A root trace context for one fetch (None = tracing off).

        Armed by enabling the *follower's* tracer: each fetch then
        carries a ``trace`` envelope sampled at the tracer's fraction,
        so the primary's ``server.wal_fetch`` span lands in the same
        trace as the follower's ``replica.wal_fetch`` — the
        follower → primary lane of a fleet trace.
        """
        tracer = self.server.tracer
        if not tracer.enabled:
            return None
        return self._trace_roots.mint(tracer.sample)

    async def _fetch_once(self) -> None:
        """Fetch + apply one chunk (parks on the primary when caught up)."""
        start = self.server.host.ingested
        doc: Dict[str, object] = {
            "op": "wal_fetch",
            "from_seq": start,
            "max": FETCH_MAX,
            "follower": self.replica_id,
            "wait": self.fetch_wait,
        }
        ctx = self._mint_trace()
        if ctx is None:
            resp = await self._upstream.request(doc)
        else:
            with self.server.tracer.wire_span(
                "replica.wal_fetch", ctx, from_seq=start
            ):
                resp = await self._upstream.request(doc, trace=True)
        if not resp.get("ok", False):
            raise ReplicationError(
                f"wal_fetch refused: {resp.get('error_type')}: {resp.get('error')}"
            )
        self._primary_entries = int(resp.get("entries", 0))  # type: ignore[arg-type]
        peer_epoch = int(resp.get("epoch", 0))  # type: ignore[arg-type]
        if peer_epoch and peer_epoch < self.server.epoch:
            # A deposed primary still answering: its *committed* prefix is
            # legal to consume, but our own epoch can only come from the
            # records themselves — refusing here keeps a stale node from
            # feeding us anything past the fence (apply_replicated would
            # also refuse, record by record).
            raise ReplicationError(
                f"primary at stale epoch {peer_epoch} < ours {self.server.epoch}"
            )
        raw = resp.get("records")
        if not isinstance(raw, list) or not raw:
            return
        records: List[WalRecord] = [_decode_record(r) for r in raw]
        if [r.seq for r in records] != list(range(start, start + len(records))):
            # Gapped or reordered chunk (e.g. the replica.fetch "reorder"
            # injector). Nothing was applied — discard and refetch.
            self._c_refetches.inc()
            log.warning(
                "discarding non-contiguous chunk from seq %d (%d records)",
                start,
                len(records),
            )
            return
        for record in records:
            await self.server.apply_replicated(record)
        self._c_applied.inc(len(records))

    # ------------------------------------------------------------------
    # Divergence auditing
    # ------------------------------------------------------------------
    async def _maybe_audit(self) -> None:
        if self.audit_interval <= 0:
            return
        now = asyncio.get_running_loop().time()
        if now - self._last_audit < self.audit_interval:
            return
        self._last_audit = now
        resp = await self._upstream.request({"op": "signature"})
        if not resp.get("ok", False):
            # A primary mid-shutdown may refuse; auditing is best-effort.
            return
        ours = await self.server.host.signature()
        self._c_audits.inc()
        if int(resp.get("applied", -1)) != int(  # type: ignore[arg-type]
            ours.get("applied", -2)  # type: ignore[arg-type]
        ):
            return  # lagging, not diverged — compare only like with like
        theirs: Optional[object] = resp.get("digest")
        if isinstance(theirs, str) and theirs != ours.get("digest"):
            self.server.mark_diverged(
                f"signature mismatch at applied={ours.get('applied')}: "
                f"primary {theirs[:12]}… vs follower "
                f"{str(ours.get('digest'))[:12]}…"
            )
