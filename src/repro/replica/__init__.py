"""Primary→standby replication for the clustering service.

The paper's incremental index maintenance (per-activation updates up to
six orders of magnitude cheaper than rebuilds) only pays off while the
incrementally-maintained state survives — PR 4 made one node crash-safe,
and this package removes the node itself as the single point of failure:

* a **primary** (an ordinary :class:`~repro.service.server.ANCServer`)
  streams its committed WAL records to followers through the same
  JSON-lines protocol (the long-polled ``wal_fetch`` op);
* a **follower** (:class:`ReplicationLink`) bootstraps from the latest
  checkpoint + WAL tail, applies records through its own engine host,
  serves read-only snapshot queries, and continuously audits its engine
  signature against the primary's;
* **failover** (:func:`promote`) fences the deposed primary by epoch and
  promotes a caught-up follower; the hardened client fails over across a
  multi-endpoint list.

Topology, epoch/fencing semantics, lag metrics and the promote runbook
are documented in ``docs/replication.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import _lazy

if TYPE_CHECKING:
    from .admin import promote, replication_status
    from .link import ReplicationError, ReplicationLink

__all__ = [
    "ReplicationError",
    "ReplicationLink",
    "promote",
    "replication_status",
]

__getattr__ = _lazy(
    __name__,
    {
        ".admin": ("promote", "replication_status"),
        ".link": ("ReplicationError", "ReplicationLink"),
    },
)
