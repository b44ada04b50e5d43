"""Read-path routing tier over the replica fleet (docs/replication.md).

``repro.readpath`` turns PR 5's warm standbys into serving capacity: a
:class:`ReadRouter` sends writes to the primary and fans snapshot reads
across the follower fleet under explicit consistency bounds — session
tokens for read-your-writes, ``max_staleness`` for bounded staleness —
degrading to the primary under a budget and to a typed ``RETRY_AFTER``
after that, never to silently-stale data.
"""

from .router import FleetNode, ReadRouter, ReadRouterConfig

__all__ = ["FleetNode", "ReadRouter", "ReadRouterConfig"]
