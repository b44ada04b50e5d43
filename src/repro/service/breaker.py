"""A circuit breaker over transport failures, shared by every caller.

The blocking :class:`~repro.service.client.ServiceClient` keeps one per
client and the read router one per fleet node
(:class:`~repro.readpath.router.FleetNode`).  It lives in its own
module, with no import beyond the standard library, so that the read
router can use it without loading the blocking client.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    Counts *transport-level* failures only (connect errors, timeouts,
    exhausted retry budgets).  A server that answers — even with an
    error envelope — is alive, and does not move the breaker.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = self.CLOSED
        #: Consecutive transport failures since the last success.
        self.failures = 0
        #: Lifetime count of closed→open transitions.
        self.opened_total = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """Whether a request may go out now (may flip open → half-open)."""
        if self.state == self.OPEN:
            if self._clock() - self._opened_at < self.cooldown:
                return False
            self.state = self.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.failure_threshold:
            if self.state != self.OPEN:
                self.opened_total += 1
            self.state = self.OPEN
            self._opened_at = self._clock()
