"""Activation intake: a bounded queue with micro-batching.

The online engines pay a small fixed cost per *batch* (the ANCOR
reinforcement hook, snapshot publication in the host), so the service
does not hand activations to the writer one by one.  Instead the intake
queue is drained into micro-batches that flush on whichever comes first:

* **batch size** — ``batch_size`` activations are waiting, or
* **max latency** — ``max_latency`` seconds passed since the first
  activation of the forming batch arrived.

Backpressure is the queue bound itself: :meth:`MicroBatcher.submit`
awaits queue space, so a producer that outruns the writer is slowed to
the writer's pace instead of growing an unbounded backlog — the server's
ingest handler simply delays its acknowledgement, which TCP propagates
to the client.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, List, Optional

from ..core.activation import Activation

if TYPE_CHECKING:  # hook-only dependency (see repro.faults)
    from ..faults.plan import FaultPlan

__all__ = ["MicroBatcher"]

_SENTINEL = object()


class MicroBatcher:
    """Bounded activation queue that yields micro-batches.

    Parameters
    ----------
    batch_size:
        Flush as soon as this many activations are in the forming batch.
    max_latency:
        Flush at most this many seconds after the first activation of the
        forming batch arrived (bounds time-to-visibility for queries).
    max_pending:
        Queue bound; :meth:`submit` awaits space beyond this (backpressure).
    """

    def __init__(
        self,
        *,
        batch_size: int = 64,
        max_latency: float = 0.05,
        max_pending: int = 4096,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_latency <= 0:
            raise ValueError(f"max_latency must be positive, got {max_latency}")
        if max_pending < batch_size:
            raise ValueError(
                f"max_pending ({max_pending}) must be >= batch_size ({batch_size})"
            )
        self.batch_size = batch_size
        self.max_latency = max_latency
        #: Fault-injection hook (:mod:`repro.faults`); ``None`` = disarmed.
        self.faults: "Optional[FaultPlan]" = None
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        self._closed = False
        self._drained = False
        #: Lifetime count of accepted activations.
        self.submitted = 0
        #: Lifetime count of batches handed out.
        self.batches = 0

    # -- producer side -----------------------------------------------------
    async def submit(self, act: Activation) -> None:
        """Enqueue one activation, awaiting space when the queue is full."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        await self._queue.put(act)
        self.submitted += 1

    async def close(self) -> None:
        """Stop accepting; the consumer drains what is queued, then ends."""
        if not self._closed:
            self._closed = True
            await self._queue.put(_SENTINEL)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        """Activations currently queued (the backpressure signal)."""
        return self._queue.qsize()

    # -- consumer side -----------------------------------------------------
    async def next_batch(self) -> Optional[List[Activation]]:
        """Await the next micro-batch; ``None`` once closed and drained.

        Blocks until at least one activation arrives, then keeps
        collecting until ``batch_size`` is reached or ``max_latency``
        elapses (measured from the first collected activation).
        """
        if self._drained:
            return None
        first = await self._queue.get()
        if first is _SENTINEL:
            self._drained = True
            return None
        batch: List[Activation] = [first]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_latency
        while len(batch) < self.batch_size:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                # asyncio.timeout (not wait_for): wait_for wraps the get in
                # an inner task, and on 3.11 an *external* cancel that races
                # an available item is swallowed (wait_for returns the item
                # and the CancelledError is lost) — the writer task would
                # then out-live the server's crash-path ``cancel()`` forever.
                # timeout() keeps the get in this task, so cancellation
                # always propagates and no dequeued item can be stranded.
                async with asyncio.timeout(remaining):
                    item = await self._queue.get()
            except TimeoutError:
                break
            if item is _SENTINEL:
                self._drained = True
                break
            batch.append(item)
        self.batches += 1
        if self.faults is not None:
            action = self.faults.hit("ingest.flush", size=len(batch))
            if action is not None and action.kind == "delay":
                # A stalled writer: the queue backs up behind this await,
                # which is what drives the shed watermark in tests.
                await asyncio.sleep(action.seconds())
        return batch
