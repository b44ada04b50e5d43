"""The load generator: open- and closed-loop request lanes.

One generator process drives the system under test with at most two
load lanes, each a thread owning one :class:`~repro.service.client.ServiceClient`
connection.  An open-loop lane sends each request at its due time
whatever happened before (a slow answer delays the requests queued
behind it, and their latency, timed from the due time, shows it); a
closed-loop lane sends the next request as soon as the previous answer
returns.

Generator health is measured separately from system latency: a request
is *late* by ``sent - max(due, previous answer)``, the delay the
generator itself added, which only grows when the generator is starved
of CPU.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.client import ServiceClient, ServiceError

__all__ = ["Request", "Sample", "Lane", "run_lanes"]

#: An idle slot shorter than this is never used for monitor work.
IDLE_MARGIN_S = 0.02
#: Cadence of the closed-loop workload's watermark probe.
PROBE_PERIOD_S = 0.01


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``at`` seconds after the lane start."""

    at: float
    op: str
    fields: Dict[str, object]


@dataclass
class Sample:
    """What one request did, on the generator's ``perf_counter`` clock."""

    op: str
    due: float
    ready: float
    sent: float
    done: float
    ok: bool
    #: Applied watermark in the answer (reads and pings), else -1.
    applied: int = -1
    #: Last WAL seq the answer acknowledged (ingest), else -1.
    seq: int = -1
    #: Encoded response size in bytes (newline included), 0 on failure.
    nbytes: int = 0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.ready


class Lane:
    """A request schedule bound to one client connection.

    ``schedule`` is a list of :class:`Request` (open loop) or ``None``
    plus ``closed`` (a list of ``(op, fields)`` sent back to back).
    ``idle`` is called whenever the lane has at least
    :data:`IDLE_MARGIN_S` of slack before its next request; it runs one
    piece of the monitor's periodic work and returns False when none is
    pending.  ``keep`` records up to that many raw responses per
    op for the codec timing.
    """

    def __init__(
        self,
        client: ServiceClient,
        *,
        schedule: Optional[Sequence[Request]] = None,
        closed: Optional[Sequence[Tuple[str, Dict[str, object]]]] = None,
        until: Optional[threading.Event] = None,
        idle: Optional[Callable[[], bool]] = None,
        keep: int = 0,
        spans: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        self.client = client
        self.schedule = schedule
        self.closed = closed
        self.until = until
        self.idle = idle
        self.keep = keep
        self.spans = spans
        self.samples: List[Sample] = []
        self.kept: Dict[str, List[Dict[str, object]]] = {}
        self.error: Optional[BaseException] = None

    def _call(self, op: str, fields: Dict[str, object], due: float, ready: float) -> None:
        sent = time.perf_counter()
        try:
            response = self.client.request(op, **fields)
            ok = bool(response.get("ok"))
        except ServiceError:
            response, ok = {}, False
        done = time.perf_counter()
        sample = Sample(op, due, ready, sent, done, ok)
        if ok:
            applied = response.get("applied")
            if isinstance(applied, int):
                sample.applied = applied
            seq = response.get("seq")
            if isinstance(seq, int):
                sample.seq = seq
            # The server renders with json.dumps defaults and the client
            # parses with json.loads, so re-encoding restores the bytes.
            sample.nbytes = len(json.dumps(response)) + 1
            kept = self.kept.setdefault(op, [])
            if len(kept) < self.keep:
                kept.append(response)
        self.samples.append(sample)
        if self.spans is not None:
            self.spans.extend(self.client.trace_spans(drain=True))

    def run(self, t0: float) -> None:
        try:
            if self.schedule is not None:
                self._run_open(t0)
            else:
                self._run_closed()
        except BaseException as exc:  # reported by run_lanes after join
            self.error = exc

    def _run_open(self, t0: float) -> None:
        prev_done = t0
        for req in self.schedule or ():
            due = t0 + req.at
            if self.idle is not None:
                while due - time.perf_counter() >= IDLE_MARGIN_S:
                    if not self.idle():
                        break
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self._call(req.op, req.fields, due, max(due, prev_done))
            prev_done = self.samples[-1].done

    def _run_closed(self) -> None:
        if self.closed is not None:
            for op, fields in self.closed:
                now = time.perf_counter()
                self._call(op, fields, now, now)
            return
        # A best-effort probe: ping every PROBE_PERIOD_S until told to stop
        # (the watermark probe under saturation).  Its timing is not part
        # of any latency, so the monitor's work simply goes first.
        assert self.until is not None
        next_at = time.perf_counter()
        while not self.until.is_set():
            if self.idle is not None:
                self.idle()
            wait = next_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            now = time.perf_counter()
            self._call("ping", {}, now, now)
            next_at = max(next_at + PROBE_PERIOD_S, time.perf_counter())


def run_lanes(lanes: Sequence[Lane], t0: float, *, on_done: Optional[Callable[[], None]] = None) -> None:
    """Run ``lanes[0]`` on this thread and the rest on one thread each.

    ``on_done`` fires once the first lane finished (it stops probe lanes
    that run ``until`` an event).
    """
    threads = [
        threading.Thread(target=lane.run, args=(t0,), daemon=True)
        for lane in lanes[1:]
    ]
    for thread in threads:
        thread.start()
    lanes[0].run(t0)
    if on_done is not None:
        on_done()
    for thread in threads:
        thread.join(timeout=120.0)
        if thread.is_alive():
            raise RuntimeError("a load lane did not finish")
    for lane in lanes:
        if lane.error is not None:
            raise lane.error
