"""A stdlib-only sampling wall-clock profiler with span attribution.

Knowing *which engine internals* to move to arrays needed
function-level wall-time attribution, which the span tracer's phase
granularity cannot give.  :class:`SamplingProfiler`
is the standard fixed-cadence sampler built from nothing but the
stdlib: a background daemon thread wakes every ``1/hz`` seconds, walks
``sys._current_frames()``, and aggregates each thread's stack into
collapsed-stack counts (the Brendan Gregg ``a;b;c N`` format every
flamegraph tool eats).

Two properties matter here:

* **Deterministic cadence.**  Samples are taken on a fixed interval
  (``Event.wait`` deadline, no jitter), so two runs of the same
  workload produce comparable sample budgets — shares are stable to
  scheduler noise, not to a PRNG.
* **Phase attribution through the span stack.**  When handed a
  :class:`~repro.obs.trace.Tracer`, the profiler flips the tracer's
  ``track_open`` flag so every live span pushes/pops its name on a
  per-thread stack; each sample then lands in the innermost open engine
  phase (``activation``, ``index_repair``, ...).  The flag is off
  outside a profiling window, so spans pay for the stack only while a
  profile is being taken.

The profiler itself samples *other* threads only — its own sampling
loop never shows up in the report.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .trace import Tracer

__all__ = ["SamplingProfiler", "collapse_frame"]

#: Phase bucket for samples taken while no span was open on the thread.
UNATTRIBUTED = "<no-span>"

#: Stacks deeper than this are truncated at the root end — the leaf
#: (where time is actually spent) always survives.
_MAX_FRAMES = 64


def collapse_frame(frame: object, max_frames: int = _MAX_FRAMES) -> Tuple[str, ...]:
    """One thread's stack as root-first ``module:function`` frames."""
    parts: List[str] = []
    cur = frame
    while cur is not None and len(parts) < max_frames:
        code = cur.f_code  # type: ignore[attr-defined]
        module = cur.f_globals.get("__name__", "?")  # type: ignore[attr-defined]
        parts.append(f"{module}:{code.co_name}")
        cur = cur.f_back  # type: ignore[attr-defined]
    parts.reverse()
    return tuple(parts)


class SamplingProfiler:
    """Fixed-cadence stack sampler; see the module docstring.

    Parameters
    ----------
    hz:
        Sampling frequency.  97 by default — a prime, so the cadence
        cannot phase-lock with millisecond-periodic work.
    tracer:
        Optional tracer whose open-span stack attributes samples to
        engine phases.  The profiler owns the tracer's ``track_open``
        flag for the duration of the run.
    """

    def __init__(self, hz: float = 97.0, *, tracer: Optional[Tracer] = None) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be > 0, got {hz}")
        self.hz = hz
        self.interval = 1.0 / hz
        self.tracer = tracer
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._phase_counts: Dict[str, int] = {}
        self.samples = 0
        self.duration_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._t0 = 0.0

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        if self.tracer is not None:
            self.tracer.track_open(True)
        self._stop.clear()
        self._t0 = perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="anc-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.duration_s += perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.track_open(False)

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # -- sampling loop ----------------------------------------------------

    def _run(self) -> None:
        own = threading.get_ident()
        tracer = self.tracer
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            with self._lock:
                self.samples += 1
                for tid, frame in frames.items():
                    if tid == own:
                        continue
                    stack = collapse_frame(frame)
                    if not stack:
                        continue
                    self._counts[stack] = self._counts.get(stack, 0) + 1
                    if tracer is not None:
                        open_spans = tracer.open_stack(tid)
                        phase = open_spans[-1] if open_spans else UNATTRIBUTED
                        self._phase_counts[phase] = (
                            self._phase_counts.get(phase, 0) + 1
                        )

    # -- results ----------------------------------------------------------

    def collapsed(self) -> List[str]:
        """Flamegraph-ready collapsed stacks (``frame;frame;frame N``)."""
        with self._lock:
            items = sorted(self._counts.items())
        return [f"{';'.join(stack)} {count}" for stack, count in items]

    def phase_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-engine-phase ``{samples, est_s, share}`` by sampled time.

        ``est_s`` scales each phase's sample count by the sampling
        interval — the standard estimator for wall time under a
        fixed-cadence sampler.
        """
        with self._lock:
            phases = dict(self._phase_counts)
        total = sum(phases.values()) or 1
        return {
            name: {
                "samples": float(count),
                "est_s": count * self.interval,
                "share": count / total,
            }
            for name, count in sorted(
                phases.items(), key=lambda kv: (-kv[1], kv[0])
            )
        }

    def top_functions(self, limit: int = 25) -> List[Dict[str, object]]:
        """Leaf frames ranked by inclusive sample count."""
        leaf: Dict[str, int] = {}
        with self._lock:
            for stack, count in self._counts.items():
                leaf[stack[-1]] = leaf.get(stack[-1], 0) + count
        ranked = sorted(leaf.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
        total = sum(leaf.values()) or 1
        return [
            {"frame": frame, "samples": count, "share": count / total}
            for frame, count in ranked
        ]

    def report(self) -> Dict[str, object]:
        """The profile as one JSON document (the ``profile`` op's ``report``)."""
        duration = self.duration_s
        if self.running:
            duration += perf_counter() - self._t0
        return {
            "hz": self.hz,
            "duration_s": duration,
            "samples": self.samples,
            "phases": self.phase_breakdown(),
            "top_functions": self.top_functions(),
            "collapsed": self.collapsed(),
        }

    def status(self) -> Dict[str, object]:
        """Compact JSON-able state (the server's ``profile`` op)."""
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": self.samples,
            "stacks": len(self._counts),
        }
