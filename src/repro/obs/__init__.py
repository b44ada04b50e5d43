"""Library-wide observability: instruments, span tracing, exposition.

Stdlib-only, shared by every layer of the stack (engines, index,
service, CLI, bench harness — see ``docs/observability.md``):

* :mod:`~repro.obs.instruments` — counters, gauges and sliding-window
  histograms behind one :class:`MetricsRegistry`;
* :mod:`~repro.obs.trace` — a low-overhead span tracer (nested phase
  timings, bounded ring buffer, deterministic sampling) plus the
  :class:`Observability` bundle components share, and the sanctioned
  ``perf_counter`` timing facade for engine code;
* :mod:`~repro.obs.export` — Prometheus text and fleet JSON of labeled
  registry snapshots, and Chrome ``trace_event`` documents of
  ``trace_fetch`` span buffers.

Everything is disabled by default: an engine without an attached
:class:`Observability` pays one attribute check per instrumented phase.
"""

from __future__ import annotations

from .export import (
    federate_snapshots,
    fleet_chrome_trace,
    fleet_trace_summary,
    phase_breakdown,
    render_prometheus,
    span_dicts,
)
from .instruments import BUCKET_BOUNDS, Counter, Gauge, Histogram, MetricsRegistry
from .profiler import SamplingProfiler
from .propagate import TraceContext, bind_context, current_context, new_span_id
from .trace import (
    DISABLED_OBS,
    NULL_TRACER,
    Observability,
    Span,
    Tracer,
    perf_counter,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "DISABLED_OBS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "Observability",
    "SamplingProfiler",
    "Span",
    "TraceContext",
    "Tracer",
    "bind_context",
    "current_context",
    "federate_snapshots",
    "fleet_chrome_trace",
    "fleet_trace_summary",
    "new_span_id",
    "perf_counter",
    "phase_breakdown",
    "render_prometheus",
    "span_dicts",
]
