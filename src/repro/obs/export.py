"""Exposition: registries as JSON / Prometheus text, spans as Chrome traces.

Three consumers, three formats:

* :func:`render_json` — the registry snapshot dict (what the server's
  ``metrics`` op and the CLI's ``--metrics-out`` serve);
* :func:`render_prometheus` — the Prometheus text exposition format
  (``metrics_text`` op, ``repro-anc stats``): counters as ``_total``,
  gauges verbatim, histograms as summaries with quantile labels;
* :func:`chrome_trace` — a span buffer as Chrome ``trace_event`` JSON
  ("X" complete events, microsecond timestamps), loadable in
  ``chrome://tracing`` / Perfetto to see one activation's nested phases.

:func:`phase_breakdown` aggregates a span list into per-phase
count/total/mean/max — the compact form the bench harness folds into
every ``bench_results/*.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from .instruments import MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "chrome_trace",
    "fleet_chrome_trace",
    "fleet_trace_summary",
    "phase_breakdown",
    "render_json",
    "render_prometheus",
    "span_dicts",
    "trace_op",
    "write_chrome_trace",
]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")

#: Histogram window percentiles exposed as Prometheus summary quantiles.
_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))


def _metric_name(name: str, namespace: str = "") -> str:
    """A valid Prometheus metric name for an instrument name."""
    out = _NAME_SANITIZER.sub("_", name)
    if namespace:
        out = f"{_NAME_SANITIZER.sub('_', namespace)}_{out}"
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """A float in Prometheus text form (repr round-trips exactly)."""
    return repr(float(value))


def render_json(
    registry: MetricsRegistry, *, rate_key: Optional[str] = None
) -> Dict[str, object]:
    """The registry snapshot as a JSON-able dict (read-only by default)."""
    return registry.snapshot(rate_key=rate_key)


def render_prometheus(registry: MetricsRegistry, *, namespace: str = "") -> str:
    """The registry in the Prometheus text exposition format (version 0.0.4).

    Counters get the conventional ``_total`` suffix; histograms render as
    summaries over their sliding window (quantile-labelled samples plus
    the exact lifetime ``_sum`` / ``_count``).  Reading instruments is
    the only side effect — no rate window is touched.
    """
    lines: List[str] = []
    for name, counter in registry.counters().items():
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(counter.value)}")
    for name, gauge in registry.gauges().items():
        metric = _metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(gauge.value)}")
    for name, hist in registry.histograms().items():
        metric = _metric_name(name, namespace)
        lines.append(f"# TYPE {metric} summary")
        for quantile, _ in _QUANTILES:
            value = hist.percentile(quantile * 100.0)
            lines.append(f'{metric}{{quantile="{quantile:g}"}} {_fmt(value)}')
        lines.append(f"{metric}_sum {_fmt(hist.sum)}")
        lines.append(f"{metric}_count {_fmt(float(hist.count))}")
    return "\n".join(lines) + "\n" if lines else ""


def chrome_trace(
    spans: Union[Tracer, Iterable[Span]], *, pid: int = 0
) -> Dict[str, object]:
    """A span buffer as a Chrome ``trace_event`` JSON document.

    Every span becomes one "X" (complete) event with microsecond
    ``ts``/``dur``; the nesting depth rides along in ``args`` so flat
    viewers can reconstruct the hierarchy.  Accepts a tracer (reads its
    buffer without draining) or any span iterable.
    """
    if isinstance(spans, Tracer):
        spans = spans.spans()
    events: List[Dict[str, object]] = []
    for span in spans:
        args: Dict[str, object] = {**span.args, "depth": span.depth}
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": span.tid,
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            }
        )
    events.sort(key=lambda e: (e["tid"], e["ts"]))  # type: ignore[index]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def trace_op(tracer: Tracer, request: Mapping[str, Any]) -> Dict[str, object]:
    """Apply one ``trace`` wire op to ``tracer``; returns the answer.

    ``action`` is start (optional ``sample``) / stop / clear / status, or
    dump (optional ``drain``, default true) for the Chrome trace.
    """
    action = str(request.get("action", "status"))
    if action == "start":
        sample = request.get("sample")
        if sample is not None:
            tracer.set_sample(float(sample))
        tracer.enable()
    elif action == "stop":
        tracer.disable()
    elif action == "clear":
        tracer.drain()
    elif action == "dump":
        spans = tracer.drain() if bool(request.get("drain", True)) else tracer.spans()
        return {"trace": chrome_trace(spans), **tracer.status()}
    elif action != "status":
        raise ValueError(
            f"unknown trace action {action!r}; expected start/stop/status/dump/clear"
        )
    return dict(tracer.status())


def write_chrome_trace(
    path: Union[str, Path], spans: Union[Tracer, Iterable[Span]], *, pid: int = 0
) -> Path:
    """Dump :func:`chrome_trace` to ``path``; returns the path."""
    target = Path(path)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, pid=pid), fh, indent=2, sort_keys=True)
    return target


def span_dicts(
    spans: Union[Tracer, Iterable[Span]], *, epoch_unix: float = 0.0
) -> List[Dict[str, object]]:
    """Spans as JSON-able dicts with *absolute* unix start times.

    This is the ``trace_fetch`` wire format: each process converts its
    tracer-epoch-relative starts to wall-clock seconds using the
    tracer's ``epoch_unix``, so per-process buffers land on one shared
    timeline (same machine, same clock) and the fleet merge needs no
    further alignment.  Wire spans carry their trace/span/parent ids.
    """
    if isinstance(spans, Tracer):
        epoch_unix = spans.epoch_unix
        spans = spans.spans()
    out: List[Dict[str, object]] = []
    for span in spans:
        doc: Dict[str, object] = {
            "name": span.name,
            "start": epoch_unix + span.start,
            "dur": span.duration,
            "depth": span.depth,
            "tid": span.tid,
            "args": dict(span.args),
        }
        if span.trace_id is not None:
            doc["trace"] = span.trace_id
            doc["span"] = span.span_id
            doc["parent"] = span.parent_id
        out.append(doc)
    return out


def fleet_chrome_trace(
    processes: Iterable[Dict[str, object]], *, trace_id: Optional[str] = None
) -> Dict[str, object]:
    """Merge per-process span buffers into one Chrome trace document.

    ``processes`` is what the router's ``trace_fetch`` gather returns:
    each entry holds a display ``name`` (``client`` / ``router`` /
    ``shard-0`` / ``replica:<id>``), the OS ``pid``, and
    :func:`span_dicts`-encoded ``spans``.  The merged document gives
    every process its own pid lane (named via ``process_name`` metadata
    events), places all spans on a common timeline anchored at the
    earliest span, and draws Chrome flow arrows between every wire
    span and its parent — the client→router→worker→replica causality,
    visible in one Perfetto view.  ``trace_id`` filters to one request
    tree (engine spans, which carry no trace id, are kept only when no
    filter is given).
    """
    procs: List[Dict[str, object]] = []
    t_min: Optional[float] = None
    for proc in processes:
        spans = [
            s
            for s in proc.get("spans", ())  # type: ignore[union-attr]
            if trace_id is None or s.get("trace") == trace_id
        ]
        for span in spans:
            start = float(span["start"])  # type: ignore[arg-type]
            t_min = start if t_min is None else min(t_min, start)
        procs.append({**proc, "spans": spans})
    origin = t_min or 0.0
    events: List[Dict[str, object]] = []
    slice_of: Dict[str, Dict[str, object]] = {}
    for index, proc in enumerate(procs):
        pid = int(proc.get("pid", index))  # type: ignore[arg-type]
        name = str(proc.get("name", f"process-{index}"))
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": index},
            }
        )
        for span in proc["spans"]:  # type: ignore[union-attr]
            args = dict(span.get("args") or {})
            args["depth"] = span.get("depth", 0)
            for key, arg_key in (("trace", "trace_id"), ("span", "span_id"), ("parent", "parent_id")):
                if span.get(key):
                    args[arg_key] = span[key]
            event = {
                "name": span["name"],
                "ph": "X",
                "pid": pid,
                "tid": span.get("tid", 0),
                "ts": (float(span["start"]) - origin) * 1e6,  # type: ignore[arg-type]
                "dur": float(span["dur"]) * 1e6,  # type: ignore[arg-type]
                "args": args,
            }
            events.append(event)
            span_id = span.get("span")
            if isinstance(span_id, str) and span_id:
                slice_of[span_id] = event
    # Flow arrows: child wire span points back at its parent's slice.
    flows: List[Dict[str, object]] = []
    for span_id, event in sorted(slice_of.items()):
        parent_id = event["args"].get("parent_id")  # type: ignore[union-attr]
        parent = slice_of.get(parent_id) if isinstance(parent_id, str) else None
        if parent is None:
            continue
        flow_id = f"{parent_id}->{span_id}"
        flows.append(
            {
                "name": "trace",
                "cat": "trace",
                "ph": "s",
                "id": flow_id,
                "pid": parent["pid"],
                "tid": parent["tid"],
                "ts": parent["ts"],
            }
        )
        flows.append(
            {
                "name": "trace",
                "cat": "trace",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "pid": event["pid"],
                "tid": event["tid"],
                "ts": event["ts"],
            }
        )
    events.extend(flows)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def fleet_trace_summary(
    processes: Iterable[Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Per-trace-id connectivity summary of a ``trace_fetch`` gather.

    For each trace id seen across the fleet: the span count, the set of
    pids it touched, the root span names (no parent within the trace),
    and whether the spans form one connected tree — the property the
    end-to-end propagation test (and ``repro-anc trace``) asserts.
    """
    by_trace: Dict[str, List[Dict[str, object]]] = {}
    pid_of: Dict[str, int] = {}
    for index, proc in enumerate(processes):
        pid = int(proc.get("pid", index))  # type: ignore[arg-type]
        for span in proc.get("spans", ()):  # type: ignore[union-attr]
            tid = span.get("trace")
            if not isinstance(tid, str):
                continue
            by_trace.setdefault(tid, []).append(span)
            span_id = span.get("span")
            if isinstance(span_id, str):
                pid_of[span_id] = pid
    out: Dict[str, Dict[str, object]] = {}
    for trace_id, spans in sorted(by_trace.items()):
        ids = {s["span"] for s in spans if isinstance(s.get("span"), str)}
        roots = [s for s in spans if s.get("parent") not in ids]
        pids = sorted(
            {pid_of[s["span"]] for s in spans if s.get("span") in pid_of}
        )
        out[trace_id] = {
            "spans": len(spans),
            "pids": pids,
            "roots": sorted(str(s["name"]) for s in roots),
            "connected": len(roots) == 1,
        }
    return out


def phase_breakdown(
    spans: Union[Tracer, Iterable[Span]]
) -> Dict[str, Dict[str, float]]:
    """Aggregate spans into ``{phase: {count, total_s, mean_s, max_s}}``.

    Phases are span names, sorted for stable JSON output.  This is the
    per-phase breakdown the bench harness appends to every saved result.
    """
    if isinstance(spans, Tracer):
        spans = spans.spans()
    acc: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = acc.get(span.name)
        if entry is None:
            entry = acc[span.name] = {"count": 0.0, "total_s": 0.0, "max_s": 0.0}
        entry["count"] += 1.0
        entry["total_s"] += span.duration
        if span.duration > entry["max_s"]:
            entry["max_s"] = span.duration
    for entry in acc.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return {name: acc[name] for name in sorted(acc)}
