"""Exposition: one Prometheus renderer, one Chrome-trace writer.

Every node, router, client and CLI command goes through these:

* :func:`render_prometheus` — labeled registry snapshots as Prometheus
  text exposition (``metrics_text`` op, ``repro-anc stats``): counters
  as ``_total``, gauges verbatim, each histogram as a summary of its
  own source's window, every sample carrying its source's labels;
* :func:`federate_snapshots` — the same labeled snapshots as one fleet
  JSON document (the shard router's ``metrics`` op);
* :func:`fleet_chrome_trace` — ``trace_fetch`` span buffers as one
  Chrome ``trace_event`` document, one pid lane per process, loadable
  in ``chrome://tracing`` / Perfetto.

:func:`phase_breakdown` aggregates a span list into per-phase
count/total/mean/max — the compact form the bench harness folds into
every ``bench_results/*.json``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .trace import Span, Tracer

__all__ = [
    "Source",
    "federate_snapshots",
    "fleet_chrome_trace",
    "fleet_trace_summary",
    "phase_breakdown",
    "render_prometheus",
    "span_dicts",
    "trace_op",
]

#: One exposition input: (source labels, ``MetricsRegistry.snapshot()``
#: document).  A single node renders itself as ``({}, snapshot)``.
Source = Tuple[Mapping[str, str], Mapping[str, Any]]

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


def _label_str(labels: Mapping[str, str]) -> str:
    """Labels as the canonical ``k="v",...`` string (sorted, stable)."""
    return ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))


def _braced(*parts: str) -> str:
    """``{a,b}`` of the non-empty label strings (empty when none)."""
    joined = ",".join(part for part in parts if part)
    return f"{{{joined}}}" if joined else ""


def render_prometheus(sources: Sequence[Source], *, namespace: str = "") -> str:
    """Labeled registry snapshots as Prometheus text exposition 0.0.4.

    Counters get the conventional ``_total`` suffix and gauges render
    as-is.  Each histogram becomes a summary of its own source's window
    (quantiles 0.5 / 0.9 / 0.99) plus its exact lifetime ``_sum`` and
    ``_count``; a histogram that was never observed has no quantiles,
    so they read ``NaN`` (as Prometheus client libraries write them)
    rather than a 0 s latency.  Nothing merges across sources, so a
    scraper sees the same series as if it had scraped every process
    itself (and can sum ``_sum`` / ``_count`` over sources for a fleet
    mean).  Every sample carries its source's labels, and all samples
    of one metric follow its single ``# TYPE`` line, in first-seen
    order.
    """
    blocks: Dict[str, List[str]] = {}
    for section, kind in (
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("histograms", "summary"),
    ):
        for labels, snapshot in sources:
            label_str = _label_str(labels)
            plain = _braced(label_str)
            for name, value in (snapshot.get(section) or {}).items():
                metric = _metric_name(name, namespace)
                if kind == "counter":
                    metric += "_total"
                lines = blocks.get(metric)
                if lines is None:
                    lines = blocks[metric] = [f"# TYPE {metric} {kind}"]
                if kind != "summary":
                    lines.append(f"{metric}{plain} {_fmt(value)}")
                    continue
                observed = value["count"] > 0
                for quantile, key in _QUANTILES:
                    labeled = _braced(label_str, f'quantile="{quantile:g}"')
                    sample = _fmt(value[key]) if observed else "NaN"
                    lines.append(f"{metric}{labeled} {sample}")
                lines.append(f"{metric}_sum{plain} {_fmt(value['sum'])}")
                lines.append(f"{metric}_count{plain} {_fmt(value['count'])}")
    text = "\n".join(line for lines in blocks.values() for line in lines)
    return text + "\n" if text else ""


def federate_snapshots(sources: Sequence[Source]) -> Dict[str, object]:
    """Labeled registry snapshots as one fleet JSON document.

    Returns ``{sources, counters, gauges, histograms}``: counters are
    fleet sums (events are events), while every gauge and histogram
    maps its source's canonical label string to that source's value —
    a queue depth of 6 + 1 describes no real queue, and two windows'
    quantiles do not combine into a fleet quantile.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for labels, snapshot in sources:
        key = _label_str(labels)
        for name, value in (snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            gauges.setdefault(name, {})[key] = float(value)
        for name, doc in (snapshot.get("histograms") or {}).items():
            histograms.setdefault(name, {})[key] = doc
    return {
        "sources": [dict(labels) for labels, _ in sources],
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }


def trace_op(tracer: Tracer, request: Mapping[str, Any]) -> Dict[str, object]:
    """Apply one ``trace`` wire op to ``tracer``; returns its status.

    ``action`` is start (optional ``sample``) / stop / clear / status.
    Spans leave a live node only through ``trace_fetch``.
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
    elif action != "status":
        raise ValueError(
            f"unknown trace action {action!r}; expected start/stop/status/clear"
        )
    return dict(tracer.status())


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
    each entry holds its ``process`` name (``client`` / ``router`` /
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
        name = str(proc.get("process", f"process-{index}"))
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
