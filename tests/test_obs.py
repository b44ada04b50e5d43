"""Tests for the observability stack (``repro.obs``).

Covers the PR's required surface:

* instruments — a registry snapshot that is a pure read, and
  torn-read-free histograms;
* the span tracer — nesting, deterministic sampling, ring-buffer bound,
  and the disabled no-op fast path;
* exposition goldens — Prometheus text (validated with a test-side
  parser) and the fleet Chrome ``trace_event`` JSON;
* engine integration — phase spans, per-level repair accounting, query
  latency histograms, watcher refresh cost, and the guarantee that
  tracing does not perturb results;
* the service surface — ``metrics_text`` and ``trace`` ops end to end;
* the CLI — ``stream --trace-out/--metrics-out`` artifacts and the
  ``stats`` scrape.
"""

from __future__ import annotations

import io
import json
import re
import threading
import time

import pytest

from repro.cli import main
from repro.core.anc import ANCO, ANCOR
from repro.faults.chaos import ServerThread
from repro.monitor import ClusterWatcher
from repro.obs import (
    DISABLED_OBS,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    SamplingProfiler,
    TraceContext,
    Tracer,
    current_context,
    federate_snapshots,
    fleet_chrome_trace,
    fleet_trace_summary,
    phase_breakdown,
    render_prometheus,
    span_dicts,
)
from repro.obs.instruments import Histogram
from repro.obs.propagate import RootSampler
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig
from test_service import make_stream, rpc, run_server_scenario

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? \S+$"
)


def parse_prometheus(text):
    """Validate Prometheus text exposition 0.0.4; return {metric: value}.

    Every sample line must be ``name[{labels}] value`` with a float
    value, every ``# TYPE`` must name a known type, and the text must
    end with a newline — the contract a real scraper relies on.
    """
    assert text.endswith("\n")
    samples = {}
    typed = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            assert parts[0] == "#" and parts[1] == "TYPE", line
            assert parts[3] in ("counter", "gauge", "summary", "histogram"), line
            typed[parts[2]] = parts[3]
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)  # raises if not a float
    return samples, typed


def enabled_obs(**tracer_kwargs):
    tracer_kwargs.setdefault("enabled", True)
    return Observability(
        registry=MetricsRegistry(), tracer=Tracer(**tracer_kwargs)
    )


def drive(engine, graph, labels, *, timestamps=6):
    acts = make_stream(graph, labels, timestamps=timestamps)
    current, batch = None, []
    for act in acts:
        if current is not None and act.t != current:
            engine.process_batch(batch)
            batch = []
        current = act.t
        batch.append(act)
    if batch:
        engine.process_batch(batch)
    return acts


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

class TestRegistry:
    def test_snapshot_is_a_pure_read(self):
        """One read of the registry: exactly its three sections, and no
        reader state, so reading twice with nothing observed in between
        answers the same document."""
        registry = MetricsRegistry()
        registry.counter("acts").inc(3)
        registry.gauge("depth").set(2.0)
        registry.histogram("lat").observe(0.5)
        first = registry.snapshot()
        assert set(first) == {"counters", "gauges", "histograms"}
        assert registry.snapshot() == first
        registry.counter("acts").inc()
        assert registry.snapshot()["counters"]["acts"] == 4.0


class TestHistogram:
    def test_summary_is_a_single_consistent_view(self):
        """Concurrent torn-read regression: with every observation equal
        to 1.0, any consistent (count, sum) view yields mean exactly 1.0;
        a count read apart from its sum would not."""
        hist = Histogram("lat", window=64)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe(1.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                summary = hist.summary()
                if summary["count"]:
                    assert summary["mean"] == 1.0
        finally:
            stop.set()
            thread.join()

    def test_summary_and_percentiles(self):
        hist = Histogram("lat", window=100)
        for v in range(1, 101):
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["count"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.0, abs=1.0)
        assert summary["p90"] == 90.0  # nearest rank on the sorted window
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0

    def test_window_bound_keeps_lifetime_totals(self):
        hist = Histogram("lat", window=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 6.0
        assert summary["sum"] == 21.0
        # 1.0 and 2.0 fell off the window: its median is 5.0 where all
        # six observations' would be 3.0.
        assert summary["p50"] == 5.0

    def test_empty_summary(self):
        summary = Histogram("lat").summary()
        assert summary == {
            "count": 0.0, "sum": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
            "p99": 0.0, "max": 0.0,
        }


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_nesting_depth_and_exit_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="batch"):
            with tracer.span("inner"):
                pass
        spans = tracer.spans()
        assert [(s.name, s.depth) for s in spans] == [("inner", 1), ("outer", 0)]
        assert spans[1].args == {"kind": "batch"}
        assert all(s.duration >= 0.0 for s in spans)

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        # The fast path allocates nothing: same object every call.
        assert tracer.span("a") is tracer.span("b")
        with tracer.span("a"):
            pass
        assert tracer.spans() == [] and tracer.recorded == 0

    def test_ring_buffer_bound(self):
        tracer = Tracer(enabled=True, capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert [s.name for s in tracer.drain()] == ["s6", "s7", "s8", "s9"]
        assert len(tracer) == 0

    def test_deterministic_sampling(self):
        tracer = Tracer(enabled=True, sample=0.5)
        for _ in range(10):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        # The per-thread accumulator records exactly every other root —
        # and each unsampled root mutes its children too.
        assert tracer.recorded == 10  # 5 roots + 5 children
        assert tracer.sampled_out == 5
        by_name = {}
        for span in tracer.spans():
            by_name[span.name] = by_name.get(span.name, 0) + 1
        assert by_name == {"root": 5, "child": 5}

    def test_sampling_is_repeatable(self):
        def run():
            tracer = Tracer(enabled=True, sample=0.25)
            for i in range(12):
                with tracer.span("root", i=i):
                    pass
            return [s.args["i"] for s in tracer.spans()]

        assert run() == run() and len(run()) == 3

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample=0.0)
        with pytest.raises(ValueError):
            Tracer().set_sample(1.5)
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_external_record_and_status(self):
        tracer = Tracer(enabled=True, capacity=8)
        tracer.record("bench.update", duration=0.125, method="ANCO")
        (span,) = tracer.spans()
        assert span.duration == 0.125 and span.args == {"method": "ANCO"}
        status = tracer.status()
        assert status["enabled"] is True
        assert status["buffered"] == 1 and status["recorded"] == 1
        tracer.disable()
        tracer.record("ignored", duration=1.0)
        assert tracer.status()["recorded"] == 1


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------

class TestExposition:
    def test_prometheus_text_is_parseable(self):
        registry = MetricsRegistry()
        registry.counter("acts ingested").inc(7)  # name needs sanitizing
        registry.gauge("depth", lambda: 3.5)
        hist = registry.histogram("latency_seconds")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        text = render_prometheus(
            [({}, registry.snapshot())], namespace="anc"
        )
        samples, typed = parse_prometheus(text)
        assert samples["anc_acts_ingested_total"] == 7.0
        assert typed["anc_acts_ingested_total"] == "counter"
        assert samples["anc_depth"] == 3.5
        assert typed["anc_latency_seconds"] == "summary"
        assert samples['anc_latency_seconds{quantile="0.5"}'] == 0.2
        assert samples["anc_latency_seconds_sum"] == pytest.approx(0.6)
        assert samples["anc_latency_seconds_count"] == 3.0

    def test_single_node_text_is_golden(self):
        """A node's scrape is one unlabeled source: one TYPE line per
        metric, counters, then gauges, then summaries."""
        registry = MetricsRegistry()
        registry.counter("acts").inc(2)
        registry.gauge("depth").set(1.5)
        hist = registry.histogram("lat")
        for v in (0.25, 0.5):
            hist.observe(v)
        text = render_prometheus(
            [({}, registry.snapshot())], namespace="anc"
        )
        assert text == (
            "# TYPE anc_acts_total counter\n"
            "anc_acts_total 2.0\n"
            "# TYPE anc_depth gauge\n"
            "anc_depth 1.5\n"
            "# TYPE anc_lat summary\n"
            'anc_lat{quantile="0.5"} 0.25\n'
            'anc_lat{quantile="0.9"} 0.5\n'
            'anc_lat{quantile="0.99"} 0.5\n'
            "anc_lat_sum 0.75\n"
            "anc_lat_count 2.0\n"
        )

    def test_prometheus_empty_registry(self):
        assert render_prometheus([({}, MetricsRegistry().snapshot())]) == ""

    def test_unobserved_histogram_scrapes_nan_quantiles(self):
        """A path that never ran has no latency: its quantiles read NaN,
        not 0.0, beside a zero ``_count`` (the JSON summary keeps 0.0)."""
        registry = MetricsRegistry()
        registry.histogram("lat")
        text = render_prometheus([({}, registry.snapshot())], namespace="anc")
        assert text == (
            "# TYPE anc_lat summary\n"
            'anc_lat{quantile="0.5"} NaN\n'
            'anc_lat{quantile="0.9"} NaN\n'
            'anc_lat{quantile="0.99"} NaN\n'
            "anc_lat_sum 0.0\n"
            "anc_lat_count 0.0\n"
        )
        samples, typed = parse_prometheus(text)
        assert typed["anc_lat"] == "summary"
        assert samples["anc_lat_count"] == 0.0

    def test_phase_breakdown(self):
        tracer = Tracer(enabled=True)
        tracer.record("update", duration=0.5)
        tracer.record("update", duration=1.5)
        tracer.record("query", duration=0.25)
        phases = phase_breakdown(tracer)
        assert phases["update"]["count"] == 2
        assert phases["update"]["total_s"] == 2.0
        assert phases["update"]["mean_s"] == 1.0
        assert phases["update"]["max_s"] == 1.5
        assert phases["query"]["count"] == 1


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------

class TestEngineIntegration:
    def test_default_engine_is_dark(self, small_planted, quick_params):
        graph, labels = small_planted
        engine = ANCO(graph, quick_params)
        assert engine.obs is DISABLED_OBS
        drive(engine, graph, labels, timestamps=3)
        assert len(NULL_TRACER) == 0

    def test_phase_spans_cover_the_hot_path(self, small_planted, quick_params):
        graph, labels = small_planted
        obs = enabled_obs(capacity=65536)
        engine = ANCO(graph, quick_params, obs=obs)
        drive(engine, graph, labels, timestamps=4)
        engine.clusters()
        names = {s.name for s in obs.tracer.spans()}
        assert {
            "process_batch", "activation", "activeness", "reinforce",
            "index_repair", "decay_tick", "query_clusters",
        } <= names
        depth_of = {s.name: s.depth for s in obs.tracer.spans()}
        assert depth_of["process_batch"] == 0
        assert depth_of["activation"] == 1
        assert depth_of["activeness"] == 2

    def test_per_level_counters_sum_to_totals(self, small_planted, quick_params):
        graph, labels = small_planted
        obs = enabled_obs()
        engine = ANCO(graph, quick_params, obs=obs)
        drive(engine, graph, labels, timestamps=4)
        index = engine.index
        assert index.update_count > 0
        assert sum(index.touched_by_level.values()) == index.total_touched
        assert sum(index.repairs_by_level.values()) == (
            index.update_count * index.k * index.num_levels
        )
        assert index.update_increases + index.update_decreases == index.update_count
        stats = engine.stats()
        assert stats["index_touched_by_level"] == dict(
            sorted(index.touched_by_level.items())
        )
        assert stats["index_update_increases"] == index.update_increases

    def test_gauges_track_engine_stats(self, small_planted, quick_params):
        graph, labels = small_planted
        obs = enabled_obs()
        engine = ANCO(graph, quick_params, obs=obs)
        acts = drive(engine, graph, labels, timestamps=4)
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["engine_activations"] == float(len(acts))
        assert gauges["index_updates"] == float(engine.index.update_count)
        per_level = sum(
            gauges[f"index_level{level}_touched"]
            for level in range(1, engine.index.num_levels + 1)
        )
        assert per_level == float(engine.index.total_touched)

    def test_query_latency_histograms(self, small_planted, quick_params):
        graph, labels = small_planted
        obs = enabled_obs()
        engine = ANCO(graph, quick_params, obs=obs)
        drive(engine, graph, labels, timestamps=3)
        engine.clusters()
        engine.cluster_of(0)
        for name in ("query_clusters_seconds", "query_local_seconds"):
            assert obs.registry.histogram(name).summary()["count"] == 1.0

    def test_watcher_refresh_cost_is_measured(self, small_planted, quick_params):
        graph, labels = small_planted
        obs = enabled_obs(capacity=65536)
        engine = ANCOR(graph, quick_params, obs=obs)
        watcher = ClusterWatcher(engine)
        watcher.watch(0)
        acts = make_stream(graph, labels, timestamps=4)
        batches = 0
        current, batch = None, []
        for act in acts:
            if current is not None and act.t != current:
                watcher.process_batch(batch)
                batches += 1
                batch = []
            current = act.t
            batch.append(act)
        if batch:
            watcher.process_batch(batch)
            batches += 1
        registry = obs.registry
        assert registry.counter("watcher_batches").value == float(batches)
        refresh = registry.histogram("watcher_refresh_seconds").summary()
        assert refresh["count"] == float(batches)
        assert registry.counter("watcher_touched_nodes").value > 0
        assert "watcher_refresh" in {s.name for s in obs.tracer.spans()}

    def test_tracing_does_not_perturb_results(self, small_planted, quick_params):
        graph, labels = small_planted
        dark = ANCO(graph, quick_params)
        traced = ANCO(graph, quick_params, obs=enabled_obs(capacity=65536))
        drive(dark, graph, labels, timestamps=5)
        drive(traced, graph, labels, timestamps=5)
        assert dark.index.weights_view() == traced.index.weights_view()
        assert dark.clusters() == traced.clusters()
        assert traced.obs.tracer.recorded > 0


# ----------------------------------------------------------------------
# Service surface
# ----------------------------------------------------------------------

class TestServiceObservability:
    def test_metrics_text_op(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=5)

        async def scenario(reader, writer, server):
            items = [[a.u, a.v, a.t] for a in acts]
            await rpc(reader, writer, op="ingest_batch", items=items)
            await rpc(reader, writer, op="sync")
            return await rpc(reader, writer, op="metrics_text")

        response = run_server_scenario(
            scenario, graph_and_labels=small_planted, params=quick_params
        )
        assert response["ok"] is True
        samples, typed = parse_prometheus(response["text"])
        assert samples["anc_activations_ingested_total"] == float(len(acts))
        assert typed["anc_activations_ingested_total"] == "counter"
        # Engine gauges fold into the same registry via attach_obs.
        assert samples["anc_engine_activations"] == float(len(acts))

    def test_trace_op_round_trip(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=5)

        async def scenario(reader, writer, server):
            off = await rpc(reader, writer, op="trace")
            started = await rpc(reader, writer, op="trace", action="start")
            items = [[a.u, a.v, a.t] for a in acts]
            await rpc(reader, writer, op="ingest_batch", items=items)
            await rpc(reader, writer, op="sync")
            await rpc(reader, writer, op="clusters")
            fetched = await rpc(reader, writer, op="trace_fetch")
            kept = await rpc(reader, writer, op="trace", action="status")
            cleared = await rpc(reader, writer, op="trace", action="clear")
            stopped = await rpc(reader, writer, op="trace", action="stop")
            dump = await rpc(reader, writer, op="trace", action="dump")
            bad = await rpc(reader, writer, op="trace", action="bogus")
            return off, started, fetched, kept, cleared, stopped, dump, bad

        off, started, fetched, kept, cleared, stopped, dump, bad = run_server_scenario(
            scenario, graph_and_labels=small_planted, params=quick_params
        )
        assert off["enabled"] is False
        assert started["enabled"] is True
        spans = fetched["spans"]
        names = {span["name"] for span in spans}
        # The writer drives the engine per activation (deterministic
        # batch hooks), so the engine phases nest under "activation".
        assert {"activation", "index_repair", "query_clusters"} <= names
        assert {span["depth"] for span in spans} >= {0, 1}
        assert kept["buffered"] >= len(spans)  # a fetch drains only on request
        assert cleared["buffered"] == 0
        assert stopped["enabled"] is False
        # Spans leave a node only through trace_fetch.
        assert dump["ok"] is False and dump["error_type"] == "BAD_REQUEST"
        assert bad["ok"] is False and "unknown trace action" in bad["error"]

    def test_metrics_op_is_read_only_by_default(self, small_planted, quick_params):
        graph, labels = small_planted
        acts = make_stream(graph, labels, timestamps=5)

        async def scenario(reader, writer, server):
            items = [[a.u, a.v, a.t] for a in acts]
            await rpc(reader, writer, op="ingest_batch", items=items)
            await rpc(reader, writer, op="sync")
            answers = [await rpc(reader, writer, op="metrics") for _ in range(3)]
            # The op reads no request field; an unknown one is ignored.
            answers.append(await rpc(reader, writer, op="metrics", rate_key="mine"))
            return [answer["metrics"] for answer in answers]

        docs = run_server_scenario(
            scenario, graph_and_labels=small_planted, params=quick_params
        )
        for doc in docs:
            assert set(doc) == {"counters", "gauges", "histograms"}
            assert doc["counters"]["activations_ingested"] == float(len(acts))
        # Reading changes nothing but the request counter every request
        # bumps: each answer is its predecessor plus one request (and a
        # later reading of ``snapshot_age_s``, which is a clock).
        def steady(gauges):
            return {k: v for k, v in gauges.items() if k != "snapshot_age_s"}

        for before, after in zip(docs, docs[1:]):
            bumped = dict(before["counters"])
            bumped["server_requests"] += 1.0
            assert after["counters"] == bumped
            assert set(after["gauges"]) == set(before["gauges"])
            assert steady(after["gauges"]) == steady(before["gauges"])
            assert after["histograms"] == before["histograms"]


# ----------------------------------------------------------------------
# CLI artifacts
# ----------------------------------------------------------------------

class TestCliTracing:
    def _replay(self, tmp_path):
        """``stream --trace-out --metrics-out``: (trace doc, metrics doc, output)."""
        edgelist = tmp_path / "stream.tsv"
        edgelist.write_text(
            "a b 1\nb c 1\na c 2\nc d 2\nd a 3\na b 3\nb c 4\n"
        )
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        out = io.StringIO()
        code = main(
            [
                "stream", str(edgelist),
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ],
            out,
        )
        assert code == 0
        return (
            json.loads(trace_path.read_text()),
            json.loads(metrics_path.read_text()),
            out.getvalue(),
        )

    def test_stream_trace_and_metrics_out(self, tmp_path):
        doc, metrics, out = self._replay(tmp_path)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {"process_batch", "activation", "index_repair"} <= names
        assert {e["args"]["depth"] for e in slices} >= {0, 1, 2}
        assert metrics["gauges"]["engine_activations"] == 7.0
        assert "wrote Chrome trace" in out

    def test_stream_trace_is_one_named_lane(self, tmp_path):
        """The replay's trace comes from the fleet writer: one lane,
        named ``stream``, holding every span of the engine's nesting."""
        doc, _, _ = self._replay(tmp_path)
        events = doc["traceEvents"]
        lanes = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert [lane["args"]["name"] for lane in lanes] == ["stream"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {lanes[0]["pid"]}
        assert max(e["args"]["depth"] for e in slices) == 2


class TestCliStats:
    def test_stats_prints_the_node_scrape(self, small_planted, quick_params):
        """``repro-anc stats`` prints the node's own scrape: the same
        metrics as a ``metrics_text`` request, and no client samples."""
        graph, _ = small_planted
        config = ServerConfig(port=0, engine="anco")
        with ServerThread(graph, config=config, params=quick_params) as handle:
            out = io.StringIO()
            assert main(["stats", "--port", str(handle.port)], out) == 0
            with ServiceClient("127.0.0.1", handle.port) as client:
                scrape = client.request("metrics_text")["text"]
        printed = out.getvalue()
        samples, _ = parse_prometheus(printed)

        def type_lines(text):
            return [line for line in text.splitlines() if line.startswith("# TYPE")]

        assert type_lines(printed) and type_lines(printed) == type_lines(scrape)
        assert not [name for name in samples if name.startswith("anc_client_")]

# ----------------------------------------------------------------------
# Cross-process trace propagation
# ----------------------------------------------------------------------

class TestPropagation:
    def test_wire_round_trip(self):
        ctx = TraceContext("trace-1", "a.1", True)
        back = TraceContext.from_wire(ctx.to_wire())
        assert (back.trace_id, back.span_id, back.sampled) == (
            "trace-1", "a.1", True,
        )

    def test_malformed_envelopes_dropped_not_rejected(self):
        for bad in (None, 7, "x", [], {}, {"span": "s"}, {"id": ""}, {"id": 3}):
            assert TraceContext.from_wire(bad) is None
        # A missing/garbled span id degrades to "", not a rejection.
        ctx = TraceContext.from_wire({"id": "t", "span": 42, "sampled": 1})
        assert ctx is not None
        assert ctx.span_id == "" and ctx.sampled is True

    def test_root_sampler_is_deterministic(self):
        """A quarter samples exactly requests 4, 8, 12, ...; ids number
        every request, sampled or not."""
        roots = RootSampler("s")
        minted = [roots.mint(0.25) for _ in range(12)]
        assert [i for i, ctx in enumerate(minted, 1) if ctx.sampled] == [4, 8, 12]
        assert [ctx.trace_id for ctx in minted[::5]] == ["s:1", "s:6", "s:b"]
        assert all(RootSampler("t").mint(1.0).sampled for _ in range(3))

    def test_child_keeps_trace_id_and_sampling(self):
        child = TraceContext("t", "p.1", True).child("p.2")
        assert (child.trace_id, child.span_id, child.sampled) == ("t", "p.2", True)

    def test_sampled_wire_span_records_and_parents(self):
        # The sampled flag is the switch: tracer.enabled stays False.
        tracer = Tracer(enabled=False, capacity=16)
        root = TraceContext("t", "root.1", True)
        with tracer.wire_span("server.clusters", root, op="clusters"):
            bound = current_context()
            assert bound is not None and bound.trace_id == "t"
            assert bound.span_id != "root.1"  # a fresh child id
        assert current_context() is None  # unbound on exit
        (span,) = tracer.spans()
        assert span.name == "server.clusters"
        assert span.trace_id == "t"
        assert span.parent_id == "root.1"
        assert span.span_id == bound.span_id
        assert span.args["op"] == "clusters"

    def test_unsampled_wire_span_binds_but_records_nothing(self):
        tracer = Tracer(enabled=False, capacity=16)
        root = TraceContext("t", "root.1", False)
        with tracer.wire_span("server.clusters", root):
            assert current_context() is root  # propagated verbatim
        assert current_context() is None
        assert tracer.spans() == []

    def test_no_context_anywhere_is_a_noop(self):
        tracer = Tracer(enabled=False, capacity=16)
        with tracer.wire_span("server.clusters"):
            assert current_context() is None
        assert tracer.spans() == []

    def test_nested_wire_spans_form_a_chain(self):
        # router request span -> forward span, linked parent to child,
        # the forward picking up the bound context implicitly.
        tracer = Tracer(enabled=False, capacity=16)
        root = TraceContext("t", "client.1", True)
        with tracer.wire_span("router.clusters", root):
            with tracer.wire_span("router.forward", shard=0):
                pass
        request, forward = sorted(tracer.spans(), key=lambda s: s.start)
        assert request.parent_id == "client.1"
        assert forward.parent_id == request.span_id
        # One root: the whole chain is a connected tree.
        summary = fleet_trace_summary(
            [{"pid": 1, "process": "router", "spans": span_dicts([request, forward])}]
        )
        assert summary["t"]["connected"] is True
        assert summary["t"]["roots"] == ["router.clusters"]


# ----------------------------------------------------------------------
# Metrics federation
# ----------------------------------------------------------------------

def _hist_doc(values):
    hist = Histogram("lat", window=128)
    for v in values:
        hist.observe(v)
    return {**hist.summary(), "buckets": hist.bucket_counts()}


class TestFederation:
    def _sources(self):
        return [
            (
                {"role": "worker", "shard": "0"},
                {
                    "counters": {"activations_applied": 60.0},
                    "gauges": {"queue_depth": 6.0},
                    "histograms": {"ingest_latency": _hist_doc([0.001] * 4)},
                },
            ),
            (
                {"role": "worker", "shard": "1"},
                {
                    "counters": {"activations_applied": 40.0},
                    "gauges": {"queue_depth": 1.0},
                    "histograms": {"ingest_latency": _hist_doc([0.004] * 4)},
                },
            ),
        ]

    def test_counters_sum_gauges_never(self):
        doc = federate_snapshots(self._sources())
        assert doc["counters"]["activations_applied"] == 100.0
        # The whole point: 6 + 1 = 7 describes no real queue.
        gauges = doc["gauges"]["queue_depth"]
        assert gauges == {
            'role="worker",shard="0"': 6.0,
            'role="worker",shard="1"': 1.0,
        }
        assert 7.0 not in gauges.values()

    def test_histograms_stay_per_source(self):
        doc = federate_snapshots(self._sources())
        per_source = doc["histograms"]["ingest_latency"]
        assert sorted(per_source) == [
            'role="worker",shard="0"',
            'role="worker",shard="1"',
        ]
        # Each source keeps its own window's quantiles — the observed
        # 1 ms and 4 ms, not the upper bound of a merged bucket.
        assert per_source['role="worker",shard="0"']["p50"] == 0.001
        assert per_source['role="worker",shard="1"']["p99"] == 0.004
        assert per_source['role="worker",shard="1"']["count"] == 4.0

    def test_federated_prometheus_is_valid_and_grouped(self):
        text = render_prometheus(self._sources(), namespace="anc")
        samples, typed = parse_prometheus(text)
        assert samples['anc_queue_depth{role="worker",shard="0"}'] == 6.0
        assert samples['anc_queue_depth{role="worker",shard="1"}'] == 1.0
        assert 'anc_queue_depth 7.0' not in text  # no summed gauge sample
        assert typed["anc_queue_depth"] == "gauge"
        assert typed["anc_activations_applied_total"] == "counter"
        assert typed["anc_ingest_latency"] == "summary"
        # Exposition grouping: one TYPE block per metric, all of a
        # metric's samples contiguous beneath it (the 0.0.4 contract).
        for metric in (
            "anc_queue_depth", "anc_activations_applied_total", "anc_ingest_latency",
        ):
            assert text.count(f"# TYPE {metric} ") == 1
        lines = [l for l in text.splitlines() if l]
        block = None
        for line in lines:
            if line.startswith("# TYPE"):
                block = line.split()[2]
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            stripped = name
            for suffix in ("_sum", "_count"):
                if block and name == block + suffix:
                    stripped = block
            assert stripped == block, f"{line!r} outside its TYPE block"
        # Each source's summary: its own window quantiles and lifetime
        # totals, under its own labels.
        shard0 = 'role="worker",shard="0"'
        assert samples[f'anc_ingest_latency{{{shard0},quantile="0.5"}}'] == 0.001
        assert samples[f"anc_ingest_latency_count{{{shard0}}}"] == 4.0
        assert samples[f"anc_ingest_latency_sum{{{shard0}}}"] == pytest.approx(0.004)
        assert samples['anc_ingest_latency{role="worker",shard="1",quantile="0.99"}'] == 0.004

    def test_scrape_stays_valid_after_a_window_wraps(self):
        """A histogram keeps its last 8,192 observations; its summary
        still reports the lifetime count beside the window's quantiles,
        and no bucket series exists to fall when the window moves."""

        def source(labels, values):
            registry = MetricsRegistry()
            hist = registry.histogram("ingest_latency")
            for value in values:
                hist.observe(value)
            return labels, registry.snapshot()

        wrapped = {"role": "worker", "shard": "0"}
        sources = [
            source(wrapped, [0.001] * 10_000),
            source({"role": "worker", "shard": "1"}, [0.002, 0.003]),
        ]
        text = render_prometheus(sources, namespace="anc")
        samples, typed = parse_prometheus(text)
        assert typed["anc_ingest_latency"] == "summary"
        label = 'role="worker",shard="0"'
        assert samples[f"anc_ingest_latency_count{{{label}}}"] == 10000.0
        for quantile in ("0.5", "0.9", "0.99"):
            key = f'anc_ingest_latency{{{label},quantile="{quantile}"}}'
            assert samples[key] == 0.001
        assert samples['anc_ingest_latency_count{role="worker",shard="1"}'] == 2.0
        assert "_bucket" not in text

    def test_empty_sources(self):
        assert render_prometheus([]) == ""
        doc = federate_snapshots([])
        assert doc["counters"] == {} and doc["gauges"] == {}


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------

class TestSamplingProfiler:
    def test_phase_attribution_and_report_shape(self):
        tracer = Tracer(enabled=True, capacity=64)
        profiler = SamplingProfiler(hz=500.0, tracer=tracer)
        stop = threading.Event()

        def burn():
            with tracer.span("hot_phase"):
                while not stop.is_set():
                    sum(i * i for i in range(200))

        worker = threading.Thread(target=burn, daemon=True)
        with profiler:
            worker.start()
            while profiler.samples < 20:
                pass
            stop.set()
            worker.join()
        report = profiler.report()
        assert set(report) >= {
            "hz", "duration_s", "samples", "phases", "top_functions", "collapsed",
        }
        assert report["samples"] >= 20
        assert "hot_phase" in report["phases"]
        phase = report["phases"]["hot_phase"]
        assert phase["samples"] > 0 and 0.0 < phase["share"] <= 1.0
        assert report["top_functions"], "no stacks sampled"
        # The worker's full stack shows up in the collapsed output.
        assert any("burn" in line for line in report["collapsed"])
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in report["collapsed"])
        # track_open is returned to the tracer when the window closes.
        assert profiler.running is False

    def test_est_s_reads_wall_seconds_at_a_high_rate(self):
        """The sampler needs the GIL for every sample, so at 997 Hz it
        falls far short of its nominal rate on a busy interpreter; the
        busy phase's ``est_s`` must still be within 25% of the span's
        wall time."""
        tracer = Tracer(enabled=True, capacity=64)
        with SamplingProfiler(hz=997.0, tracer=tracer) as profiler:
            started = time.perf_counter()
            with tracer.span("busy"):
                while time.perf_counter() - started < 0.6:
                    sum(i * i for i in range(200))
            wall = time.perf_counter() - started
        est = profiler.phase_breakdown()["busy"]["est_s"]
        assert abs(est - wall) <= 0.25 * wall, (est, wall, profiler.samples)

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0.0)

    def test_status_is_compact(self):
        profiler = SamplingProfiler(hz=97.0)
        status = profiler.status()
        assert status == {
            "running": False, "hz": 97.0, "samples": 0, "stacks": 0,
        }


# ----------------------------------------------------------------------
# Fleet trace export
# ----------------------------------------------------------------------

class TestFleetExport:
    def _processes(self):
        # client -> router -> worker, hand-rolled in trace_fetch shape.
        return [
            {
                "pid": 100, "process": "client",
                "spans": [
                    {"name": "client.clusters", "start": 10.0, "dur": 0.5,
                     "depth": 0, "tid": 1, "args": {},
                     "trace": "t1", "span": "c.1", "parent": "c.0"},
                ],
            },
            {
                "pid": 200, "process": "router",
                "spans": [
                    {"name": "router.clusters", "start": 10.1, "dur": 0.3,
                     "depth": 0, "tid": 1, "args": {},
                     "trace": "t1", "span": "r.1", "parent": "c.1"},
                ],
            },
            {
                "pid": 300, "process": "shard-0",
                "spans": [
                    {"name": "server.clusters", "start": 10.2, "dur": 0.1,
                     "depth": 0, "tid": 1, "args": {},
                     "trace": "t1", "span": "w.1", "parent": "r.1"},
                    {"name": "index_repair", "start": 10.25, "dur": 0.01,
                     "depth": 1, "tid": 2, "args": {}},
                ],
            },
        ]

    def test_pid_lanes_and_flow_arrows(self):
        doc = fleet_chrome_trace(self._processes())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert {m["args"]["name"] for m in meta} == {"client", "router", "shard-0"}
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {100, 200, 300}
        # Timeline anchored at the earliest span.
        assert min(e["ts"] for e in slices) == 0.0
        flows = [e for e in events if e["ph"] in ("s", "f")]
        # Two parent->child links, one "s" + one "f" each.
        assert len(flows) == 4
        assert {f["id"] for f in flows} == {"c.1->r.1", "r.1->w.1"}

    def test_lanes_are_named_by_process(self):
        """Lanes take the ``process`` name every ``trace_fetch`` entry
        carries, not a positional placeholder."""
        doc = fleet_chrome_trace(
            [
                {"pid": 11, "process": "router", "spans": []},
                {"pid": 12, "process": "shard-0", "spans": []},
            ]
        )
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        }
        assert lanes == {11: "router", 12: "shard-0"}

    def test_trace_id_filter_drops_engine_spans(self):
        doc = fleet_chrome_trace(self._processes(), trace_id="t1")
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "index_repair" not in names
        assert {"client.clusters", "router.clusters", "server.clusters"} <= names

    def test_summary_connected_tree(self):
        summary = fleet_trace_summary(self._processes())
        assert summary["t1"]["spans"] == 3
        assert summary["t1"]["pids"] == [100, 200, 300]
        assert summary["t1"]["roots"] == ["client.clusters"]
        assert summary["t1"]["connected"] is True

    def test_summary_detects_disconnection(self):
        processes = self._processes()
        processes[1]["spans"][0]["parent"] = "nonexistent.9"
        summary = fleet_trace_summary(processes)
        assert summary["t1"]["connected"] is False
        assert len(summary["t1"]["roots"]) == 2

    def test_span_dicts_carry_absolute_time_and_ids(self):
        tracer = Tracer(enabled=False, capacity=8)
        with tracer.wire_span("client.ping", TraceContext("t", "r.0", True)):
            pass
        (doc,) = span_dicts(tracer)
        assert doc["start"] > 1e9  # absolute unix seconds, not epoch-relative
        assert doc["trace"] == "t" and doc["parent"] == "r.0"
        engine = Tracer(enabled=True, capacity=8)
        with engine.span("activation"):
            pass
        (plain,) = span_dicts(engine)
        assert "trace" not in plain and plain["name"] == "activation"
