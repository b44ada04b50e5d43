"""Per-layer figures: counter deltas, span self time, timed public calls.

Everything here reads the system from outside: server ``metrics`` /
``stats`` / ``replicas`` snapshots taken around the timed window, span
buffers drained with ``trace_fetch``, and direct calls into each
layer's public functions on the run's recorded inputs (after the timed
window, so they never perturb it).
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cli import _params_from, build_parser
from repro.core.activation import Activation
from repro.core.anc import ANCEngineBase, make_engine
from repro.graph.graph import edge_key
from repro.graph.io import read_edge_list
from repro.service.engine_host import EngineHost
from repro.service.ingest import MicroBatcher
from repro.service.snapshots import (
    CheckpointStore,
    WriteAheadLog,
    apply_activations,
    recover_to,
    signature_digest,
)

__all__ = [
    "NotCheckpointable",
    "Oracle",
    "counter_delta",
    "gauge_delta",
    "hist",
    "hist_between",
    "percentile",
    "span_layers",
    "timed_calls",
]

#: Engine phases recorded as nested spans of each ``activation`` span.
ENGINE_PHASES = ("activeness", "reinforce", "index_repair", "decay_tick")

#: Ops whose request time the traced run splits across layers.
TRACED_OPS = ("ingest_batch", "local", "clusters")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the rank rule of the server histograms)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = max(0, min(len(data) - 1, int(round(p / 100.0 * (len(data) - 1)))))
    return data[rank]


def counter_delta(before: Mapping, after: Mapping, name: str) -> float:
    return float(after["counters"].get(name, 0.0)) - float(
        before["counters"].get(name, 0.0)
    )


def gauge_delta(before: Mapping, after: Mapping, name: str) -> float:
    return float(after["gauges"].get(name, 0.0)) - float(
        before["gauges"].get(name, 0.0)
    )


def hist(snapshot: Mapping, name: str) -> Dict[str, float]:
    """One histogram summary of a ``metrics`` snapshot (zeros if absent)."""
    return dict(snapshot["histograms"].get(name) or {"count": 0.0, "mean": 0.0,
                                                     "p50": 0.0, "p99": 0.0})


def hist_between(before: Mapping, after: Mapping, name: str, p: float) -> float:
    """The ``p``-th percentile of what a histogram observed between two snapshots.

    A server histogram keeps its last 8,192 observations and reports
    percentiles over them, boot included.  While that window still holds
    every observation since boot, the ``buckets`` of the two snapshots
    differ by exactly the observations in between; the percentile is
    read from that difference, interpolated geometrically inside its
    power-of-4 bucket.  Once the window has wrapped, the difference is
    no longer exact and the window's own percentile is returned.
    """
    from repro.obs.instruments import BUCKET_BOUNDS

    a = after["histograms"].get(name)
    if not a:
        return 0.0
    b = before["histograms"].get(name) or {"buckets": [0.0] * len(a["buckets"])}
    if sum(a["buckets"]) < a["count"]:
        return float(a[f"p{p:g}"])
    counts = [x - y for x, y in zip(a["buckets"], b["buckets"])]
    n = sum(counts)
    if n <= 0:
        return 0.0
    rank = int(round(p / 100.0 * (n - 1))) + 1
    seen = 0.0
    for i, count in enumerate(counts[:len(BUCKET_BOUNDS)]):
        if count and seen + count >= rank:
            hi = BUCKET_BOUNDS[i]
            lo = BUCKET_BOUNDS[i - 1] if i else hi / 4.0
            return lo * (hi / lo) ** ((rank - seen) / count)
        seen += count
    return BUCKET_BOUNDS[-1]


# ----------------------------------------------------------------------
# Output oracle
# ----------------------------------------------------------------------

class NotCheckpointable(RuntimeError):
    """No state within the pre-tail passes the index's consistency check."""


class Oracle:
    """The single-writer reference: a fresh in-process engine.

    Built exactly as ``repro-anc serve`` builds its engine — the graph
    :func:`read_edge_list` reads from the run's edge-list file and the
    CLI's default :class:`~repro.core.anc.ANCParams` — then fed the
    acknowledged stream with :func:`apply_activations`.
    """

    def __init__(self, edge_file: Path) -> None:
        self.edge_file = edge_file
        self.graph, names = read_edge_list(str(edge_file))
        self.ids = {str(name): i for i, name in enumerate(names)}
        self.params = _params_from(build_parser().parse_args(["serve", str(edge_file)]))
        self.engine: Optional[ANCEngineBase] = None
        self.acts: List[Activation] = []
        self.replay_s = 0.0

    def resolve(self, items: Iterable[Sequence[object]]) -> List[Activation]:
        out = []
        for u, v, t in items:
            a, b = edge_key(self.ids[str(u)], self.ids[str(v)])
            out.append(Activation(a, b, float(t)))  # type: ignore[arg-type]
        return out

    def replay(self, items: Sequence[Sequence[object]], window: int,
               tail: int, step: int) -> Tuple[int, str]:
        """Apply the run's stream; returns ``(pretail, signature digest)``.

        After the ``window`` activations it keeps applying ``step`` at a
        time until the index passes ``check_consistency`` — the check a
        restart runs on the checkpoint it loads — then applies ``tail``
        more.  ``pretail`` is how many activations that search added;
        the fleet ingests them before it forces its checkpoint.  Raises
        :class:`NotCheckpointable` when the search runs out of stream.
        """
        acts = self.resolve(items)
        self.engine = make_engine("ANCO", self.graph, self.params)
        started = time.perf_counter()
        apply_activations(self.engine, acts[:window])
        self.replay_s = time.perf_counter() - started
        done = window
        while not self._consistent():
            if done + step + tail > len(acts):
                raise NotCheckpointable(
                    f"no checkpointable state within {done - window} "
                    f"activations after the window"
                )
            started = time.perf_counter()
            apply_activations(self.engine, acts[done:done + step])
            self.replay_s += time.perf_counter() - started
            done += step
        started = time.perf_counter()
        apply_activations(self.engine, acts[done:done + tail])
        self.replay_s += time.perf_counter() - started
        self.acts = acts[:done + tail]
        return done - window, signature_digest(self.engine)

    def _consistent(self) -> bool:
        assert self.engine is not None
        try:
            self.engine.index.check_consistency()
        except AssertionError:
            return False
        return True

    @property
    def offline_acts_per_s(self) -> float:
        return len(self.acts) / self.replay_s


# ----------------------------------------------------------------------
# Timed public calls (layers without spans)
# ----------------------------------------------------------------------

def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed_calls(
    oracle: Oracle,
    scratch: Path,
    data_dir: Path,
    responses: Mapping[str, Sequence[Mapping[str, object]]],
) -> Dict[str, float]:
    """Time each span-less layer's public call on the run's inputs.

    ``data_dir`` is the primary's data directory after its final kill
    (a checkpoint plus the WAL tail the restart replayed); ``responses``
    holds response envelopes the generator recorded.
    """
    engine = oracle.engine
    assert engine is not None
    out: Dict[str, float] = {}
    scratch.mkdir(parents=True, exist_ok=True)

    wal = WriteAheadLog(scratch / "wal.log")
    acts = oracle.acts[:4096]
    started = time.perf_counter()
    for act in acts:
        wal.append(act, key="bench:1")
    out["wal.append_us"] = (time.perf_counter() - started) / len(acts) * 1e6
    wal.close()

    store = CheckpointStore(scratch / "ckpt")
    writes = []
    for _ in range(3):
        started = time.perf_counter()
        target = store.write_checkpoint(engine, epoch=1)
        writes.append(time.perf_counter() - started)
    out["checkpoint.write_s"] = statistics.median(writes)
    out["checkpoint.bytes"] = float(_dir_bytes(target))

    copy = scratch / "recover"
    shutil.copytree(data_dir, copy)
    restore_store = CheckpointStore(copy)
    latest = restore_store.latest_checkpoint()
    skip = latest[1] if latest is not None else 0
    started = time.perf_counter()
    recover_to(oracle.graph, restore_store, params=oracle.params, upto_seq=skip)
    load_s = time.perf_counter() - started
    started = time.perf_counter()
    recovery = recover_to(oracle.graph, restore_store, params=oracle.params)
    full_s = time.perf_counter() - started
    out["recovery.replay_acts_per_s"] = recovery.replayed / max(1e-9, full_s - load_s)

    host = EngineHost(engine, MicroBatcher())
    state = host.state
    level = state.sqrt_level
    reps = 200
    started = time.perf_counter()
    for _ in range(reps):
        state.clusters(level)
    out["host.state_clusters_us"] = (time.perf_counter() - started) / reps * 1e6
    nodes = list(range(engine.graph.n))
    started = time.perf_counter()
    for v in nodes:
        state.cluster_of(v, level)
    out["host.state_cluster_of_us"] = (time.perf_counter() - started) / len(nodes) * 1e6

    for op in ("clusters", "local"):
        docs = list(responses.get(op, ()))
        if not docs:
            out[f"server.encode_us.{op}"] = 0.0
            continue
        started = time.perf_counter()
        for doc in docs:
            json.dumps(doc).encode()
        out[f"server.encode_us.{op}"] = (time.perf_counter() - started) / len(docs) * 1e6
    return out


# ----------------------------------------------------------------------
# Span analysis (traced run)
# ----------------------------------------------------------------------

def span_layers(
    client_spans: Sequence[Mapping[str, object]],
    server_spans: Sequence[Mapping[str, object]],
    engine_spans: Sequence[Mapping[str, object]],
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Split each traced request across the layers that hold spans.

    ``client_spans`` are the generator's ``client.<op>`` roots;
    ``server_spans`` every wire span drained from the process that
    served the reads and writes; ``engine_spans`` the writer-thread
    phase spans of the primary.  A request's *unattributed* time is its
    client span minus the serving process's ``server.<op>`` span:
    transport, JSON codec, event-loop wait and (when routed) the router
    hop, none of which records a span of its own.

    Returns ``(figures, series)``: per-op means and per-act engine
    costs, plus the raw per-request series percentiles are taken from.
    """
    by_trace: Dict[str, List[Mapping[str, object]]] = defaultdict(list)
    for span in server_spans:
        trace = span.get("trace")
        if isinstance(trace, str):
            by_trace[trace].append(span)
    children: Dict[str, float] = defaultdict(float)
    for span in server_spans:
        parent = span.get("parent")
        if isinstance(parent, str):
            children[parent] += float(span["dur"])  # type: ignore[arg-type]

    series: Dict[str, List[float]] = defaultdict(list)
    figures: Dict[str, float] = {}
    unmatched = 0
    for span in client_spans:
        name = str(span.get("name", ""))
        op = name.split(".", 1)[1] if name.startswith("client.") else ""
        if op not in TRACED_OPS:
            continue
        served = [
            s for s in by_trace.get(str(span.get("trace")), ())
            if s.get("name") == f"server.{op}"
        ]
        if not served:
            unmatched += 1
            continue
        total = float(span["dur"])  # type: ignore[arg-type]
        server = float(served[0]["dur"])  # type: ignore[arg-type]
        server_self = server - children.get(str(served[0].get("span")), 0.0)
        series[f"{op}.total"].append(total)
        series[f"{op}.server_self"].append(server_self)
        series[f"{op}.unattributed"].append(total - server)
    figures["trace.unmatched_requests"] = float(unmatched)
    for op in TRACED_OPS:
        totals = series.get(f"{op}.total", [])
        if not totals:
            for row in ("server", "unattributed", "unattributed_share"):
                figures[f"self_ms.{op}.{row}"] = 0.0
            continue
        unattributed = series[f"{op}.unattributed"]
        figures[f"self_ms.{op}.server"] = statistics.fmean(series[f"{op}.server_self"]) * 1e3
        figures[f"self_ms.{op}.unattributed"] = statistics.fmean(unattributed) * 1e3
        figures[f"self_ms.{op}.unattributed_share"] = sum(unattributed) / sum(totals)

    phase_total: Dict[str, float] = defaultdict(float)
    activations = 0
    for span in engine_spans:
        name = span.get("name")
        if name == "activation":
            activations += 1
        elif name in ENGINE_PHASES:
            phase_total[str(name)] += float(span["dur"])  # type: ignore[arg-type]
    for phase in ENGINE_PHASES:
        figures[f"phase_us.{phase}"] = (
            phase_total[phase] / activations * 1e6 if activations else 0.0
        )
    return figures, series
