#!/usr/bin/env python3
"""Serving benchmark: saturating ingest, mixed reads, routed replica reads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 15 --trace 0

Starts real ``repro-anc`` server processes from ``src/``, drives them
with a seeded load generator, checks every answer against an in-process
oracle and prints, as the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` additionally runs the workload with every request traced
and reports the per-layer metrics (``perfbench/README.md`` lists them,
with the end-to-end metric each should move).  The line before the
result is a provenance record (sources, seed, sample counts, validity).
A run whose generator fell behind, whose percentiles lack samples, whose
traced run lost spans or whose window lost over 5% of the machine's CPU
time to the hypervisor is marked invalid (``"valid": false`` in the
provenance record, and on stderr); its numbers describe a disturbed
machine, not the program.  A wrong answer prints the result with
``"correct": false`` and no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # importable once main() put src/ and this directory on the path
    from load import Request, Sample
    from repro.service.client import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed of routine runs, and the held-out seed gain claims must also hold on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7

#: Activations acknowledged after the timed window, behind a forced
#: checkpoint, so every kill -9 recovery replays exactly this WAL tail.
TAIL_ACTS = 512
#: Most activations ingested between the window and the forced
#: checkpoint.  The index fails its own consistency check for stretches
#: of some streams, and a restart refuses such a checkpoint, so the
#: checkpoint goes at the first state after the window that passes
#: (found on the oracle; see perfbench/README.md).
PRETAIL_MAX = 2048
#: Closed-loop reads of the idle read phase that follows the
#: ``ingest_saturate`` window (its read path is idle while it runs).
IDLE_READS = 4000
#: Kill -9 recoveries timed per run (``recovery_s`` is their median).
RECOVERIES = 3
#: Cadence of the monitor's queue/lag sampling and span draining.
MONITOR_PERIOD_S = 0.25
#: A send more than this much later than it could have gone counts as late.
LATE_THRESHOLD_S = 0.010
#: Validity: at most this share of sends may be late ...
MAX_LATE_SHARE = 0.05
#: ... and the generator may use at most this share of one core.
MAX_GEN_CPU_SHARE = 0.8
#: Validity: the hypervisor may steal at most this share of the
#: machine's CPU time in the window.  Latencies and rates track steal
#: closely; a run above it measured a disturbed machine.
MAX_STEAL_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    #: ``uniform`` = the paper's Exp 2 stream; ``biased`` = community-biased.
    stream: str
    followers: int = 0
    #: Closed-loop ingest: activations per second of ``--seconds`` (fixed N).
    saturate_acts_per_s: int = 0
    #: Open-loop rates (absolute; also stated in BENCHMARK.json).
    acts_per_s: float = 0.0
    batch: int = 4
    reads_per_s: float = 0.0
    #: Set-ups timed per run (``setup_s`` is their median); all but the
    #: last are torn down again.  Fewer where a set-up or the window is
    #: long, to keep a run within its time budget.
    setups: int = 2


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ingest_saturate", "IE", "uniform", saturate_acts_per_s=600),
        Workload("read_mix", "CO", "biased", acts_per_s=120.0, reads_per_s=100.0,
                 setups=3),
        Workload("replicated_reads", "CO", "biased", followers=1,
                 acts_per_s=100.0, reads_per_s=100.0, setups=2),
    )
}

#: Activations per closed-loop ``ingest_batch``.
SATURATE_BATCH = 64

#: Figures every run measures but reports per layer, under these names,
#: rather than as bounded end-to-end metrics.  On a shared 2-vCPU VM they
#: move with the hypervisor's steal by 1 to 20 times its share, and steal
#: drifts between 0 and 30% from minute to minute, so two sets of runs
#: of one commit disagree by more than any usable bound (see
#: perfbench/README.md).
STEAL_SENSITIVE = {
    "recovery_s": "recovery.restart_s",
    "ingest_ack_p50_ms": "client.ingest_ack_p50_ms",
    "ingest_ack_p95_ms": "client.ingest_ack_p95_ms",
    "visible_p50_ms": "client.visible_p50_ms",
    "visible_p95_ms": "client.visible_p95_ms",
    "local_p50_ms": "client.local_p50_ms",
    "local_p99_ms": "client.local_p99_ms",
    "clusters_p50_ms": "client.clusters_p50_ms",
    "clusters_p95_ms": "client.clusters_p95_ms",
}

#: Read mix per 20 reads: 16 ``local`` and 3 ``clusters`` at the √n
#: level, 1 ``clusters`` one level finer (zoomed in).
READ_PATTERN = ("local",) * 16 + ("clusters",) * 3 + ("zoom",)


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


# ----------------------------------------------------------------------
# Inputs (all derived from the workload seed)
# ----------------------------------------------------------------------

@dataclass
class Inputs:
    items: List[List[object]]
    labels: List[str]
    n_window: int
    #: Activations ingested after the window, before the forced checkpoint.
    pretail: int = 0


def make_inputs(spec: Workload, seed: int, seconds: int, workdir: Path) -> Tuple[Inputs, Path]:
    from repro.workloads.datasets import load_dataset
    from repro.workloads.streams import community_biased_stream

    data = load_dataset(spec.dataset)
    graph = data.graph
    edge_file = workdir / f"{spec.dataset}.txt"
    with open(edge_file, "w", encoding="utf-8") as fh:
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
    if spec.saturate_acts_per_s:
        n_window = spec.saturate_acts_per_s * seconds
        n_window -= n_window % SATURATE_BATCH
    else:
        n_window = int(round(spec.acts_per_s * seconds))
        n_window -= n_window % spec.batch
    per_step = max(1, int(round(0.05 * graph.m)))
    steps = (n_window + PRETAIL_MAX + TAIL_ACTS) // per_step + 2
    if spec.stream == "uniform":
        stream = data.default_stream(timestamps=steps, seed=seed)
    else:
        stream = community_biased_stream(
            graph, data.labels, timestamps=steps, fraction=0.05,
            intra_bias=0.9, seed=seed,
        )
    acts = list(stream)[: n_window + PRETAIL_MAX + TAIL_ACTS]
    items = [[str(a.u), str(a.v), a.t] for a in acts]
    labels = [str(v) for v in graph.nodes()]
    return Inputs(items, labels, n_window), edge_file


def read_ops(seed: int, count: int, labels: Sequence[str],
             zoom: Optional[int]) -> List[Tuple[str, Dict[str, object]]]:
    """``count`` reads in READ_PATTERN order, ``local`` nodes drawn from ``seed``.

    ``zoom`` is the finer level; ``None`` sends those reads at the √n level.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    out: List[Tuple[str, Dict[str, object]]] = []
    for i in range(count):
        kind = READ_PATTERN[i % len(READ_PATTERN)]
        if kind == "local":
            out.append(("local", {"node": rng.choice(labels)}))
        else:
            out.append(("clusters", {"level": zoom if kind == "zoom" else None}))
    return out


# ----------------------------------------------------------------------
# Monitor: periodic sampling and span draining on admin connections
# ----------------------------------------------------------------------

class Monitor:
    """Cheap periodic work, run in a load lane's idle slots."""

    def __init__(self, admins: Dict[str, "ServiceClient"], data_dir: Path,
                 *, traced: bool, replicated: bool) -> None:
        self.admins = admins
        self.data_dir = data_dir
        self.traced = traced
        self.replicated = replicated
        self.queue_depth: List[float] = []
        self.lag: List[float] = [0.0]
        self.apply_age: List[float] = [0.0]
        self.checkpoints: set = set()
        self.spans: Dict[str, List[Dict[str, object]]] = {k: [] for k in admins}
        #: Span ring capacity per server; a drain that returns this many
        #: spans may have lost older ones to the ring wrapping.
        self.capacity: Dict[str, int] = {}
        self.full_drains = 0
        self._next = 0.0
        self._tasks: List[str] = []
        self._lock = threading.Lock()

    def _checkpoint_names(self) -> set:
        return {
            p.name for p in self.data_dir.glob("checkpoint-*")
            if (p / "MANIFEST").exists()
        }

    def drain(self, name: str) -> None:
        response = self.admins[name].trace_fetch(drain=True)
        spans = response.get("spans")
        if isinstance(spans, list):
            self.spans[name].extend(spans)
            if len(spans) >= self.capacity.get(name, 1 << 62):
                self.full_drains += 1

    def _run(self, task: str) -> None:
        if task == "stats":
            stats = self.admins["primary"].stats()
            self.queue_depth.append(float(stats["queue_depth"]))  # type: ignore[arg-type]
            self.checkpoints |= self._checkpoint_names()
        elif task == "replicas":
            replicas = self.admins["primary"].request("replicas")["replicas"]
            for info in replicas.values():  # type: ignore[union-attr]
                self.lag.append(float(info["lag"]))
                self.apply_age.append(float(info["apply_age"]))
        else:
            self.drain(task)

    def tick(self) -> bool:
        """Run one pending task; False when nothing is pending."""
        with self._lock:
            now = time.perf_counter()
            if not self._tasks:
                if now < self._next:
                    return False
                self._next = max(self._next + MONITOR_PERIOD_S, now)
                self._tasks = ["stats"]
                if self.replicated:
                    self._tasks.append("replicas")
                if self.traced:
                    self._tasks.extend(self.admins)
            task = self._tasks.pop(0)
        self._run(task)
        return True

    def finish(self) -> None:
        with self._lock:
            tasks, self._tasks = self._tasks, []
        for task in tasks:
            self._run(task)
        if self.traced:
            for name in self.admins:
                self.drain(name)


# ----------------------------------------------------------------------
# One fleet: setup, timed window, tail + kill -9 recovery
# ----------------------------------------------------------------------

@dataclass
class FleetRun:
    traced: bool
    setup_s: float = 0.0
    recovery_s: float = 0.0
    window_s: float = 0.0
    applied_window: int = 0
    ingest: List["Sample"] = field(default_factory=list)
    reads: List["Sample"] = field(default_factory=list)
    probes: List["Sample"] = field(default_factory=list)
    cpu: Dict[str, float] = field(default_factory=dict)
    rss: Dict[str, float] = field(default_factory=dict)
    gen_cpu_s: float = 0.0
    before: Dict[str, dict] = field(default_factory=dict)
    after: Dict[str, dict] = field(default_factory=dict)
    wal_bytes: float = 0.0
    monitor: Optional[Monitor] = None
    client_spans: List[Dict[str, object]] = field(default_factory=list)
    recorded: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    reconnects: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    kill_identical: bool = False
    kept: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    #: Share of the machine's CPU time the hypervisor stole in the window.
    steal_share: float = 0.0
    #: ``metrics`` of the primary around ``ingest_saturate``'s idle read phase.
    idle_before: Dict[str, object] = field(default_factory=dict)
    idle_after: Dict[str, object] = field(default_factory=dict)
    recoveries: List[float] = field(default_factory=list)
    #: Why a restart after kill -9 failed, if one did.
    recovery_error: str = ""
    phases: Dict[str, float] = field(default_factory=dict)


def _cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the machine, from ``/proc/stat``."""
    with open("/proc/stat", "r", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def _self_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def _client(proc, *, trace_sample: float = 0.0):
    from repro.service.client import ServiceClient

    return ServiceClient(proc.host, proc.port, timeout=60.0, trace_sample=trace_sample)


def _wait_applied(client, target: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while int(client.ping()["applied"]) < target:  # type: ignore[arg-type]
        if time.monotonic() > deadline:
            raise RuntimeError(f"replica did not reach applied={target}")
        time.sleep(0.05)


def _set_up(fleet, spec: Workload, suffix: str):
    """Spawn the workload's processes until each serves and a ping answers.

    Returns ``(procs, admin clients, seconds)``.
    """
    started = time.perf_counter()
    primary = fleet.serve("primary" + suffix)
    primary.await_serving()
    procs = {"primary": primary}
    if spec.followers:
        follower = fleet.serve("follower" + suffix, "--role", "follower",
                               "--primary", primary.endpoint)
        follower.await_serving()
        router = fleet.read_serve("router" + suffix, primary, [follower])
        router.await_serving()
        procs.update(follower=follower, router=router)
    admins = {name: _client(proc) for name, proc in procs.items()}
    for client in admins.values():
        client.ping()
    return procs, admins, time.perf_counter() - started


def run_fleet(spec: Workload, inputs: Inputs, edge_file: Path, workdir: Path,
              seed: int, seconds: int, *, traced: bool) -> FleetRun:
    """Set up, run the timed window, then the tail and the kill -9 recoveries.

    The traced fleet only feeds per-layer figures, so it sets up and
    recovers once.
    """
    from fleet import Fleet
    from load import Lane, run_lanes

    out = FleetRun(traced=traced)
    fleet = Fleet(ROOT, workdir, edge_file)
    admins: Dict[str, ServiceClient] = {}
    load_clients = []
    try:
        # -- setup, timed spec.setups times; the last set-up fleet is measured.
        started = time.perf_counter()
        took = []
        setups = 1 if traced else spec.setups
        for k in range(setups):
            suffix = "" if k == setups - 1 else f"-dry{k}"
            procs, fresh, seconds_k = _set_up(fleet, spec, suffix)
            took.append(seconds_k)
            if suffix:
                for client in fresh.values():
                    client.close()
                for proc in reversed(list(procs.values())):
                    fleet.drop(proc)
        admins.update(fresh)
        out.setup_s = statistics.median(took)
        primary = procs["primary"]
        entry = procs.get("router", primary)

        servers = [n for n in procs if n != "router"]
        sample = 1.0 if traced else 0.0
        ingest_client = _client(entry, trace_sample=sample)
        read_client = _client(entry, trace_sample=sample)
        load_clients = [ingest_client, read_client]

        # -- warm-up: learn the √n level; register the zoomed level.
        doc = read_client.request("clusters")
        zoom = min(int(doc["num_levels"]), int(doc["level"]) + 1)  # type: ignore[arg-type]
        if not spec.saturate_acts_per_s:
            read_client.request("clusters", level=zoom)

        monitor = Monitor({n: admins[n] for n in servers}, workdir / "data-primary",
                          traced=traced, replicated=bool(spec.followers))
        out.monitor = monitor
        if traced:
            read_client.trace_spans(drain=True)  # the warm-up's spans
            for name in servers:
                status = admins[name].trace(action="start")
                monitor.capacity[name] = int(status["capacity"])  # type: ignore[arg-type]
                out.recorded[name] = -float(status["recorded"])  # type: ignore[arg-type]
                monitor.drain(name)
        for name, client in admins.items():
            out.before[name] = client.metrics()
        wal_path = workdir / "data-primary" / "wal.log"
        wal0 = wal_path.stat().st_size if wal_path.exists() else 0
        monitor.checkpoints = monitor._checkpoint_names()
        start_checkpoints = set(monitor.checkpoints)
        applied0 = int(admins["primary"].ping()["applied"])

        window_items = inputs.items[: inputs.n_window]
        spans_ing: Optional[list] = [] if traced else None
        spans_read: Optional[list] = [] if traced else None
        batches = []
        b = SATURATE_BATCH if spec.saturate_acts_per_s else spec.batch
        for i in range(0, len(window_items), b):
            key = f"bench-{seed}-{i // b}"
            batches.append({"items": window_items[i:i + b], "key": key})
        stop: Optional[threading.Event] = None
        if spec.saturate_acts_per_s:
            stop = threading.Event()
            lanes = [
                Lane(ingest_client, spans=spans_ing,
                     closed=[("ingest_batch", f) for f in batches] + [("sync", {})]),
                Lane(read_client, until=stop, idle=monitor.tick, spans=spans_read),
            ]
        else:
            from load import Request

            period = spec.batch / spec.acts_per_s
            lanes = [
                Lane(ingest_client, idle=monitor.tick, spans=spans_ing, schedule=[
                    Request(i * period, "ingest_batch", f) for i, f in enumerate(batches)
                ]),
                Lane(read_client, keep=50, spans=spans_read, schedule=[
                    Request(i / spec.reads_per_s, op, fields)
                    for i, (op, fields) in enumerate(read_ops(
                        seed, int(spec.reads_per_s * seconds), inputs.labels, zoom))
                ]),
            ]

        # The generator's own collector pauses would read as latency.
        gc.collect()
        gc.disable()
        cpu0 = {n: p.cpu_s() for n, p in procs.items()}
        gen0 = _self_cpu_s()
        steal0 = _cpu_ticks()
        t0 = time.perf_counter()
        out.phases["setup"] = t0 - started
        run_lanes(lanes, t0, on_done=stop.set if stop is not None else None)
        if stop is None:
            applied = int(ingest_client.sync())
            t_end = time.perf_counter()
        else:
            # The closed loop ends with its own sync, so the watermark
            # probe keeps running until everything sent is applied.
            sync = lanes[0].samples.pop()
            applied, t_end = sync.applied, sync.done
        out.gen_cpu_s = _self_cpu_s() - gen0
        steal1 = _cpu_ticks()
        out.steal_share = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])

        out.cpu = {n: p.cpu_s() - cpu0[n] for n, p in procs.items()}
        out.rss = {n: p.peak_rss_mb() for n, p in procs.items()}
        for name, client in admins.items():
            out.after[name] = client.metrics()
        out.window_s = t_end - t0
        out.applied_window = applied - applied0
        out.wal_bytes = wal_path.stat().st_size - wal0
        out.ingest = lanes[0].samples
        # The forced checkpoint the tail and recoveries start from; it also
        # waits out a checkpoint the window's last batch may have started,
        # so the idle read phase below meets a quiescent writer.
        pretail = inputs.items[inputs.n_window:inputs.n_window + inputs.pretail]
        for i in range(0, len(pretail), SATURATE_BATCH):
            ingest_client.ingest_batch([tuple(x) for x in pretail[i:i + SATURATE_BATCH]])
        ingest_client.sync()
        admins["primary"].request("snapshot")
        if spec.saturate_acts_per_s:
            out.probes = lanes[1].samples
            # The idle read phase gives ingest_saturate its read metrics:
            # its read path stays idle while the timed window runs.
            idle_reads = read_ops(seed, IDLE_READS, inputs.labels, None)
            lanes.append(Lane(read_client, closed=idle_reads, keep=50, spans=spans_read))
            out.idle_before = admins["primary"].metrics()
            lanes[-1].run(time.perf_counter())
            out.idle_after = admins["primary"].metrics()
            if lanes[-1].error is not None:
                raise lanes[-1].error
        out.reads = lanes[-1].samples
        out.kept = lanes[-1].kept
        gc.enable()
        out.retries = sum(c.retries for c in load_clients)
        out.reconnects = sum(c.reconnects for c in load_clients)
        if traced:
            # Stop every tracer before the last count and drain, so no
            # span lands between the two (a follower's replication fetches
            # trace themselves while its tracer runs).
            for name in servers:
                admins[name].trace(action="stop")
            time.sleep(0.1)
            for name in servers:
                out.recorded[name] += float(admins[name].trace()["recorded"])
            out.client_spans = (spans_ing or []) + (spans_read or [])
        monitor.finish()
        monitor.checkpoints -= start_checkpoints

        # -- tail behind a forced checkpoint, then kill -9 and recover.
        out.phases["window"] = time.perf_counter() - t0
        post = time.perf_counter()
        admin = admins["primary"]
        start = inputs.n_window + inputs.pretail
        tail = inputs.items[start:start + TAIL_ACTS]
        for i in range(0, len(tail), SATURATE_BATCH):
            ingest_client.ingest_batch([tuple(x) for x in tail[i:i + SATURATE_BATCH]])
        total = int(ingest_client.sync())
        out.digests["primary"] = str(admin.request("signature")["digest"])
        if spec.followers:
            _wait_applied(admins["follower"], total)
            out.digests["follower"] = str(admins["follower"].request("signature")["digest"])
        before_kill = json.dumps(admin.request("clusters")["clusters"])
        for name in list(admins):
            if name != "primary":
                admins.pop(name).close()
        for client in load_clients:
            client.close()
        load_clients = []
        for name in ("router", "follower"):
            if name in procs:
                fleet.drop(procs[name])
        out.phases["post"] = time.perf_counter() - post
        # Each restart replays the same checkpoint + WAL tail: a restarted
        # server appends nothing until it is written to.
        out.kill_identical = True
        for _ in range(1 if traced else RECOVERIES):
            admins.pop("primary").close()
            killed = time.perf_counter()
            fleet.drop(primary)
            primary = fleet.serve("primary")
            try:
                primary.await_serving()
            except RuntimeError as exc:
                # A restart that cannot load its own data dir is a wrong
                # answer, not a slow one.
                out.recovery_error = str(exc)
                out.kill_identical = False
                break
            admin = _client(primary)
            admins["primary"] = admin
            admin.ping()
            out.recoveries.append(time.perf_counter() - killed)
            after_kill = json.dumps(admin.request("clusters")["clusters"])
            applied_after = int(admin.ping()["applied"])  # type: ignore[arg-type]
            out.kill_identical &= before_kill == after_kill and applied_after == total
        out.recovery_s = statistics.median(out.recoveries) if out.recoveries else 0.0
        out.phases["recovery"] = sum(out.recoveries)
        return out
    finally:
        for client in list(admins.values()) + load_clients:
            client.close()
        fleet.close()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _pct_ms(values: Sequence[float], p: float, what: str, problems: List[str]) -> float:
    """A percentile in ms; notes in ``problems`` when under ten samples lie beyond it."""
    beyond = len(values) * (1.0 - p / 100.0)
    if beyond < 10:
        problems.append(f"{what}: {len(values)} samples leave {beyond:.1f} beyond p{p:g}")
    if not values:
        return 0.0
    from layers import percentile

    return percentile(values, p) * 1e3


def visibility(ingest: Sequence["Sample"], reads: Sequence["Sample"]) -> List[float]:
    """Due time of each ingest batch until a read answer covered its seq."""
    import bisect

    answers = sorted((s.done, s.applied) for s in reads if s.ok and s.applied >= 0)
    times, covered, high = [], [], -1
    for done, applied in answers:
        high = max(high, applied)
        times.append(done)
        covered.append(high)
    out = []
    for s in ingest:
        if not s.ok:
            continue
        i = bisect.bisect_left(covered, s.seq + 1)
        if i < len(covered):
            out.append(times[i] - s.due)
    return out


def e2e_metrics(spec: Workload, run: FleetRun, problems: List[str]) -> Dict[str, float]:
    """Every figure a user of the fleet sees, STEAL_SENSITIVE ones included."""
    ingest = [s for s in run.ingest if s.ok]
    local = [s.latency for s in run.reads if s.ok and s.op == "local"]
    clusters = [s.latency for s in run.reads if s.ok and s.op == "clusters"]
    acks = [s.latency for s in ingest]
    probes = run.probes if spec.saturate_acts_per_s else run.reads
    visible = visibility(ingest, probes)
    return {
        "setup_s": run.setup_s,
        "recovery_s": run.recovery_s,
        "ingest_acts_per_s": run.applied_window / run.window_s,
        "ingest_ack_p50_ms": _pct_ms(acks, 50, "ingest acks", problems),
        "ingest_ack_p95_ms": _pct_ms(acks, 95, "ingest acks", problems),
        "visible_p50_ms": _pct_ms(visible, 50, "visibility", problems),
        "visible_p95_ms": _pct_ms(visible, 95, "visibility", problems),
        "local_p50_ms": _pct_ms(local, 50, "local reads", problems),
        "local_p99_ms": _pct_ms(local, 99, "local reads", problems),
        "clusters_p50_ms": _pct_ms(clusters, 50, "clusters reads", problems),
        "clusters_p95_ms": _pct_ms(clusters, 95, "clusters reads", problems),
        "cpu_ms_per_kact": sum(run.cpu.values()) * 1e3 / run.applied_window * 1e3,
        "peak_rss_mb": sum(run.rss.values()),
    }


def generator_health(spec: Workload, run: FleetRun) -> Tuple[Dict[str, float], List[str]]:
    """gen.* figures and the reasons (if any) the run is invalid."""
    from layers import percentile

    scheduled = [] if spec.saturate_acts_per_s else run.ingest + run.reads
    late = [s.late for s in scheduled]
    late_count = sum(1 for x in late if x > LATE_THRESHOLD_S)
    figures = {
        "gen.late_p99_ms": percentile(late, 99) * 1e3 if late else 0.0,
        "gen.late_count": float(late_count),
        "gen.cpu_s": run.gen_cpu_s,
    }
    reasons = []
    if scheduled and late_count > MAX_LATE_SHARE * len(scheduled):
        reasons.append(f"generator late on {late_count}/{len(scheduled)} sends")
    if run.gen_cpu_s > MAX_GEN_CPU_SHARE * run.window_s:
        reasons.append(f"generator used {run.gen_cpu_s:.2f}s CPU in a "
                       f"{run.window_s:.2f}s window")
    if run.steal_share > MAX_STEAL_SHARE:
        reasons.append(f"hypervisor stole {run.steal_share:.1%} of the CPU time")
    return figures, reasons


def layer_metrics(spec: Workload, plain: FleetRun, traced: FleetRun,
                  e2e_plain: Dict[str, float], e2e_traced: Dict[str, float],
                  timed: Dict[str, float], oracle_rate: float) -> Dict[str, float]:
    from layers import counter_delta, gauge_delta, hist, hist_between, percentile, span_layers

    m: Dict[str, float] = {}
    b, a = plain.before["primary"], plain.after["primary"]
    reader = "follower" if spec.followers else "primary"
    applied = counter_delta(b, a, "activations_applied")
    batches = counter_delta(b, a, "batches_applied")
    ingested = counter_delta(b, a, "activations_ingested")

    # service.ingest
    m["ingest.batch_fill"] = applied / batches if batches else 0.0
    depth = plain.monitor.queue_depth if plain.monitor else []
    m["ingest.queue_depth_mean"] = statistics.fmean(depth) if depth else 0.0
    m["ingest.queue_depth_max"] = max(depth) if depth else 0.0
    m["ingest.shed"] = counter_delta(b, a, "ingest_shed")
    m["ingest.dedup_hits"] = counter_delta(b, a, "ingest_dedup_hits")

    # service.engine_host (percentiles of the window's own observations)
    m["host.flush_p50_ms"] = hist_between(b, a, "batch_flush_seconds", 50) * 1e3
    m["host.flush_p99_ms"] = hist_between(b, a, "batch_flush_seconds", 99) * 1e3
    flush, flush0 = hist(a, "batch_flush_seconds"), hist(b, "batch_flush_seconds")
    flush_sum = flush["mean"] * flush["count"] - flush0["mean"] * flush0["count"]
    m["host.writer_busy"] = flush_sum / plain.window_s
    m["host.publish_p50_ms"] = hist_between(b, a, "query_clusters_seconds", 50) * 1e3
    m["host.publish_count"] = (hist(a, "query_clusters_seconds")["count"]
                               - hist(b, "query_clusters_seconds")["count"])
    # ingest_saturate's reads all happen in its idle read phase.
    read_b, read_a = ((plain.idle_before, plain.idle_after) if spec.saturate_acts_per_s
                      else (plain.before[reader], plain.after[reader]))
    m["host.read_p50_ms"] = hist_between(read_b, read_a, "query_seconds", 50) * 1e3
    m["host.state_clusters_us"] = timed["host.state_clusters_us"]
    m["host.state_cluster_of_us"] = timed["host.state_cluster_of_us"]

    # service.server (untraced sizes, timed codec)
    for op in ("local", "clusters"):
        sizes = [s.nbytes for s in plain.reads if s.ok and s.op == op]
        m[f"server.response_bytes.{op}"] = float(statistics.median(sizes)) if sizes else 0.0
    m["server.encode_us.clusters"] = timed["server.encode_us.clusters"]
    m["server.encode_us.local"] = timed["server.encode_us.local"]

    # service.client
    m["client.retries"] = float(plain.retries)
    m["client.reconnects"] = float(plain.reconnects)
    requests = plain.ingest + plain.reads + plain.probes
    m["failed_ratio"] = sum(1 for s in requests if not s.ok) / len(requests)

    # service.snapshots
    m["wal.bytes_per_act"] = plain.wal_bytes / ingested if ingested else 0.0
    m["wal.append_us"] = timed["wal.append_us"]
    m["checkpoint.count"] = float(len(plain.monitor.checkpoints)) if plain.monitor else 0.0
    m["checkpoint.bytes"] = timed["checkpoint.bytes"]
    m["checkpoint.write_s"] = timed["checkpoint.write_s"]
    m["recovery.replay_acts_per_s"] = timed["recovery.replay_acts_per_s"]

    # core + index
    m["engine.rescales"] = gauge_delta(b, a, "engine_rescales")
    m["engine.offline_acts_per_s"] = oracle_rate
    gauge_applied = gauge_delta(b, a, "engine_activations") or 1.0
    m["index.touched_per_act"] = gauge_delta(b, a, "index_touched") / gauge_applied
    m["index.update_increases"] = gauge_delta(b, a, "index_update_increases")
    m["index.update_decreases"] = gauge_delta(b, a, "index_update_decreases")
    for level in range(1, 11):
        m[f"index.repairs.l{level}"] = gauge_delta(b, a, f"index_level{level}_repairs")

    # readpath + replica
    if spec.followers:
        rb, ra = plain.before["router"], plain.after["router"]
        follower_reads = counter_delta(rb, ra, "readpath_follower_reads")
        primary_reads = counter_delta(rb, ra, "readpath_primary_reads")
        m["readpath.forward_p50_ms"] = hist_between(rb, ra, "readpath_forward_seconds", 50) * 1e3
        m["readpath.forward_p99_ms"] = hist_between(rb, ra, "readpath_forward_seconds", 99) * 1e3
        total_reads = follower_reads + primary_reads
        m["readpath.follower_share"] = follower_reads / total_reads if total_reads else 0.0
        m["readpath.primary_reads"] = primary_reads
        m["readpath.stale_bounces"] = counter_delta(rb, ra, "readpath_stale_bounces")
        m["readpath.shed"] = counter_delta(rb, ra, "readpath_shed_total")
        m["readpath.upstream_errors"] = counter_delta(rb, ra, "readpath_upstream_errors")
        fb, fa = plain.before["follower"], plain.after["follower"]
        m["replica.lag_records_max"] = max(plain.monitor.lag) if plain.monitor else 0.0
        m["replica.apply_age_max_s"] = max(plain.monitor.apply_age) if plain.monitor else 0.0
        m["replica.refetches"] = counter_delta(fb, fa, "replica_refetches")
        m["replica.link_errors"] = counter_delta(fb, fa, "replica_link_errors")
    else:
        for name in ("forward_p50_ms", "forward_p99_ms", "follower_share", "primary_reads",
                     "stale_bounces", "shed", "upstream_errors"):
            m[f"readpath.{name}"] = 0.0
        for name in ("lag_records_max", "apply_age_max_s", "refetches", "link_errors"):
            m[f"replica.{name}"] = 0.0

    # processes, the client-observed figures and the machine they ran on
    for name in ("primary", "follower", "router"):
        m[f"proc.cpu_s.{name}"] = plain.cpu.get(name, 0.0)
    for name, layer_name in STEAL_SENSITIVE.items():
        m[layer_name] = e2e_plain[name]
    m["machine.steal_share"] = plain.steal_share

    # traced run: span self time, engine phases, drops, overhead
    assert traced.monitor is not None
    server_spans: List[Dict[str, object]] = []
    engine_spans: List[Dict[str, object]] = []
    for name, spans in traced.monitor.spans.items():
        for span in spans:
            if "trace" in span:
                server_spans.append(span)
            elif name == "primary":
                engine_spans.append(span)
    figures, series = span_layers(traced.client_spans, server_spans, engine_spans)
    for op in ("ingest_batch", "local", "clusters"):
        handler = series.get(f"{op}.server_self", [])
        wait = series.get(f"{op}.unattributed", [])
        m[f"server.handler_p50_ms.{op}"] = percentile(handler, 50) * 1e3 if handler else 0.0
        m[f"server.loop_wait_p50_ms.{op}"] = percentile(wait, 50) * 1e3 if wait else 0.0
        for row in ("server", "unattributed", "unattributed_share"):
            m[f"self_ms.{op}.{row}"] = figures[f"self_ms.{op}.{row}"]
    local_wait = series.get("local.unattributed", [])
    m["server.loop_wait_p99_ms.local"] = percentile(local_wait, 99) * 1e3 if local_wait else 0.0
    m["engine.activeness_us_per_act"] = figures["phase_us.activeness"]
    m["engine.reinforce_us_per_act"] = figures["phase_us.reinforce"]
    m["engine.decay_tick_us_per_act"] = figures["phase_us.decay_tick"]
    m["index.repair_us_per_act"] = figures["phase_us.index_repair"]
    # Spans are lost only when a ring wraps between two drains, and then
    # that drain comes back full; otherwise recorded-minus-fetched is
    # just spans racing the final count.
    fetched = sum(len(s) for s in traced.monitor.spans.values())
    m["obs.spans_dropped"] = (
        max(1.0, sum(traced.recorded.values()) - fetched)
        if traced.monitor.full_drains else 0.0
    )
    m["obs.unmatched_requests"] = figures["trace.unmatched_requests"]
    for name, value in e2e_plain.items():
        m[f"obs.trace_overhead.{name}"] = e2e_traced[name] / value - 1.0 if value else 0.0
    return m


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def provenance(args: argparse.Namespace) -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha: Optional[str] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def counts(run: FleetRun) -> Dict[str, int]:
    ops: Dict[str, int] = {}
    for s in run.ingest + run.reads:
        ops[s.op] = ops.get(s.op, 0) + 1
    ops["probes"] = len(run.probes)
    for s in run.ingest + run.reads:
        if s.late > LATE_THRESHOLD_S:
            ops[f"late.{s.op}"] = ops.get(f"late.{s.op}", 0) + 1
    return ops


def report(prov: Dict[str, object], invalid: List[str], metrics: Dict[str, float], *,
           correct: bool, attempted: int, failed: int, trace: bool = False) -> int:
    """Print the provenance line and the result line; the exit code."""
    print(json.dumps({"provenance": prov}))
    if invalid:
        print("invalid run: " + "; ".join(invalid), file=sys.stderr)
    if not correct:
        print(f"wrong answer: checks {prov.get('checks')}, {failed} failed requests",
              file=sys.stderr)
    units = declared_metrics()[1 if trace else 0]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import NotCheckpointable, Oracle, timed_calls

    # SIGTERM unwinds through the finally blocks, which kill the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prov = provenance(args)
    try:
        inputs, edge_file = make_inputs(spec, args.seed, args.seconds, workdir)
        started = time.perf_counter()
        oracle = Oracle(edge_file)
        try:
            inputs.pretail, expected = oracle.replay(
                inputs.items, inputs.n_window, TAIL_ACTS, SATURATE_BATCH)
        except NotCheckpointable as exc:
            # Every checkpoint the fleet could force would fail to load.
            # No request was sent; the run itself is the one attempt.
            prov.update(checks={"checkpointable": False}, error=str(exc), valid=False)
            return report(prov, [], {}, correct=False, attempted=1, failed=0)
        oracle_s = time.perf_counter() - started
        (workdir / "plain").mkdir()
        plain = run_fleet(spec, inputs, edge_file, workdir / "plain", args.seed,
                          args.seconds, traced=False)
        runs = [plain]
        traced = None
        if args.trace:
            (workdir / "traced").mkdir()
            traced = run_fleet(spec, inputs, edge_file, workdir / "traced", args.seed,
                               args.seconds, traced=True)
            runs.append(traced)
        plain.phases["oracle"] = oracle_s
        checks = {
            "checkpointable": True,
            "primary_digest": all(r.digests.get("primary") == expected for r in runs),
            "follower_digest": all(r.digests.get("follower", expected) == expected
                                   for r in runs),
            "kill9_identical": all(r.kill_identical for r in runs),
        }
        requests = [s for r in runs for s in r.ingest + r.reads + r.probes]
        failed = sum(1 for s in requests if not s.ok)
        correct = all(checks.values()) and failed == 0
        gen, invalid = generator_health(spec, plain)
        metrics: Dict[str, float] = {}
        if correct:
            # A wrong answer is never reported as a slow number.
            measured = e2e_metrics(spec, plain, invalid)
            metrics = {k: v for k, v in measured.items() if k not in STEAL_SENSITIVE}
        if correct and traced is not None:
            timed = timed_calls(oracle, workdir / "timed", workdir / "plain" / "data-primary",
                                plain.kept)
            traced_problems: List[str] = []
            e2e_traced = e2e_metrics(spec, traced, traced_problems)
            invalid += [f"traced run: {p}" for p in traced_problems]
            metrics = layer_metrics(spec, plain, traced, measured, e2e_traced, timed,
                                    oracle.offline_acts_per_s)
            metrics.update(gen)
            if metrics["obs.spans_dropped"] > 0:
                invalid.append(f"traced run dropped {metrics['obs.spans_dropped']:g} spans")
        prov.update(
            checks=checks,
            recovery_errors=[r.recovery_error for r in runs if r.recovery_error],
            samples={("traced" if r.traced else "plain"): counts(r) for r in runs},
            window_s=plain.window_s,
            steal_share=plain.steal_share,
            recoveries_s=plain.recoveries,
            pretail_acts=inputs.pretail,
            # False while the index bug noted in perfbench/README.md bites
            # this seed: the state right after the window failed the check.
            window_checkpointable=inputs.pretail == 0,
            phases_s={k: round(v, 2) for k, v in plain.phases.items()},
            valid=not invalid,
            invalid=invalid,
        )
        if correct:
            units = declared_metrics()[1 if traced is not None else 0]
            if set(units) != set(metrics):
                raise RuntimeError(
                    f"metrics differ from BENCHMARK.json: missing "
                    f"{sorted(set(units) - set(metrics))}, undeclared "
                    f"{sorted(set(metrics) - set(units))}"
                )
        return report(prov, invalid, metrics, correct=correct,
                      attempted=len(requests), failed=failed, trace=traced is not None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
