"""Dict reference vs array engine speedup — the ROADMAP item 1 gate.

The structure-of-arrays engine (``repro.core.arrays`` +
``repro.index.array_index``; what :func:`~repro.core.anc.make_engine`
builds) exists to kill the per-edge dict/tuple
overhead that a sampling profile of the dict engine puts in
``reinforce`` and ``index_repair``.  This bench measures exactly that
claim:

* **Profile-attributed ratio (the gate).**  The array engine and the
  dict reference (:func:`~repro.core.anc.reference_engine`) replay the
  same uniform stream on the dense MI dataset (avg degree ~40 — the
  regime where the dict backend's ``common_neighbors`` merge and
  per-edge hash probes dominate) under a
  :class:`~repro.obs.profiler.SamplingProfiler`; the span stack
  attributes every sample to an engine phase.  With equal replay counts
  the per-phase ``est_s`` are directly comparable, and the committed
  gate is **combined ``reinforce`` + ``index_repair`` time >= 5x
  faster** on the array backend.  (``index_repair`` alone plateaus
  around 2-3x: the Dijkstra repair wave is identical code on both
  backends — only its weight/adjacency reads get cheaper.)
* **Dict no-regression floor.**  The dict path is the permanent
  correctness oracle, so it must not have been slowed by the refactor:
  a disarmed (no-profiler) CO replay must still clear a conservative
  throughput floor (``MIN_DICT_ACTS_PER_S``), and the array backend
  must beat the dict backend on the same wall-clock workload.

Results land in ``bench_results/engine_backend_speedup.json``.
"""

import time

import pytest

from repro.bench.reporting import format_table, save_result
from repro.core.anc import ANCParams, make_engine, reference_engine
from repro.obs import MetricsRegistry, Observability, SamplingProfiler, Tracer
from repro.workloads.datasets import load_dataset
from repro.workloads.streams import uniform_stream

TIMESTAMPS = 20
FRACTION = 0.05
HZ = 997.0
PROFILE_DATASET = "MI"
PROFILE_REPLAYS = 3  # identical for both backends: est_s stay comparable
WALL_DATASET = "CO"
HOT_PHASES = ("reinforce", "index_repair")
#: The committed acceptance gate: combined hot-phase speedup.
MIN_HOT_SPEEDUP = 5.0
#: Dict-oracle floor: about half of the 3.6k acts/s the dict path
#: measured on this workload (``wall_acts_per_s`` in the committed
#: ``bench_results/engine_backend_speedup.json``), so machine jitter
#: cannot fail the bench while a real regression will.
MIN_DICT_ACTS_PER_S = 2000.0


PARAMS = ANCParams(rep=2, k=2, seed=0, rescale_every=512, eps=0.25, mu=2)

#: The engine each row of the bench measures.
BUILDERS = {"dict": reference_engine, "array": make_engine}


def _profile_backend(backend: str, batches, graph_loader):
    tracer = Tracer(enabled=True, capacity=4096, sample=1.0)
    obs = Observability(registry=MetricsRegistry(), tracer=tracer)
    profiler = SamplingProfiler(HZ, tracer=tracer)
    # Engines are built outside the profiling window: the gate is about
    # the online path, not index construction.
    engines = [
        BUILDERS[backend]("ANCO", graph_loader(), PARAMS, obs=obs)
        for _ in range(PROFILE_REPLAYS)
    ]
    for engine in engines:
        profiler.start()
        for _, batch in batches:
            engine.process_batch(batch)
        profiler.stop()
    return profiler.report()


def _wall_backend(backend: str, batches, graph) -> float:
    engine = BUILDERS[backend]("ANCO", graph, PARAMS)
    start = time.perf_counter()
    for _, batch in batches:
        engine.process_batch(batch)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def backend_speedup():
    dataset = load_dataset(PROFILE_DATASET)
    stream = uniform_stream(
        dataset.graph, timestamps=TIMESTAMPS, fraction=FRACTION, seed=0
    )
    batches = list(stream.batches_by_timestamp())
    loader = lambda: load_dataset(PROFILE_DATASET).graph  # noqa: E731
    reports = {
        backend: _profile_backend(backend, batches, loader)
        for backend in ("dict", "array")
    }
    phase_rows = []
    hot = {"dict": 0.0, "array": 0.0}
    names = sorted(
        set(reports["dict"]["phases"]) | set(reports["array"]["phases"])
    )
    for name in names:
        d = reports["dict"]["phases"].get(name, {}).get("est_s", 0.0)
        a = reports["array"]["phases"].get(name, {}).get("est_s", 0.0)
        phase_rows.append(
            {
                "phase": name,
                "dict_s": d,
                "array_s": a,
                "speedup": (d / a) if a else float("inf"),
                "gated": name in HOT_PHASES,
            }
        )
        if name in HOT_PHASES:
            hot["dict"] += d
            hot["array"] += a
    hot_speedup = hot["dict"] / hot["array"]

    wall_graph = load_dataset(WALL_DATASET).graph
    wall_stream = uniform_stream(
        wall_graph, timestamps=TIMESTAMPS, fraction=FRACTION, seed=0
    )
    wall_batches = list(wall_stream.batches_by_timestamp())
    acts = len(wall_stream)
    wall = {
        backend: _wall_backend(backend, wall_batches, wall_graph)
        for backend in ("dict", "array")
    }
    return {
        "workload": {
            "profile_dataset": PROFILE_DATASET,
            "wall_dataset": WALL_DATASET,
            "timestamps": TIMESTAMPS,
            "fraction": FRACTION,
            "replays": PROFILE_REPLAYS,
            "hz": HZ,
            "activations_per_wall_replay": acts,
        },
        "phases": phase_rows,
        "hot_phases": list(HOT_PHASES),
        "hot_dict_s": hot["dict"],
        "hot_array_s": hot["array"],
        "hot_speedup": hot_speedup,
        "samples": {b: reports[b]["samples"] for b in reports},
        "wall_s": wall,
        "wall_acts_per_s": {b: acts / wall[b] for b in wall},
        "gates": {
            "min_hot_speedup": MIN_HOT_SPEEDUP,
            "min_dict_acts_per_s": MIN_DICT_ACTS_PER_S,
        },
    }


def test_engine_backend_speedup_committed(benchmark, backend_speedup):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    doc = backend_speedup
    print()
    print(
        format_table(
            doc["phases"],
            ["phase", "dict_s", "array_s", "speedup", "gated"],
            title=(
                f"Engine phases, dict vs array "
                f"(ANCO/{PROFILE_DATASET}, {PROFILE_REPLAYS} replays each)"
            ),
            float_fmt="{:.4f}",
        )
    )
    print(
        f"hot combined ({'+'.join(doc['hot_phases'])}): "
        f"dict={doc['hot_dict_s']:.3f}s array={doc['hot_array_s']:.3f}s "
        f"speedup={doc['hot_speedup']:.2f}x"
    )
    print(
        f"wall ({WALL_DATASET}): "
        + " ".join(
            f"{b}={doc['wall_acts_per_s'][b]:.0f} acts/s" for b in doc["wall_s"]
        )
    )
    save_result("engine_backend_speedup", doc)
    # The ROADMAP item 1 gate: hot phases at least 5x faster.
    assert doc["hot_speedup"] >= MIN_HOT_SPEEDUP, doc["hot_speedup"]
    # Dict oracle did not regress, and array wins on wall-clock too.
    dict_rate = doc["wall_acts_per_s"]["dict"]
    assert dict_rate >= MIN_DICT_ACTS_PER_S, dict_rate
    assert doc["wall_s"]["array"] <= doc["wall_s"]["dict"], doc["wall_s"]
