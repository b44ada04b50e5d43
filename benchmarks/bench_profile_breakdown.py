"""Cost-model profile — where the per-activation time actually goes.

The paper's cost model decomposes an online activation into (i) the
activeness/σ bookkeeping (O(1), Lemma 1), (ii) the trigger-edge
reinforcement (O(|N(u)|+|N(v)|), Lemma 5), and (iii) the bounded repair
of all k·log n partitions (Lemma 12).  This bench measures each stage in
isolation on the same stream and asserts the model's ordering:

* stage (i) is cheaper than the index repair (the global decay
  factor's whole point);
* stage (iii) — the index repair — costs more than half of the other
  two stages combined at k=4, and is linear in k, which is why Lemma
  13's parallelism targets it and why k trades quality against update
  cost.
"""

import time

import pytest

from repro.bench.reporting import format_table, save_result
from repro.core.metric import SimilarityFunction
from repro.index.pyramid import PyramidIndex
from repro.workloads.datasets import load_dataset

ACTIVATIONS = 400


@pytest.fixture(scope="module")
def profile():
    data = load_dataset("CA")
    graph = data.graph
    stream = list(data.default_stream(timestamps=20, fraction=0.05))[:ACTIVATIONS]

    # Stage (i): activeness + strengths only.
    metric_a = SimilarityFunction(graph, rep=1, eps=0.25, mu=2)
    start = time.perf_counter()
    for act in stream:
        metric_a.on_activation_activeness_only(act)
    t_activeness = time.perf_counter() - start

    # Stage (i)+(ii): full metric update, no index attached.
    metric_b = SimilarityFunction(graph, rep=1, eps=0.25, mu=2)
    start = time.perf_counter()
    for act in stream:
        metric_b.on_activation(act)
    t_metric = time.perf_counter() - start

    # Stage (iii): replay the weight changes into an index alone.
    metric_c = SimilarityFunction(graph, rep=1, eps=0.25, mu=2)
    changes = []
    metric_c.add_weight_listener(lambda u, v, w: changes.append((u, v, w)))
    for act in stream:
        metric_c.on_activation(act)
    index = PyramidIndex(graph, SimilarityFunction(graph, rep=1, eps=0.25, mu=2).snapshot_weights(), k=4, seed=0)
    start = time.perf_counter()
    for u, v, w in changes:
        index.update_edge_weight(u, v, w)
    t_index = time.perf_counter() - start

    return {
        "activeness_ms": 1000 * t_activeness / len(stream),
        "reinforcement_ms": 1000 * (t_metric - t_activeness) / len(stream),
        "index_repair_ms": 1000 * t_index / len(stream),
        "activations": len(stream),
    }


def test_profile_breakdown(benchmark, profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        {"stage": "activeness + sigma (Lemma 1)", "ms_per_activation": profile["activeness_ms"]},
        {"stage": "local reinforcement (Lemma 5)", "ms_per_activation": profile["reinforcement_ms"]},
        {"stage": "index repair x k*log n (Lemma 12)", "ms_per_activation": profile["index_repair_ms"]},
    ]
    print()
    print(
        format_table(
            rows,
            ["stage", "ms_per_activation"],
            title="Per-activation cost breakdown (CA stand-in, k=4)",
            float_fmt="{:.4f}",
        )
    )
    save_result("cost_model_breakdown", profile)
    assert profile["activeness_ms"] < profile["index_repair_ms"]
    # The index repair costs more than half of the other two combined.
    assert profile["index_repair_ms"] > 0.5 * (
        profile["activeness_ms"] + profile["reinforcement_ms"]
    )


def test_index_cost_scales_with_k(benchmark):
    """The repair stage is linear in k (k independent pyramids)."""
    data = load_dataset("CA")
    metric = SimilarityFunction(data.graph, rep=1, eps=0.25, mu=2)
    changes = []
    metric.add_weight_listener(lambda u, v, w: changes.append((u, v, w)))
    for act in list(data.default_stream(timestamps=10, fraction=0.05))[:200]:
        metric.on_activation(act)
    base_weights = SimilarityFunction(data.graph, rep=1, eps=0.25, mu=2).snapshot_weights()

    def repair_time(k: int) -> float:
        index = PyramidIndex(data.graph, base_weights, k=k, seed=0)
        start = time.perf_counter()
        for u, v, w in changes:
            index.update_edge_weight(u, v, w)
        return time.perf_counter() - start

    t2 = min(repair_time(2) for _ in range(2))
    t8 = min(repair_time(8) for _ in range(2))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratio = t8 / t2
    assert 2.0 < ratio < 10.0, ratio
