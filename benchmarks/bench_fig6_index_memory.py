"""Figure 6 — index memory cost vs number of pyramids k.

Reports the nominal index payload (modeled flat-array bytes, excluding
the graph itself, as the paper excludes it) for k ∈ {4, 8, 16} across the
dataset ladder, and beside it the Python heap the index actually holds
(``heap_bytes``: tracemalloc's traced bytes across the constructor, the
graph and the input weights excluded).  The assertions read the model;
the heap column shows what the per-node lists and child sets cost in
this implementation.

Qualitative claims asserted:

* memory grows linearly with k;
* memory is driven by the vertex count (Lemma 7's O(n log² n)): datasets
  with more nodes cost more at fixed k;
* the dataset-to-index size ratio stays within a constant band across
  datasets (the paper reports an average ratio of ~0.53 on its graphs).
"""

import tracemalloc

import pytest

from repro.bench.reporting import format_table, save_result
from repro.index.pyramid import PyramidIndex
from repro.workloads.datasets import load_dataset

DATASETS = ("CO", "CA", "LA", "CM", "DB")
K_VALUES = (4, 8, 16)


def build_traced(graph, weights, k):
    """Build a :class:`PyramidIndex` under tracemalloc; returns it and the
    heap bytes still allocated when the constructor returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = PyramidIndex(graph, weights, k=k, seed=0)
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return index, heap


@pytest.fixture(scope="module")
def rows():
    out = []
    for name in DATASETS:
        data = load_dataset(name)
        weights = {e: 1.0 for e in data.graph.edges()}
        # Model the dataset's own size: 8 bytes per edge endpoint pair.
        dataset_bytes = 8 * data.graph.m
        for k in K_VALUES:
            index, heap = build_traced(data.graph, weights, k)
            out.append(
                {
                    "dataset": name,
                    "n": data.graph.n,
                    "m": data.graph.m,
                    "k": k,
                    "index_bytes": index.memory_cost(),
                    "heap_bytes": heap,
                    "dataset_bytes": dataset_bytes,
                }
            )
    return out


def test_fig6_index_memory(benchmark, rows):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            ["dataset", "n", "m", "k", "index_bytes", "heap_bytes", "dataset_bytes"],
            title="Figure 6: Index Memory Cost vs pyramids k",
        )
    )
    save_result("fig6_index_memory", {"rows": rows})

    by = {(r["dataset"], r["k"]): r["index_bytes"] for r in rows}
    for name in DATASETS:
        # Linear in k (the shared weight table is the only sublinear part).
        ratio = by[(name, 16)] / by[(name, 4)]
        assert 2.5 < ratio < 4.5, (name, ratio)
    # More vertices => more memory at fixed k.
    sizes = [(load_dataset(n).graph.n, by[(n, 4)]) for n in DATASETS]
    sizes.sort()
    memory_in_n_order = [b for _, b in sizes]
    assert memory_in_n_order == sorted(memory_in_n_order)


def test_dataset_to_index_ratio_band(benchmark, rows):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratios = [
        r["dataset_bytes"] / r["index_bytes"] for r in rows if r["k"] == 4
    ]
    # A constant band: no dataset is wildly off the pack (within 10x of
    # the mean), mirroring the paper's stable ~0.53 average ratio.
    mean = sum(ratios) / len(ratios)
    for ratio in ratios:
        assert mean / 10 < ratio < mean * 10


def test_benchmark_memory_accounting(benchmark):
    data = load_dataset("CA")
    weights = {e: 1.0 for e in data.graph.edges()}
    index = PyramidIndex(data.graph, weights, k=4, seed=0)
    total = benchmark(index.memory_cost)
    assert total > 0
