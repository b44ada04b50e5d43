"""The fixed rescale grid: the online index equals a fresh rebuild.

Stream seeds 0, 3, …, 498 × ``n_acts`` ∈ {28, 40} × ``rescale_every``
2–16 — 5,010 inputs — each checked as
``tests/test_properties.py::test_online_index_equals_fresh_rebuild``
checks its random draws, on the array engine and on the dict reference.
It guards two fixes: a rescale that rounds two distances to a tie
(the index scales by a power of two) and a rescale out of range (the
clock caps its factor).  Gated behind the ``grid`` marker (``--grid`` or
``ANC_GRID=1``); CI runs it as its own step.
"""

from __future__ import annotations

import random

import pytest

from repro.core.activation import Activation
from repro.core.anc import ANCO, ANCParams, reference_engine
from repro.graph.generators import planted_partition
from repro.index.pyramid import PyramidIndex

pytestmark = pytest.mark.grid

STREAM_SEEDS = range(0, 500, 3)
CHECK_AT = (28, 40)
RESCALE_EVERY = range(2, 17)


def mismatch(engine, graph):
    """Why the engine's index differs from a fresh rebuild, or ``None``."""
    fresh = PyramidIndex(graph, engine.index.weights_view(), k=2, seed=1)
    for p_inc, p_ref in zip(engine.index.partitions(), fresh.partitions()):
        if p_inc.seed != p_ref.seed:
            return "seeds differ"
        for v in graph.nodes():
            if p_inc.dist[v] != pytest.approx(p_ref.dist[v], rel=1e-6):
                return f"dist of node {v} differs"
    return None


@pytest.mark.parametrize("reference", [False, True], ids=["array", "dict"])
def test_rescale_grid_equals_fresh_rebuild(reference):
    graph, _ = planted_partition(40, 3, p_in=0.4, p_out=0.05, seed=7)
    edges = list(graph.edges())
    failures = []
    for rescale_every in RESCALE_EVERY:
        params = ANCParams(rep=0, k=2, seed=1, rescale_every=rescale_every, mu=2)
        for stream_seed in STREAM_SEEDS:
            engine = (
                reference_engine("ANCO", graph, params) if reference else ANCO(graph, params)
            )
            rng = random.Random(stream_seed)
            t = 0.0
            # n_acts = 28 is a prefix of n_acts = 40: one stream checks both.
            for n_acts in range(1, max(CHECK_AT) + 1):
                t += rng.random()
                e = rng.choice(edges)
                engine.process(Activation(e[0], e[1], t))
                if n_acts in CHECK_AT:
                    why = mismatch(engine, graph)
                    if why is not None:
                        failures.append((stream_seed, n_acts, rescale_every, why))
    assert not failures, failures
