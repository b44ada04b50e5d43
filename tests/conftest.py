"""Shared fixtures: small canonical graphs and pre-built engines.

Also the suite's hygiene plumbing:

* every test runs with the **global** :mod:`random` state pinned to a
  fixed seed and restored afterwards, so tests that (accidentally or
  deliberately) touch the module-level RNG neither depend on execution
  order nor perturb later tests — the suite is ``pytest -p randomly``
  / ``-p no:randomly`` indifferent;
* the ``chaos`` marker gates the fault-injection matrix
  (``tests/chaos/``): those tests only run under ``--chaos`` or
  ``ANC_CHAOS=1``, keeping the tier-1 suite fast;
* the ``grid`` marker gates the same way (``--grid`` or ``ANC_GRID=1``)
  the fixed 5,010-input rescale grid (``tests/test_rescale_grid.py``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.anc import ANCO, ANCParams
from repro.graph.generators import barbell_graph, grid_graph, path_graph, planted_partition
from repro.graph.graph import Graph


#: Slow test families run only on request: marker -> its environment switch.
GATED = {"chaos": "ANC_CHAOS", "grid": "ANC_GRID"}


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--chaos",
        action="store_true",
        default=False,
        help="run the chaos (fault-injection matrix) tests",
    )
    parser.addoption(
        "--grid",
        action="store_true",
        default=False,
        help="run the fixed rescale grid against a fresh rebuild",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection matrix tests (slow; enable with --chaos or ANC_CHAOS=1)",
    )
    config.addinivalue_line(
        "markers",
        "grid: the 5,010-input rescale grid (slow; enable with --grid or ANC_GRID=1)",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: "list[pytest.Item]"
) -> None:
    for marker, variable in GATED.items():
        if config.getoption(f"--{marker}") or os.environ.get(variable) == "1":
            continue
        skip = pytest.mark.skip(reason=f"{marker} tests need --{marker} or {variable}=1")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


@pytest.fixture(autouse=True)
def pinned_global_random():
    """Pin the module-level RNG per test; restore the state afterwards."""
    state = random.getstate()
    random.seed(0xA17C)
    try:
        yield
    finally:
        random.setstate(state)


@pytest.fixture
def triangle() -> Graph:
    """K3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square_with_diagonal() -> Graph:
    """4-cycle plus one diagonal."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


@pytest.fixture
def barbell() -> Graph:
    """Two K5s joined by a single edge — the canonical 2-cluster graph."""
    return barbell_graph(5, bridge=1)


@pytest.fixture
def small_planted():
    """60-node planted partition with 4 communities (graph, labels)."""
    return planted_partition(60, 4, p_in=0.5, p_out=0.02, seed=11)


@pytest.fixture
def medium_planted():
    """150-node planted partition with 6 communities (graph, labels)."""
    return planted_partition(150, 6, p_in=0.4, p_out=0.01, seed=5)


@pytest.fixture
def grid_5x5() -> Graph:
    return grid_graph(5, 5)


@pytest.fixture
def path10() -> Graph:
    return path_graph(10)


@pytest.fixture
def paper_figure2_graph() -> Graph:
    """A 13-node graph in the spirit of the paper's Figure 2 example."""
    edges = [
        (0, 1), (0, 2), (1, 2),          # v1,v2,v3 triangle
        (0, 3), (3, 12),                 # v4 and v13 hang off v1
        (3, 6), (6, 7),                  # v4-v7-v8 chain
        (4, 5), (5, 8), (5, 9), (4, 8),  # v5,v6,v9,v10 blob
        (5, 9), (8, 9),
        (7, 10), (7, 11), (10, 11),      # v8,v11,v12 triangle
        (2, 4), (9, 10),                 # cross links
    ]
    return Graph(13, edges)


@pytest.fixture
def quick_params() -> ANCParams:
    """Cheap ANC parameters for unit tests."""
    return ANCParams(rep=1, k=2, seed=0, rescale_every=64)


@pytest.fixture
def small_engine(small_planted, quick_params) -> ANCO:
    graph, _ = small_planted
    return ANCO(graph, quick_params)
