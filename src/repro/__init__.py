"""repro — reproduction of "Clustering Activation Networks" (ICDE 2022).

A pure-Python library for clustering *activation networks*: graphs whose
edges are repeatedly re-activated by a timestamped stream, with edge
activeness decaying exponentially between activations.  The package
implements the paper's full pipeline —

* the **global decay factor** that makes the time-decay scheme
  maintainable at O(1) per activation (:mod:`repro.core.decay`);
* the **local-reinforcement similarity** ``S_t`` combining structural
  cohesiveness with activeness (:mod:`repro.core.reinforcement`,
  :mod:`repro.core.metric`);
* the **pyramid index** of Voronoi partitions with bounded incremental
  updates (:mod:`repro.index`);
* the **ANC engines** — offline ANCF, online ANCO, hybrid ANCOR
  (:mod:`repro.core.anc`);
* five baseline clustering algorithms, quality metrics, synthetic dataset
  and stream generators, and a benchmark harness reproducing every table
  and figure of the paper's evaluation (:mod:`repro.baselines`,
  :mod:`repro.evalm`, :mod:`repro.workloads`, :mod:`repro.bench`).

Quickstart::

    from repro import ANCO, ANCParams, Activation
    from repro.workloads.datasets import load_dataset

    data = load_dataset("CO")                    # synthetic stand-in
    engine = ANCO(data.graph, ANCParams(lam=0.1, k=4))
    for act in data.default_stream():
        engine.process(act)
    clusters = engine.clusters()                 # Θ(√n) granularity
    mine = engine.cluster_of(v=0)                # local query
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from .core import (
        ANCF,
        ANCO,
        ANCOR,
        ANCParams,
        Activation,
        ActivationStream,
        ActiveSimilarity,
        Activeness,
        DecayClock,
        NodeRole,
        SimilarityFunction,
        ValueKind,
        make_engine,
    )
    from .graph import Graph, GraphBuilder, edge_key
    from .index import ClusterQueryEngine, PyramidIndex, VoronoiPartition
    from .monitor import ClusterChange, ClusterWatcher

__version__ = "1.0.0"

__all__ = [
    "ANCF",
    "ANCO",
    "ANCOR",
    "ANCParams",
    "Activation",
    "ActivationStream",
    "ActiveSimilarity",
    "Activeness",
    "DecayClock",
    "NodeRole",
    "SimilarityFunction",
    "ValueKind",
    "make_engine",
    "Graph",
    "GraphBuilder",
    "edge_key",
    "ClusterQueryEngine",
    "PyramidIndex",
    "VoronoiPartition",
    "ClusterChange",
    "ClusterWatcher",
    "__version__",
]


def _lazy(package: str, exports: Mapping[str, Sequence[str]]) -> Callable[[str], object]:
    """A PEP 562 module ``__getattr__`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the
    documented names it defines.  A name is imported on first use and
    then bound on the package, so a process loads only the modules whose
    names it touches: a read router never loads the engine.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def getattr_(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return getattr_


__getattr__ = _lazy(
    __name__,
    {
        ".core": (
            "ANCF",
            "ANCO",
            "ANCOR",
            "ANCParams",
            "Activation",
            "ActivationStream",
            "ActiveSimilarity",
            "Activeness",
            "DecayClock",
            "NodeRole",
            "SimilarityFunction",
            "ValueKind",
            "make_engine",
        ),
        ".graph": ("Graph", "GraphBuilder", "edge_key"),
        ".index": ("ClusterQueryEngine", "PyramidIndex", "VoronoiPartition"),
        ".monitor": ("ClusterChange", "ClusterWatcher"),
    },
)
