"""The ANC engines (Section VI "Our Methods"): ANCF, ANCO, ANCOR.

All three share the Section IV metric machinery and the Section V pyramid
index; they differ in *when* the similarity function is reinforced and how
the index is kept current:

* :class:`ANCO` — fully online.  Each activation updates ``S_t`` with one
  local reinforcement on the trigger edge and repairs every Voronoi
  partition with the bounded Update-Decrease/Update-Increase.  Per
  activation cost ``O(Σ_{x∈U'} deg(x))`` (Lemma 12).
* :class:`ANCOR` — ANCO plus a full reinforcement sweep every
  ``reinforce_interval`` time units (default 5, the paper's default),
  trading update time for clustering quality.
* :class:`ANCF` — offline.  Along the stream only the activeness is
  maintained; at each snapshot ``S_t`` is recomputed from scratch with
  ``rep`` reinforcement repetitions and the index is fully rebuilt
  (complexity ``O(k·m + n log n)`` per snapshot).

Every engine exposes the Problem 1 query API through
:attr:`~ANCEngineBase.queries` (a
:class:`~repro.index.clustering.ClusterQueryEngine`) and convenience
delegates ``clusters`` / ``cluster_of`` / ``zoom``.

Every engine runs on the structure-of-arrays stores
(:mod:`repro.core.arrays`, :mod:`repro.index.array_index`).  The
dict-of-dicts classes they subclass are the paper-reference oracle,
reached only through :func:`reference_engine`; the two agree bit for
bit (``docs/engine-internals.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..graph.graph import Graph
from ..index.array_index import ArrayPyramidIndex
from ..index.clustering import ClusterQueryEngine, Clustering
from ..index.pyramid import PyramidIndex
from ..obs.instruments import MetricsRegistry
from ..obs.trace import DISABLED_OBS, Observability
from .activation import Activation, ActivationStream
from .metric import SimilarityFunction

__all__ = [
    "ANCParams",
    "ANCEngineBase",
    "ANCO",
    "ANCOR",
    "ANCF",
    "make_engine",
    "reference_engine",
]


@dataclass(frozen=True)
class ANCParams:
    """Shared knobs of the ANC family (paper Table II defaults in bold).

    lam:
        Decay factor λ (the activation experiments use 0.1; the Twitter
        day trace uses 0.01).
    eps / mu:
        Active-neighbor threshold ε and core threshold μ (graph-dependent
        per the paper; defaults chosen to be reasonable on the synthetic
        stand-ins).
    rep:
        Reinforcement repetitions (**7**).
    k:
        Number of pyramids (**4**).
    support:
        Voting threshold θ (0.7).
    seed:
        RNG seed for pyramid seed sampling.
    rescale_every:
        Batched-rescale period of the decay clock.
    method:
        'power' (the paper's DirectedCluster) or 'even' clustering.
    """

    lam: float = 0.1
    eps: float = 0.3
    mu: int = 3
    rep: int = 7
    k: int = 4
    support: float = 0.7
    seed: int = 0
    rescale_every: int = 1024
    method: str = "power"


class ANCEngineBase:
    """Common wiring: metric + index + query engine over one graph.

    ``_reference`` builds the dict-of-dicts oracle instead of the array
    engine; it is set by :func:`reference_engine` and nothing else.
    """

    def __init__(
        self,
        graph: Graph,
        params: Optional[ANCParams] = None,
        *,
        obs: Optional[Observability] = None,
        _reference: bool = False,
    ) -> None:
        self.graph = graph
        self.params = params or ANCParams()
        p = self.params
        self.metric = SimilarityFunction(
            graph,
            lam=p.lam,
            eps=p.eps,
            mu=p.mu,
            rep=p.rep,
            rescale_every=p.rescale_every,
            reference=_reference,
        )
        if self.metric.space is not None:
            self.index: PyramidIndex = ArrayPyramidIndex(
                graph,
                self.metric.snapshot_weights(),
                k=p.k,
                seed=p.seed,
                support=p.support,
                space=self.metric.space,
            )
        else:
            self.index = PyramidIndex(
                graph,
                self.metric.snapshot_weights(),
                k=p.k,
                seed=p.seed,
                support=p.support,
            )
        self.metric.clock.add_rescale_listener(self.index.on_rescale)
        self.queries = ClusterQueryEngine(self.index, method=p.method)
        #: Activations processed so far.
        self.activations_processed = 0
        self._init_obs(obs)

    # -- observability -----------------------------------------------------
    def _init_obs(self, obs: Optional[Observability]) -> None:
        """Set up the observability binding (restore paths call this too)."""
        self.obs = DISABLED_OBS
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs: Observability) -> None:
        """Bind an :class:`~repro.obs.trace.Observability` bundle.

        Pure wiring, not a state mutation: the engine's components start
        tracing into ``obs.tracer`` and the engine's operational stats
        are registered as gauges in ``obs.registry`` (late-binding reads
        of live attributes — registering costs nothing on the hot path).
        With ``obs.enabled`` false only the tracer handle is threaded
        through, keeping the disabled no-op fast path.
        """
        self.obs = obs
        self.metric.tracer = obs.tracer
        self.queries.bind_obs(obs)
        if obs.enabled:
            self._register_gauges(obs.registry)

    def _register_gauges(self, registry: MetricsRegistry) -> None:
        """Fold the :meth:`stats` figures into a metrics registry."""
        registry.gauge(
            "engine_activations", lambda: float(self.activations_processed)
        )
        registry.gauge("engine_stream_time", lambda: self.metric.clock.now)
        registry.gauge(
            "engine_rescales", lambda: float(self.metric.clock.rescale_count)
        )
        registry.gauge("index_updates", lambda: float(self.index.update_count))
        registry.gauge("index_touched", lambda: float(self.index.total_touched))
        registry.gauge(
            "index_update_increases", lambda: float(self.index.update_increases)
        )
        registry.gauge(
            "index_update_decreases", lambda: float(self.index.update_decreases)
        )
        for level in range(1, self.index.num_levels + 1):
            registry.gauge(
                f"index_level{level}_touched",
                lambda l=level: float(self.index.touched_by_level.get(l, 0)),
            )
            registry.gauge(
                f"index_level{level}_repairs",
                lambda l=level: float(self.index.repairs_by_level.get(l, 0)),
            )

    # -- stream ingestion (overridden per engine) -------------------------
    def process(self, act: Activation) -> None:
        """Absorb one activation."""
        raise NotImplementedError

    def process_batch(self, batch: Sequence[Activation]) -> None:
        """Absorb a batch sharing (or advancing through) timestamps."""
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span("process_batch", size=len(batch)):
                self._process_batch(batch)
        else:
            self._process_batch(batch)

    def _process_batch(self, batch: Sequence[Activation]) -> None:
        for act in batch:
            self.process(act)
        if batch:
            self.on_batch_end(batch[-1].t)

    def process_stream(self, stream: ActivationStream) -> None:
        """Absorb an entire stream, batch by timestamp."""
        for _, batch in stream.batches_by_timestamp():
            self.process_batch(batch)

    def on_batch_end(self, t: float) -> None:
        """Hook after each timestamp batch (ANCOR reinforces here)."""

    # -- queries (Problem 1) -----------------------------------------------
    def clusters(self, level: Optional[int] = None) -> Clustering:
        """All clusters (default granularity: ``Θ(√n)`` clusters)."""
        return self.queries.clusters(level)

    def cluster_of(self, v: int, level: Optional[int] = None) -> List[int]:
        """Local cluster query for node ``v``."""
        return self.queries.cluster_of(v, level)

    def zoom_in(self, level: int) -> int:
        """Next finer granularity level."""
        return self.queries.zoom_in(level)

    def zoom_out(self, level: int) -> int:
        """Next coarser granularity level."""
        return self.queries.zoom_out(level)

    @property
    def now(self) -> float:
        """Current stream time."""
        return self.metric.clock.now

    def stats(self) -> dict:
        """Operational snapshot for observability dashboards and tests.

        Pure reads; safe to call at any time.  Keys:

        * ``activations`` — activations processed;
        * ``now`` / ``anchor`` — stream time and decay anchor ``t*``;
        * ``rescales`` — batched rescales run;
        * ``index_updates`` / ``index_touched`` — weight updates
          dispatched to the pyramids and the cumulative touched-node
          count (the Lemma 12 budget actually spent);
        * ``index_update_increases`` / ``index_update_decreases`` —
          Update-Increase vs Update-Decrease dispatch counts;
        * ``index_touched_by_level`` / ``index_repairs_by_level`` — the
          per-granularity-level repair cost split;
        * ``levels`` / ``pyramids`` — index shape;
        * ``roles`` — current core / p-core / periphery counts.
        """
        from .similarity import NodeRole

        roles = self.metric.sigma.role_counts()
        return {
            "activations": self.activations_processed,
            "now": self.metric.clock.now,
            "anchor": self.metric.clock.anchor,
            "rescales": self.metric.clock.rescale_count,
            "index_updates": self.index.update_count,
            "index_touched": self.index.total_touched,
            "index_update_increases": self.index.update_increases,
            "index_update_decreases": self.index.update_decreases,
            "index_touched_by_level": dict(sorted(self.index.touched_by_level.items())),
            "index_repairs_by_level": dict(sorted(self.index.repairs_by_level.items())),
            "levels": self.index.num_levels,
            "pyramids": self.index.k,
            "roles": {
                "core": roles[NodeRole.CORE],
                "p_core": roles[NodeRole.P_CORE],
                "periphery": roles[NodeRole.PERIPHERY],
            },
        }


class ANCO(ANCEngineBase):
    """Fully online ANC: per-activation reinforcement + bounded index repair.

    The weight listener wiring makes each activation flow as:
    activeness bump → trigger-edge reinforcement → index
    Update-Decrease/Increase on the changed weight — the end-to-end online
    path whose amortized cost Table IV reports.
    """

    def __init__(
        self,
        graph: Graph,
        params: Optional[ANCParams] = None,
        *,
        obs: Optional[Observability] = None,
        _reference: bool = False,
    ) -> None:
        super().__init__(graph, params, obs=obs, _reference=_reference)
        self._wire_updates()

    def _wire_updates(self) -> None:
        """Subscribe the index's repair to weight changes.

        Split out of ``__init__`` because engine restoration
        (:func:`repro.service.snapshots.restore_engine`) rebuilds the
        index from disk and must re-wire exactly this.
        """
        self.metric.add_weight_listener(self.index.update_edge_weight)

    def process(self, act: Activation) -> None:
        self.metric.on_activation(act)
        self.activations_processed += 1


class ANCOR(ANCO):
    """ANCO with periodic full reinforcement (the paper's interval: 5).

    ``reinforce_interval`` is measured in stream time units; the sweep
    runs at batch boundaries, so with the experiments' one-batch-per-
    timestamp streams it fires every 5 timestamps.
    """

    def __init__(
        self,
        graph: Graph,
        params: Optional[ANCParams] = None,
        *,
        reinforce_interval: float = 5.0,
        obs: Optional[Observability] = None,
        _reference: bool = False,
    ) -> None:
        if reinforce_interval <= 0:
            raise ValueError(f"reinforce_interval must be positive, got {reinforce_interval}")
        super().__init__(graph, params, obs=obs, _reference=_reference)
        self.reinforce_interval = reinforce_interval
        self._last_reinforce = 0.0

    def on_batch_end(self, t: float) -> None:
        if t - self._last_reinforce >= self.reinforce_interval:
            with self.obs.tracer.span("reinforce_all"):
                self.metric.reinforce_all()
            self._last_reinforce = t


class ANCF(ANCEngineBase):
    """Offline ANC: per-snapshot similarity recomputation + index rebuild.

    Along the stream only the activeness is maintained (cheap).  Queries
    go through :meth:`refresh`, which recomputes ``S_t`` with ``rep``
    reinforcement repetitions against the current activeness and rebuilds
    every Voronoi partition — the offline recomputation whose amortized
    cost Table IV's top half reports.
    """

    def __init__(
        self,
        graph: Graph,
        params: Optional[ANCParams] = None,
        *,
        obs: Optional[Observability] = None,
        _reference: bool = False,
    ) -> None:
        super().__init__(graph, params, obs=obs, _reference=_reference)
        self._dirty = False

    def process(self, act: Activation) -> None:
        self.metric.on_activation_activeness_only(act)
        self.activations_processed += 1
        self._dirty = True

    def refresh(self) -> None:
        """Recompute ``S_t`` and rebuild the index (one snapshot)."""
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span("refresh"):
                self._refresh()
        else:
            self._refresh()
        self._dirty = False

    def _refresh(self) -> None:
        tracer = self.obs.tracer
        with tracer.span("recompute_similarity"):
            self.metric.recompute()
        with tracer.span("rebuild_index"):
            self.index.set_all_weights(self.metric.snapshot_weights())
            self.index.rebuild()

    def on_batch_end(self, t: float) -> None:
        # The offline method recomputes per snapshot; tests/benchmarks can
        # also call refresh() explicitly to time it in isolation.
        self.refresh()

    def clusters(self, level: Optional[int] = None) -> Clustering:
        if self._dirty:
            self.refresh()
        return super().clusters(level)

    def cluster_of(self, v: int, level: Optional[int] = None) -> List[int]:
        if self._dirty:
            self.refresh()
        return super().cluster_of(v, level)


def _engine_class(name: str) -> Callable[..., ANCEngineBase]:
    table = {"ANCF": ANCF, "ANCO": ANCO, "ANCOR": ANCOR}
    try:
        return table[name.upper()]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; expected one of {sorted(table)}") from None


def make_engine(
    name: str, graph: Graph, params: Optional[ANCParams] = None, **kwargs: object
) -> ANCEngineBase:
    """Factory by paper name: 'ANCF', 'ANCO' or 'ANCOR'."""
    return _engine_class(name)(graph, params, **kwargs)


def reference_engine(
    name: str, graph: Graph, params: Optional[ANCParams] = None, **kwargs: object
) -> ANCEngineBase:
    """The paper-reference oracle for :func:`make_engine`'s engine.

    Same class, same parameters, but built on the dict-of-dicts stores
    (``core/decay.py``, ``core/similarity.py``, ``core/reinforcement.py``,
    ``index/pyramid.py``) that the array engine subclasses.  It produces
    bit-for-bit the same similarities, clusters and checkpoint bytes,
    which is what the parity tests, the chaos oracles and the backend
    bench diff against.  No serving path builds one.
    """
    return _engine_class(name)(graph, params, _reference=True, **kwargs)
