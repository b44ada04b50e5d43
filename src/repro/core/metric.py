"""The similarity function ``S_t`` and the distance metric (Section IV-C).

:class:`SimilarityFunction` assembles the whole Section IV pipeline behind
one object:

* a shared :class:`~repro.core.decay.DecayClock` (global decay factor);
* the incrementally maintained activeness ``a_t`` (Equation 1);
* the active similarity σ with node roles;
* the PosM similarity store ``S_t`` with local reinforcement;
* the NegM reciprocal weights ``S_t^{-1}`` that the distance metric and
  the pyramid index consume.

Initialization (t = 0) follows the paper exactly: set ``S_0 = 1`` on every
edge, then run ``1 + rep`` reinforcement sweeps over all of ``E`` — the
stream "initialized with activations over all edges" (step ii) plus
``rep`` appended repetitions (step iii).  The initial edge activeness is
uniform 1, which makes σ the plain Jaccard similarity at t = 0
(activeness-weighting with equal weights; the NeuM property iii the paper
requires of the initializer).

Per-activation update (t > 0):

1. advance the clock (all decay is implicit — Definition 1);
2. bump the activeness of the trigger edge (``a* += 1/g``);
3. apply local reinforcement with the trigger edge (Lemma 5 cost);
4. notify listeners (the index) of the changed edge weight;
5. count the activation toward the batched rescale.

The *attraction strength* of two nodes is ``1 / dist(u, v)`` under edge
weights ``S_t^{-1}`` — the maximum over paths of the harmonic mean of edge
similarities divided by hop count, which is what lets a plain shortest
path propagate the local coherence (the paper's answer to Attractor's 50
iterations).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..graph.graph import Edge, Graph
from ..graph.traversal import INF, dijkstra, shortest_path
from ..obs.trace import NULL_TRACER, Tracer
from .activation import Activation
from .arrays import (
    ArrayActiveSimilarity,
    ArrayEdgeValues,
    ArrayLocalReinforcement,
    EdgeSpace,
)
from .decay import Activeness, AnchoredEdgeValues, DecayClock, ValueKind
from .reinforcement import SIMILARITY_CAP, SIMILARITY_FLOOR, LocalReinforcement
from .similarity import ActiveSimilarity

__all__ = ["SimilarityFunction"]

#: Callback signature for weight-change notifications:
#: ``listener(u, v, new_anchored_weight)`` with ``u < v``.
WeightListener = Callable[[int, int, float], None]


class SimilarityFunction:
    """``S_t`` over an activation network, maintained under the global decay.

    Parameters
    ----------
    graph:
        Relation network ``G(V, E)``.
    lam:
        Decay factor λ.
    eps, mu:
        Active-neighbor threshold ε and core threshold μ (Section IV-B).
    rep:
        Number of reinforcement repetitions for the ``S_0`` initialization
        (default 7, the paper's default; 0 still performs the single
        initial sweep of step ii).
    rescale_every:
        Batched-rescale period of the shared clock.
    initialize:
        If False the caller drives :meth:`initialize` manually (used by
        tests that inspect the pre-reinforcement state).
    reference:
        Build the dict-of-dicts reference stores (the correctness oracle
        that :func:`repro.core.anc.reference_engine` wires up) instead of
        the structure-of-arrays stores over a shared
        :class:`~repro.core.arrays.EdgeSpace` that every serving engine
        runs.  Both produce bitwise identical values; see
        ``docs/engine-internals.md``.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        lam: float = 0.1,
        eps: float = 0.3,
        mu: int = 3,
        rep: int = 7,
        rescale_every: int = 1024,
        floor: float = SIMILARITY_FLOOR,
        cap: float = SIMILARITY_CAP,
        initialize: bool = True,
        reference: bool = False,
    ) -> None:
        if rep < 0:
            raise ValueError(f"rep must be >= 0, got {rep}")
        self.graph = graph
        self.rep = rep
        self.clock = DecayClock(lam, rescale_every=rescale_every)
        #: Shared edge-id interning table (``None`` on the reference
        #: stores, so callers can feature-test with one attribute read).
        self.space: Optional[EdgeSpace] = None
        if not reference:
            self.space = EdgeSpace(graph)
            store = ArrayEdgeValues(
                self.clock, ValueKind.POSITIVE, self.space, name="activeness"
            )
            self.activeness = Activeness(self.clock, store=store)
            self.sigma: ActiveSimilarity = ArrayActiveSimilarity(
                graph, self.activeness, eps=eps, mu=mu, space=self.space
            )
            self.clock.add_rescale_listener(self.sigma.on_rescale)
            self.similarity: AnchoredEdgeValues = ArrayEdgeValues(
                self.clock, ValueKind.POSITIVE, self.space, name="S_t"
            )
            self.reinforcement: LocalReinforcement = ArrayLocalReinforcement(
                graph,
                self.sigma,
                self.similarity,
                floor=floor,
                cap=cap,
                space=self.space,
            )
        else:
            self.activeness = Activeness(self.clock)
            self.sigma = ActiveSimilarity(graph, self.activeness, eps=eps, mu=mu)
            self.clock.add_rescale_listener(self.sigma.on_rescale)
            self.similarity = self.clock.register(ValueKind.POSITIVE, name="S_t")
            self.reinforcement = LocalReinforcement(
                graph, self.sigma, self.similarity, floor=floor, cap=cap
            )
        self._weight_listeners: List[WeightListener] = []
        #: Span tracer for the per-activation phase breakdown; the inert
        #: default costs one attribute check per activation (engines
        #: swap in a live tracer via ``attach_obs``).
        self.tracer: Tracer = NULL_TRACER
        self._initialized = False
        if initialize:
            self.initialize()

    # ------------------------------------------------------------------
    # Initialization (t = 0)
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Set ``a_0 = 1`` and ``S_0 = 1`` everywhere, then reinforce.

        Runs ``1 + rep`` full sweeps of local reinforcement at t = 0 (the
        paper's init stream: one pass over all edges plus ``rep``
        repetitions).  Idempotent-guarded; call once.
        """
        if self._initialized:
            raise RuntimeError("SimilarityFunction is already initialized")
        for u, v in self.graph.edges():
            self.activeness.store.set_anchored(u, v, 1.0)
            self.similarity.set_anchored(u, v, 1.0)
        self.sigma._rebuild_strengths()
        for _ in range(1 + self.rep):
            self.reinforcement.sweep()
        self._initialized = True

    # ------------------------------------------------------------------
    # Stream updates
    # ------------------------------------------------------------------
    def add_weight_listener(self, listener: WeightListener) -> None:
        """Subscribe to anchored-weight changes (the pyramid index does)."""
        self._weight_listeners.append(listener)

    def on_activation(self, act: Activation) -> float:
        """Process one activation; returns the new anchored similarity.

        Touches only ``N(u) ∪ N(v)`` (Lemma 5) and costs O(1) amortized
        for the decay bookkeeping (Lemma 1).
        """
        if self.tracer.enabled:
            return self._on_activation_traced(act)
        u, v = act.u, act.v
        _, delta = self.activeness.on_activation(u, v, act.t)
        self.sigma.on_activation_delta(u, v, delta)
        new_anchored = self.reinforcement.apply(u, v)
        self._notify(u, v, 1.0 / new_anchored)
        self.clock.note_activation()
        return new_anchored

    def _on_activation_traced(self, act: Activation) -> float:
        """The :meth:`on_activation` pipeline under phase spans.

        Identical state transitions; the only additions are the span
        context managers, so traces answer "where does one activation's
        time go" (activeness vs reinforcement vs index repair vs decay
        bookkeeping) without perturbing results.
        """
        tracer = self.tracer
        u, v = act.u, act.v
        with tracer.span("activation", u=u, v=v):
            with tracer.span("activeness"):
                _, delta = self.activeness.on_activation(u, v, act.t)
                self.sigma.on_activation_delta(u, v, delta)
            with tracer.span("reinforce"):
                new_anchored = self.reinforcement.apply(u, v)
            with tracer.span("index_repair"):
                self._notify(u, v, 1.0 / new_anchored)
            with tracer.span("decay_tick"):
                self.clock.note_activation()
        return new_anchored

    def on_activation_activeness_only(self, act: Activation) -> None:
        """Absorb an activation into the activeness without touching ``S_t``.

        This is the cheap bookkeeping path of the offline engine (ANCF):
        the activeness and node strengths stay exact along the stream, and
        the similarity is recomputed wholesale at each snapshot via
        :meth:`recompute`.
        """
        u, v = act.u, act.v
        _, delta = self.activeness.on_activation(u, v, act.t)
        self.sigma.on_activation_delta(u, v, delta)
        self.clock.note_activation()

    def recompute(self) -> None:
        """Recompute ``S_t`` from scratch against the current activeness.

        Resets every anchored similarity to 1 and runs ``1 + rep``
        reinforcement sweeps — the ANCF per-snapshot recomputation.  Does
        *not* notify weight listeners; the caller is expected to rebuild
        its index from :meth:`snapshot_weights` (a full rebuild is the
        point of the offline baseline).
        """
        for u, v in self.graph.edges():
            self.similarity.set_anchored(u, v, 1.0)
        for _ in range(1 + self.rep):
            self.reinforcement.sweep()

    def reinforce_all(self) -> None:
        """Full reinforcement sweep over ``E`` (ANCOR's periodic refresh).

        Every edge weight may change, so every edge is re-notified.
        """
        self.reinforcement.sweep()
        for u, v in self.graph.edges():
            self._notify(u, v, 1.0 / self.similarity.anchored(u, v))

    def _notify(self, u: int, v: int, new_weight: float) -> None:
        for listener in self._weight_listeners:
            listener(u, v, new_weight)

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def value(self, u: int, v: int) -> float:
        """Current (decayed) similarity ``S_t(e)``."""
        return self.similarity.actual(u, v)

    def anchored_value(self, u: int, v: int) -> float:
        """Anchored similarity ``S*_t(e)``."""
        return self.similarity.anchored(u, v)

    def weight(self, u: int, v: int) -> float:
        """Current reciprocal weight ``S_t^{-1}(e)`` (NegM, Lemma 10)."""
        return 1.0 / self.value(u, v)

    def weight_fn(self) -> Callable[[int, int], float]:
        """Symmetric anchored-weight function for the traversal module."""

        def weight(u: int, v: int) -> float:
            return 1.0 / self.similarity.anchored(u, v)

        return weight

    def snapshot_weights(self) -> Dict[Edge, float]:
        """Anchored reciprocal weights for all edges (index construction)."""
        return {
            key: 1.0 / value for key, value in self.similarity.items_anchored()
        }

    def snapshot_similarities(self) -> Dict[Edge, float]:
        """Anchored similarities for all edges."""
        return dict(self.similarity.items_anchored())

    # ------------------------------------------------------------------
    # Distance metric M_t (Section IV-C)
    # ------------------------------------------------------------------
    def distance(self, u: int, v: int) -> float:
        """``M_t(u, v)``: shortest distance under current ``S_t^{-1}``.

        Exact (runs Dijkstra); the pyramid index answers the clustering
        queries without ever computing this, but the metric itself is part
        of the paper's contribution and is exercised directly by tests and
        the quickstart example.
        """
        dist, _ = dijkstra(self.graph, u, lambda a, b: self.weight(a, b))
        return dist[v]

    def attraction_strength(self, u: int, v: int) -> float:
        """``1 / dist(u, v)`` — the propagated cohesiveness of Section IV-C."""
        d = self.distance(u, v)
        if d == INF:
            return 0.0
        if d == 0.0:
            return INF
        return 1.0 / d

    def strongest_path(self, u: int, v: int) -> Tuple[float, List[int]]:
        """The path realizing the attraction strength, with its strength."""
        d, path = shortest_path(self.graph, u, v, lambda a, b: self.weight(a, b))
        strength = 0.0 if d == INF else (INF if d == 0.0 else 1.0 / d)
        return strength, path
