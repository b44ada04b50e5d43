"""Time-decay scheme and the global decay factor (Section IV-A).

The time-decay scheme (Equation 1) makes *every* edge's activeness decay
continuously, which would force a full-graph sweep per time step.  The
paper's first contribution removes that sweep:

* **Observation 1** — unactivated edges all decay by the same
  edge-independent factor ``exp(-λ (t'' - t'))``.
* **Definition 1 (global decay factor)** — store *anchored* values
  ``a*_t(e) = a_t(e) / g(t, t*)`` with ``g(t, t*) = exp(-λ (t - t*))``;
  anchored values only change when their edge is activated.
* **Batched rescale** — after a fixed number of activations the anchored
  values absorb the accumulated factor and the anchor time advances,
  amortizing the sweep and (in floating point) preventing the anchored
  values from blowing up as ``1/g`` grows.
* **Definition 2 (PosM / NegM / NeuM)** — derived functions relate to
  their anchored form positively (``F = F* · g``), negatively
  (``F = F* / g``) or neutrally (``F = F*``).  The activeness and the
  similarity ``S_t`` are PosM (Lemmas 2, 4); the distance metric and the
  pyramid edge weights ``S_t^{-1}`` are NegM (Lemmas 6, 10); the active
  similarity σ is NeuM (ratio of PosM terms; Lemma 3).

:class:`DecayClock` owns ``(λ, t, t*)`` and one list of rescale
subscribers: every :class:`AnchoredEdgeValues` store subscribes itself
when it is built, and the node strengths and the pyramid index subscribe
through :meth:`DecayClock.add_rescale_listener`.  So a single rescale
keeps activeness, similarity and index weights mutually consistent — the
"holistic" maintenance the paper calls out.

**Range.**  Pure decay scales every stored value by one factor, so it
changes no comparison (Lemma 10), and a rescale may absorb less than
``g`` as long as it absorbs the same factor everywhere.  A rescale whose
``g`` would push a stored value below ``2^-RANGE`` (a long idle gap, or
unix-second timestamps on a fresh clock, where ``g`` underflows to 0)
absorbs a power of two instead: the largest one that still leaves the
old values ``2^NEGLIGIBLE`` below the unit a new activation adds, but
none that takes a stored value out of range.  Old values that sit more
than ``2^53`` below new ones drop out of every sum with them, so the
capped answer and the exact one give the same clusters.  Every rescale
whose ``g`` stays in range absorbs exactly ``g``.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..graph.graph import Edge, edge_key

__all__ = ["ValueKind", "DecayClock", "AnchoredEdgeValues", "Activeness", "RANGE", "NEGLIGIBLE"]

#: No stored magnitude goes below ``2^-RANGE`` at a rescale.  The index
#: weights are reciprocal similarities (times a scale below √2) and its
#: distances sums of fewer than ``n`` of them, so they stay below
#: ``n·2^(RANGE+1)``: finite for any graph with fewer than ``2^62`` nodes.
RANGE = 960

#: A capped rescale leaves every old value at most ``2^-NEGLIGIBLE``: more
#: than ``2^53`` below the smallest value a new activation writes (the
#: similarity floor, 0.01), so old values drop out of every sum with it.
NEGLIGIBLE = 64

#: The magnitudes a rescale subscriber holds, as ``(smallest, largest)``
#: of its nonzero values read as PosM (what a rescale by ``f`` multiplies
#: by ``f``), or ``None`` when it holds none.
Extent = Optional[Tuple[float, float]]


class ValueKind(enum.Enum):
    """How a derived function relates to its anchored form (Definition 2)."""

    POSITIVE = "PosM"  # F_t = F*_t * g(t, t*)
    NEGATIVE = "NegM"  # F_t = F*_t / g(t, t*)
    NEUTRAL = "NeuM"  # F_t = F*_t


class DecayClock:
    """Shared clock carrying the decay factor λ, time ``t`` and anchor ``t*``.

    Parameters
    ----------
    lam:
        Decay factor λ ≥ 0 of the time-decay scheme.
    rescale_every:
        Batched rescale period: after this many activations every rescale
        subscriber absorbs ``g(t, t*)`` and ``t* ← t`` (Lemma 1
        amortization).
    min_factor:
        Floating-point safety valve: if ``g(t, t*)`` drops below this, a
        rescale is forced regardless of the activation counter, so anchored
        values never overflow.
    """

    def __init__(
        self,
        lam: float,
        *,
        rescale_every: int = 1024,
        min_factor: float = 1e-120,
    ) -> None:
        if lam < 0:
            raise ValueError(f"decay factor must be non-negative, got {lam}")
        if rescale_every < 1:
            raise ValueError(f"rescale_every must be >= 1, got {rescale_every}")
        if not 0.0 < min_factor < 1.0:
            raise ValueError(f"min_factor must be in (0, 1), got {min_factor}")
        self.lam = lam
        self._t = 0.0
        self._anchor = 0.0
        self._rescale_every = rescale_every
        self._min_factor = min_factor
        self._since_rescale = 0
        #: Rescale subscribers in subscription order: ``(absorb, extent)``.
        self._listeners: List[
            Tuple[Callable[[float], None], Optional[Callable[[], Extent]]]
        ] = []
        self._rescale_count = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time ``t``."""
        return self._t

    @property
    def anchor(self) -> float:
        """Anchor time ``t*``."""
        return self._anchor

    @property
    def rescale_count(self) -> int:
        """How many batched rescales have run (observability for tests)."""
        return self._rescale_count

    def global_factor(self) -> float:
        """``g(t, t*) = exp(-λ (t - t*))``."""
        return math.exp(-self.lam * (self._t - self._anchor))

    def register(self, kind: ValueKind, name: str = "") -> "AnchoredEdgeValues":
        """Create a value store that rescales with this clock."""
        return AnchoredEdgeValues(self, kind, name=name)

    def add_rescale_listener(
        self,
        listener: Callable[[float], None],
        extent: Optional[Callable[[], Extent]] = None,
    ) -> None:
        """Subscribe ``listener`` to every batched rescale.

        ``listener(f)`` folds the rescale's factor into whatever the
        subscriber stores: a PosM value multiplies by ``f``, a NegM one
        (the pyramid index keeps edge weights *and* distance arrays,
        Lemma 10) divides by it.  ``extent()``, when given, reports the
        subscriber's magnitudes so a rescale keeps them in range (see
        :meth:`rescale`); a subscriber whose values follow another's
        (node strengths are sums of activeness, index weights reciprocal
        similarities) gives none.
        """
        self._listeners.append((listener, extent))

    # ------------------------------------------------------------------
    def advance(self, t: float) -> None:
        """Move the current time forward to ``t`` (no-op when equal).

        Advancing costs O(1): no stored value changes, only the implicit
        global factor — this is the whole point of Definition 1.  A rescale
        is forced if the factor underflows.
        """
        if t < self._t:
            raise ValueError(f"time cannot go backwards: {t} < {self._t}")
        self._t = t
        if self.global_factor() < self._min_factor:
            self.rescale()

    def note_activation(self, count: int = 1) -> None:
        """Record ``count`` processed activations; rescale on period boundary."""
        self._since_rescale += count
        if self._since_rescale >= self._rescale_every:
            self.rescale()

    def rescale(self) -> None:
        """Batched rescale: every subscriber absorbs one factor, then ``t* ← t``.

        The factor is ``g`` unless that would take a stored value out of
        range (see :meth:`_factor`).  Cost is linear in the total number
        of stored values, amortized over the ``rescale_every`` activations
        that triggered it (Lemma 1).
        """
        g = self.global_factor()
        # The comparison below is a deliberate exact check: when no stream
        # time has passed, global_factor() returns the literal 1.0 and the
        # absorb sweep would be a no-op; any other value (even one ulp off)
        # must still be absorbed or recovery replay diverges.
        if g != 1.0:  # anclint: disable=float-equality — exact no-op guard, g is literally 1.0 iff Δt == 0
            f = self._factor(g)
            if f < 1.0:  # a capped factor of 1 absorbs nothing
                for absorb, _ in self._listeners:
                    absorb(f)
        self._anchor = self._t
        self._since_rescale = 0
        self._rescale_count += 1

    def _factor(self, g: float) -> float:
        """The factor a rescale absorbs (the *Range* rule of the module
        docstring).

        ``g`` itself while it keeps every stored value at or above
        ``2^-RANGE``.  Otherwise a power of two above ``g``: the largest
        that takes every value to ``2^-NEGLIGIBLE`` or below, but at
        least the least that keeps the smallest value in range, and at
        most 1.
        """
        held = [e for e in (probe() for _, probe in self._listeners if probe) if e]
        smallest = min((lo for lo, _ in held), default=1.0)
        # frexp(x) = (m, e) with x = m·2^e and 0.5 <= m < 1, so x >= 2^(e-1).
        floor = math.ldexp(1.0, min(0, 1 - RANGE - math.frexp(smallest)[1]))
        if g >= floor:
            return g
        largest = max((hi for _, hi in held), default=1.0)
        below = math.ldexp(1.0, -NEGLIGIBLE - math.frexp(largest)[1])
        return min(1.0, max(floor, below))


class AnchoredEdgeValues:
    """Edge-keyed values stored in anchored form under a :class:`DecayClock`.

    ``anchored(e)`` is ``F*_t(e)``; ``actual(e)`` applies the kind's
    relation to ``g(t, t*)`` to recover ``F_t(e)``.  Mutations are expressed
    either on the anchored value (cheap, used by the engines) or on the
    actual value (converted through ``g``, used at API boundaries).
    """

    __slots__ = ("clock", "kind", "name", "_values")

    def __init__(self, clock: DecayClock, kind: ValueKind, name: str = "") -> None:
        self.clock = clock
        self.kind = kind
        self.name = name
        self._values: Dict[Edge, float] = {}
        clock.add_rescale_listener(self._absorb, self._extent)

    # -- anchored-space access -----------------------------------------
    def anchored(self, u: int, v: int) -> float:
        """Anchored value ``F*_t(e)`` (0.0 when never set)."""
        return self._values.get(edge_key(u, v), 0.0)

    def set_anchored(self, u: int, v: int, value: float) -> None:
        """Overwrite the anchored value."""
        self._values[edge_key(u, v)] = value

    def add_anchored(self, u: int, v: int, delta: float) -> float:
        """Add ``delta`` in anchored space; returns the new anchored value."""
        key = edge_key(u, v)
        new = self._values.get(key, 0.0) + delta
        self._values[key] = new
        return new

    # -- actual-space access --------------------------------------------
    def actual(self, u: int, v: int) -> float:
        """Current (decayed) value ``F_t(e)``."""
        return self.to_actual(self.anchored(u, v))

    def set_actual(self, u: int, v: int, value: float) -> None:
        """Set the current value; stored anchored."""
        self._values[edge_key(u, v)] = self.to_anchored(value)

    # -- conversions ------------------------------------------------------
    def to_actual(self, anchored_value: float) -> float:
        """Map an anchored value to its current value under ``g(t, t*)``."""
        g = self.clock.global_factor()
        if self.kind is ValueKind.POSITIVE:
            return anchored_value * g
        if self.kind is ValueKind.NEGATIVE:
            return anchored_value / g
        return anchored_value

    def to_anchored(self, actual_value: float) -> float:
        """Map a current value to anchored form."""
        g = self.clock.global_factor()
        if self.kind is ValueKind.POSITIVE:
            return actual_value / g
        if self.kind is ValueKind.NEGATIVE:
            return actual_value * g
        return actual_value

    # -- bookkeeping -------------------------------------------------------
    def _absorb(self, g: float) -> None:
        """Fold the factor into every anchored value (called by rescale).

        Iterates in sorted edge order — not dict insertion order — so the
        application sequence is a deterministic function of the key set
        alone.  The per-value multiply/divide is elementwise (no
        cross-edge accumulation), so results are bitwise identical either
        way; fixing the order removes the *latent* dependency on
        insertion history that a future accumulating absorb (or any
        backend whose storage order differs) would silently inherit.
        """
        if self.kind is ValueKind.POSITIVE:
            for key in sorted(self._values):
                self._values[key] *= g
        elif self.kind is ValueKind.NEGATIVE:
            for key in sorted(self._values):
                self._values[key] /= g
        # NEUTRAL values are invariant under rescale.

    def _extent(self) -> Extent:
        """The stored magnitudes a rescale must keep in range: the
        smallest and largest nonzero value, read as PosM (a NegM value
        ``x`` reads as ``1/x``)."""
        if self.kind is ValueKind.NEUTRAL:
            return None
        held = [value for _, value in self.items_anchored() if value]
        if not held:
            return None
        if self.kind is ValueKind.POSITIVE:
            return min(held), max(held)
        return 1.0 / max(held), 1.0 / min(held)

    def items_anchored(self) -> Iterator[Tuple[Edge, float]]:
        """Iterate ``(edge, anchored value)`` pairs."""
        return iter(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Edge) -> bool:
        return key in self._values


class Activeness:
    """The edge activeness ``a_t`` of Equation 1, maintained incrementally.

    Activeness is PosM: the anchored value only changes when its edge is
    activated (``a* += 1/g``, Definition 1), so maintenance is O(1) per
    activation plus the amortized rescale (Lemma 1).
    """

    def __init__(
        self,
        clock: DecayClock,
        *,
        initial: Optional[Dict[Edge, float]] = None,
        store: Optional[AnchoredEdgeValues] = None,
    ) -> None:
        self.clock = clock
        if store is None:
            store = clock.register(ValueKind.POSITIVE, name="activeness")
        elif store.clock is not clock or store.kind is not ValueKind.POSITIVE:
            raise ValueError("injected activeness store must be PosM on this clock")
        self.store = store
        if initial:
            for (u, v), value in initial.items():
                self.store.set_actual(u, v, value)

    def on_activation(self, u: int, v: int, t: float) -> Tuple[float, float]:
        """Process an activation of ``{u, v}`` at time ``t``.

        Advances the clock and adds the unit impulse in anchored space
        (``a* += 1/g``, Definition 1).  Returns ``(actual, anchored_delta)``
        — the new activeness ``a_t(e)`` and the anchored increment, which
        callers that maintain derived sums (node strengths in
        :class:`~repro.core.similarity.ActiveSimilarity`) need.

        Note: this does *not* call :meth:`DecayClock.note_activation`; the
        engine does, after all per-activation bookkeeping, so that a
        triggered rescale sees a consistent state.
        """
        self.clock.advance(t)
        delta = 1.0 / self.clock.global_factor()
        new_anchored = self.store.add_anchored(u, v, delta)
        return self.store.to_actual(new_anchored), delta

    def value(self, u: int, v: int) -> float:
        """Current activeness ``a_t(e)``."""
        return self.store.actual(u, v)

    def anchored_value(self, u: int, v: int) -> float:
        """Anchored activeness ``a*_t(e)``."""
        return self.store.anchored(u, v)
