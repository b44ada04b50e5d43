"""Counters, gauges and sliding-window histograms (library-wide).

Stdlib-only on purpose (no layer of this repo adds dependencies).
Every instrument is cheap to update on the hot path — a counter is one
float add, a histogram observation is one deque append — and the
registry renders everything into a plain JSON-able dict on demand, which
the server exposes through the ``metrics`` op and the Prometheus
``metrics_text`` op (:func:`repro.obs.export.render_prometheus` renders
that dict).

Histograms keep a bounded window of recent observations (default 8192)
rather than full reservoir sampling: percentiles answer "what is query
latency *now*", which is what an operator watching a live service wants,
and the bound keeps memory flat regardless of uptime.

Reading is pure: :meth:`MetricsRegistry.snapshot` changes nothing, so
any number of readers can poll one registry.  Rates are the reader's to
derive, from the deltas of two snapshots (Prometheus does it from the
``_total`` series).
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["BUCKET_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Shared log-scale histogram bucket upper bounds (seconds): 1 µs up to
#: ~18 minutes in powers of 4.  Fixed and global, so two snapshots of one
#: histogram subtract bucket-wise into the observations between them.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 4.0**i for i in range(16))


class Counter:
    """Monotonically increasing count (events, activations, bytes...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value, either set directly or read from a callable."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Sliding-window distribution with lifetime totals.

    Tracks the lifetime count/sum exactly; :meth:`summary` computes
    nearest-rank percentiles over the most recent ``window``
    observations.  Both read paths (:meth:`summary`,
    :meth:`bucket_counts`) take the lock, so a reader racing an
    :meth:`observe` never sees a count/sum pair from two different
    observations.
    """

    __slots__ = ("name", "_window", "_count", "_sum", "_lock")

    def __init__(self, name: str, *, window: int = 8192) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.name = name
        self._window: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._sum += value

    def bucket_counts(self) -> List[float]:
        """Window observation counts per shared log-scale bucket.

        One slot per :data:`BUCKET_BOUNDS` entry (``value <= bound``)
        plus a final +Inf overflow slot.  Counts are per-bucket, not
        cumulative, so two snapshots subtract element-wise.
        """
        counts = [0.0] * (len(BUCKET_BOUNDS) + 1)
        with self._lock:
            data = list(self._window)
        for value in data:
            counts[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1.0
        return counts

    def summary(self) -> Dict[str, float]:
        """Lifetime count / sum / mean, and p50 / p90 / p99 / max of the
        current window.

        One lock acquisition: every field derives from a single
        consistent (window, count, sum) view.
        """
        with self._lock:
            data = sorted(self._window)
            count = self._count
            total = self._sum
        out = {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else 0.0,
        }
        if data:
            last = len(data) - 1
            out["p50"] = data[int(round(0.50 * last))]
            out["p90"] = data[int(round(0.90 * last))]
            out["p99"] = data[int(round(0.99 * last))]
            out["max"] = data[-1]
        else:
            out.update({"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0})
        return out


class MetricsRegistry:
    """Named instruments and one pure read of them all (:meth:`snapshot`)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories (idempotent by name) -----------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    def snapshot(self) -> Dict[str, object]:
        """Every instrument as one JSON-able ``{counters, gauges,
        histograms}`` dict, each section sorted by name.

        A pure read: two snapshots with no instrument change between
        them are equal.  Each histogram is its :meth:`Histogram.summary`
        plus its window's ``buckets``.
        """
        return {
            "counters": {
                name: counter.value for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {**hist.summary(), "buckets": hist.bucket_counts()}
                for name, hist in sorted(self._histograms.items())
            },
        }
