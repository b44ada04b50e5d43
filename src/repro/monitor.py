"""Cluster monitoring: watch nodes, get change events (§V-C Remarks).

The paper's Remarks sketch the application the index's locality enables:
"maintain a voting count for each level, each edge in real time.  This
allows us to report changes on user specified nodes at a cost equal to
the reporting."  This module builds that application end to end:

* :class:`ClusterWatcher` — register nodes of interest at a granularity
  level; after each processed batch it refreshes each watched level's
  live votes (:class:`~repro.index.voting.LiveVotes`, which recount only
  the edges at nodes whose seed moved) and re-derives the watched nodes'
  local clusters *only if* a vote incident to their current cluster
  flipped — the "cost equal to the reporting" property;
* :class:`ClusterChange` — the emitted event: node, level, time, nodes
  joined and left.

The watcher wraps any ANC engine; see
``examples/dynamic_network_growth.py`` for a full tour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core.activation import Activation, ActivationStream
from .core.anc import ANCEngineBase
from .index.clustering import local_cluster
from .index.voting import LiveVotes
from .obs.trace import perf_counter

__all__ = ["ClusterChange", "ClusterWatcher"]


@dataclass(frozen=True)
class ClusterChange:
    """One watched node's cluster changed during a batch."""

    node: int
    level: int
    t: float
    joined: FrozenSet[int]
    left: FrozenSet[int]

    @property
    def summary(self) -> str:
        """Human-readable one-liner."""
        parts = [f"t={self.t:g} node {self.node} (level {self.level}):"]
        if self.joined:
            parts.append(f"+{sorted(self.joined)}")
        if self.left:
            parts.append(f"-{sorted(self.left)}")
        return " ".join(parts)


class ClusterWatcher:
    """Watch nodes' local clusters on a live engine.

    Parameters
    ----------
    engine:
        Any ANC engine.  The watcher either feeds each batch through the
        engine itself (:meth:`process_batch`) or observes a batch the
        engine already absorbed (:meth:`observe_applied`); either way it
        finds the changes by diffing the index's seeds, not the batch.
    levels:
        Granularity levels to watch (default: the √n level);
        :meth:`add_level` adds more later.
    """

    def __init__(
        self,
        engine: ANCEngineBase,
        *,
        levels: Optional[Sequence[int]] = None,
    ) -> None:
        self.engine = engine
        if levels is None:
            levels = [engine.queries.sqrt_n_level()]
        #: Watched levels in the order they were added; the first is the
        #: default of every ``level=None`` argument.
        self.levels: Tuple[int, ...] = ()
        # The watcher's own baseline: a refresh consumes the diff, so it
        # cannot share the query engine's LiveVotes.
        self.votes: Dict[int, LiveVotes] = {}
        # watched[level] = set of nodes; clusters[(node, level)] = frozenset
        self._watched: Dict[int, Set[int]] = {}
        self._clusters: Dict[Tuple[int, int], FrozenSet[int]] = {}
        self._events: List[ClusterChange] = []
        for level in sorted(set(levels)):
            self.add_level(level)

    def add_level(self, level: int) -> None:
        """Watch ``level`` too (no-op if already watched): its votes are
        tracked from the index as it is now."""
        if level in self.votes:
            return
        if not 1 <= level <= self.engine.queries.num_levels:
            raise ValueError(f"level {level} is out of range")
        self.votes[level] = LiveVotes(self.engine.index, level)
        self.votes[level].refresh()
        self._watched[level] = set()
        self.levels += (level,)

    # ------------------------------------------------------------------
    def watch(self, node: int, level: Optional[int] = None) -> FrozenSet[int]:
        """Start watching ``node``; returns its current cluster."""
        if not self.engine.graph.has_node(node):
            raise ValueError(f"unknown node {node}")
        level = self.levels[0] if level is None else level
        if level not in self._watched:
            raise ValueError(f"level {level} is not watched by this watcher")
        self._watched[level].add(node)
        cluster = frozenset(local_cluster(self.engine.index, node, level))
        self._clusters[(node, level)] = cluster
        return cluster

    def unwatch(self, node: int, level: Optional[int] = None) -> None:
        """Stop watching ``node`` (no-op if not watched)."""
        level = self.levels[0] if level is None else level
        self._watched.get(level, set()).discard(node)
        self._clusters.pop((node, level), None)

    def current_cluster(self, node: int, level: Optional[int] = None) -> FrozenSet[int]:
        """The watched node's cluster as of the last processed batch."""
        level = self.levels[0] if level is None else level
        try:
            return self._clusters[(node, level)]
        except KeyError:
            raise KeyError(f"node {node} is not watched at level {level}") from None

    # ------------------------------------------------------------------
    def process_batch(self, batch: Sequence[Activation]) -> List[ClusterChange]:
        """Feed a batch through the engine, then report watched changes.

        Returns the changes detected in this batch (also appended to
        :meth:`events`).  The refresh cost is proportional to the edges
        at nodes whose seed moved plus the size of the re-derived
        clusters — never the graph.
        """
        self.engine.process_batch(batch)
        return self.observe_applied(batch)

    def observe_applied(self, batch: Sequence[Activation]) -> List[ClusterChange]:
        """Report watched changes for a batch the engine *already* absorbed.

        Drivers that own the engine's update schedule (the service's
        :class:`~repro.service.engine_host.EngineHost` applies batches on
        a writer thread with deterministic batch-end hooks) call this
        after applying each batch instead of :meth:`process_batch`, so
        the watcher observes without double-processing the stream.

        When the engine carries an enabled observability bundle, each
        refresh records its cost — ``watcher_refresh_seconds`` and the
        ``watcher_*`` counters — turning the paper's §V-C "cost equal to
        the reporting" remark into a measured quantity (compare
        ``watcher_touched_nodes`` against ``watcher_reported_nodes``).
        """
        obs = self.engine.obs
        if not obs.enabled:
            return self._observe()[0]
        start = perf_counter()
        with obs.tracer.span("watcher_refresh", batch_size=len(batch)):
            changes, touched_count = self._observe()
        registry = obs.registry
        registry.histogram("watcher_refresh_seconds").observe(
            perf_counter() - start
        )
        registry.counter("watcher_batches").inc()
        registry.counter("watcher_touched_nodes").inc(float(touched_count))
        registry.counter("watcher_changes").inc(float(len(changes)))
        registry.counter("watcher_reported_nodes").inc(
            float(sum(len(c.joined) + len(c.left) for c in changes))
        )
        return changes

    def _observe(self) -> Tuple[List[ClusterChange], int]:
        """The refresh itself; returns (changes, flipped-endpoint count)."""
        changes: List[ClusterChange] = []
        t = self.engine.now
        touched = 0
        for level in self.levels:
            flipped = self.votes[level].refresh()
            touched += len(flipped)
            for node in self._watched[level]:
                old = self._clusters[(node, level)]
                # Re-derive only when a flipped vote touches the node's
                # current cluster: the cluster is the node's voted
                # component, and a flip outside it cannot reach it.
                if flipped.isdisjoint(old):
                    continue
                new = frozenset(local_cluster(self.engine.index, node, level))
                if new != old:
                    change = ClusterChange(
                        node=node,
                        level=level,
                        t=t,
                        joined=frozenset(new - old),
                        left=frozenset(old - new),
                    )
                    changes.append(change)
                    self._clusters[(node, level)] = new
        self._events.extend(changes)
        return changes, touched

    def process_stream(self, stream: ActivationStream) -> List[ClusterChange]:
        """Feed a whole stream batch-by-timestamp; returns all changes."""
        all_changes: List[ClusterChange] = []
        for _, batch in stream.batches_by_timestamp():
            all_changes.extend(self.process_batch(batch))
        return all_changes

    @property
    def events(self) -> List[ClusterChange]:
        """Every change emitted since construction (chronological)."""
        return list(self._events)

    def drain_events(self) -> List[ClusterChange]:
        """Return and clear the accumulated events."""
        out = list(self._events)
        self._events.clear()
        return out
