#!/usr/bin/env python
"""Monitoring a bursty social activation stream in real time.

Simulates a day of social-network interactions (diurnal rate with Pareto
bursts, the Fig 9 workload), absorbs them minute by minute with the
online engine, and demonstrates the operational side of the system:

* per-minute batch latency (bounded by the affected set, not the graph);
* live votes at the sqrt-n level reporting which users had an incident
  vote flip each hour (the "Remarks" feature of Section V-C);
* live local queries against the current index.

Run:  python examples/social_stream_monitoring.py
"""

import time

from repro import ANCO, ANCParams
from repro.graph.generators import planted_partition
from repro.index.voting import LiveVotes
from repro.workloads.streams import day_trace

MINUTES = 180  # 3 simulated hours


def main() -> None:
    graph, groups = planted_partition(250, 10, p_in=0.35, p_out=0.01, seed=3)
    print(f"Social network: {graph.n} users, {graph.m} friendships")

    params = ANCParams(lam=0.01, rep=2, k=4, seed=0, eps=0.25, mu=2)
    engine = ANCO(graph, params)
    watch_level = engine.queries.sqrt_n_level()
    votes = LiveVotes(engine.index, watch_level)
    votes.refresh()
    print(f"Watching cluster changes at level {watch_level} (sqrt-n granularity)\n")

    stream = day_trace(
        graph, minutes=MINUTES, base_per_minute=10, seed=9, burst_probability=0.04
    )

    latencies = []
    processed = 0
    flipped_this_hour = set()
    for minute, batch in stream.batches_by_timestamp():
        start = time.perf_counter()
        engine.process_batch(batch)
        # The endpoints of every edge whose vote flipped in this batch.
        flipped_this_hour |= votes.refresh()
        latencies.append(time.perf_counter() - start)
        processed += len(batch)

        if int(minute) % 60 == 0:
            hour = int(minute) // 60
            lat = sorted(latencies[-60:])
            p95 = lat[int(len(lat) * 0.95)] if lat else 0.0
            print(
                f"hour {hour}: {processed} activations so far, "
                f"p95 minute latency {p95 * 1000:.1f} ms, "
                f"{len(flipped_this_hour)} users with a flipped vote this hour"
            )
            flipped_this_hour.clear()

    lat = sorted(latencies)
    print(
        f"\nDay summary: {processed} activations, "
        f"median minute latency {lat[len(lat) // 2] * 1000:.1f} ms, "
        f"p99 {lat[int(len(lat) * 0.99)] * 1000:.1f} ms"
    )

    # Live queries against the final state.
    user = 42
    community = engine.cluster_of(user)
    print(
        f"\nUser {user}'s active community right now "
        f"({len(community)} users): {community[:10]}"
        f"{'...' if len(community) > 10 else ''}"
    )
    finer = engine.cluster_of(user, engine.zoom_in(watch_level))
    print(f"Zoomed in: {len(finer)} users")
    engine.index.check_consistency()
    print("Index verified consistent after the full day.")


if __name__ == "__main__":
    main()
