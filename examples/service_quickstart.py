#!/usr/bin/env python
"""Quickstart for the streaming service: serve, ingest, query, recover.

Spawns a real ``repro-anc serve`` process over a small social network,
talks to it through :class:`repro.service.ServiceClient`, then restarts
it against the same data directory to show that checkpoints + the
write-ahead log reproduce the exact same clustering.

Run:  python examples/service_quickstart.py
(The full protocol and operational knobs are in docs/service.md.)
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.graph.generators import planted_partition
from repro.service import ServiceClient
from repro.workloads.streams import community_biased_stream

SRC = Path(__file__).resolve().parent.parent / "src"


def start_server(edgelist: Path, data_dir: Path) -> subprocess.Popen:
    """Launch ``repro-anc serve`` and wait for its announce line."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(edgelist),
            "--port", "0", "--data-dir", str(data_dir),
            "--rep", "1", "--pyramids", "2", "--batch-size", "32",
            "--checkpoint-every", "200",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    announce = proc.stdout.readline().split()  # "SERVING <host> <port>"
    proc.host, proc.port = announce[1], int(announce[2])
    return proc


def demo(workdir: Path) -> None:
    graph, groups = planted_partition(80, 4, p_in=0.45, p_out=0.02, seed=5)
    stream = community_biased_stream(
        graph, groups, timestamps=20, fraction=0.08, seed=1
    )
    edgelist = workdir / "graph.txt"
    edgelist.write_text(
        "".join(f"user{u} user{v}\n" for u, v in graph.edges())
    )
    data_dir = workdir / "data"

    # --- serve and stream -------------------------------------------------
    server = start_server(edgelist, data_dir)
    print(f"Server up on {server.host}:{server.port} (data in {data_dir})")
    with ServiceClient(server.host, server.port) as client:
        items = [[f"user{a.u}", f"user{a.v}", a.t] for a in stream]
        client.ingest_batch(items)
        applied = client.sync()  # barrier: everything ingested is visible
        print(f"Ingested and applied {applied} activations")

        info = client.clusters_info(min_size=3)
        print(
            f"Clusters at level {info['level']} (t={info['t']:g}): "
            f"{len(info['clusters'])} of size >= 3"
        )
        community = client.local("user0")
        print(f"user0's community ({len(community)} users): {community[:8]}...")

        metrics = client.metrics()
        flush = metrics["histograms"]["batch_flush_seconds"]
        print(
            f"Service metrics: {metrics['counters']['batches_applied']:.0f} "
            f"micro-batches, flush p50={flush['p50'] * 1e3:.1f}ms"
        )
        before = client.clusters_info()
        client.shutdown()
    server.wait(timeout=30)
    print("Server shut down (final checkpoint written)")

    # --- restart: recovery reproduces the exact same clustering -----------
    server = start_server(edgelist, data_dir)
    with ServiceClient(server.host, server.port) as client:
        after = client.clusters_info(level=before["level"])
        identical = after["clusters"] == before["clusters"]
        print(
            f"After restart: {after['applied']} activations recovered, "
            f"clusters identical: {identical}"
        )
        client.shutdown()
    server.wait(timeout=30)
    if not identical:
        raise SystemExit("recovery mismatch — this should never happen")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="anc-service-") as workdir:
        demo(Path(workdir))


if __name__ == "__main__":
    main()
