"""Command-line interface: cluster graphs and replay activation streams.

Installed as the ``repro-anc`` console script (also runnable as
``python -m repro.cli``).  Subcommands:

* ``info <edgelist>`` — graph statistics (nodes, edges, degrees,
  components);
* ``cluster <edgelist>`` — cluster a static graph with ANC or a baseline
  and print the clusters (optionally at a chosen granularity level);
* ``stream <temporal-edgelist>`` — replay a ``u v t`` activation stream
  through an online engine, printing cluster snapshots at checkpoints
  and answering local queries; ``--trace-out`` / ``--metrics-out``
  capture a Chrome trace and a metrics snapshot of the replay
  (``docs/observability.md``);
* ``stats`` — fetch a running node's own Prometheus scrape (or its
  stats + metrics JSON) over the service protocol; against a shard
  router, every sample is labeled with its source
  (``docs/observability.md``);
* ``trace`` — assemble a merged multi-process Chrome trace from a live
  deployment's span buffers (``--follow`` keeps collecting; ``--probe``
  sends traced read-only requests first so an idle fleet still yields
  a connected client → router → worker trace);
* ``datasets`` — the Table I stand-in catalogue;
* ``lint`` — run the :mod:`repro.analysis` invariant linter over the
  source tree (the CI gate; see ``docs/static-analysis.md``);
* ``chaos`` — run the fault-injection matrix (:mod:`repro.faults`)
  against the serving stack and gate on silent divergence
  (``docs/faults.md``);
* ``promote`` — fail over: fence the old primary and promote a follower
  to primary under a fresh epoch (``docs/replication.md``);
* ``replicas`` — one node's view of the replication topology (role,
  epoch, committed entries, per-follower lag);
* ``read-serve`` — run the read-path router: writes pass through to the
  primary, session-tokened reads fan across the follower fleet under
  bounded staleness (``docs/replication.md``);
* ``shard-serve`` — run N partitioned engine workers behind a
  scatter-gather router speaking the single-server protocol
  (``docs/sharding.md``);
* ``shardmap`` — show how a relation graph partitions across shards
  (offline from an edge list, or live from a running router).

Edge lists are whitespace-separated ``u v`` (or ``u v t``) lines; node
labels may be arbitrary strings and are reported back verbatim.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

# Each command imports what it runs: a ``read-serve`` router never loads
# the engine, and a server never loads the blocking client.
if TYPE_CHECKING:
    from .core.anc import ANCParams
    from .service.server import ServerConfig
    from .service.wire import FrontEnd

__all__ = [
    "cmd_info",
    "cmd_cluster",
    "cmd_stream",
    "cmd_serve",
    "cmd_chaos",
    "cmd_stats",
    "cmd_trace",
    "cmd_datasets",
    "cmd_lint",
    "cmd_promote",
    "cmd_read_serve",
    "cmd_replicas",
    "cmd_shard_serve",
    "cmd_shardmap",
    "build_parser",
    "main",
]


def _add_anc_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lam", type=float, default=0.1, help="decay factor λ")
    parser.add_argument("--eps", type=float, default=0.25, help="active-neighbor threshold ε")
    parser.add_argument("--mu", type=int, default=2, help="core threshold μ")
    parser.add_argument("--rep", type=int, default=3, help="reinforcement repetitions")
    parser.add_argument("--pyramids", type=int, default=4, help="number of pyramids k")
    parser.add_argument("--support", type=float, default=0.7, help="voting threshold θ")
    parser.add_argument("--seed", type=int, default=0, help="index RNG seed")


def _params_from(args: argparse.Namespace) -> ANCParams:
    from .core.anc import ANCParams

    return ANCParams(
        lam=args.lam,
        eps=args.eps,
        mu=args.mu,
        rep=args.rep,
        k=args.pyramids,
        support=args.support,
        seed=args.seed,
    )


def _server_config(args: argparse.Namespace, **fields: Any) -> ServerConfig:
    """The :class:`ServerConfig` of the flags ``serve`` and
    ``shard-serve`` share, plus command-specific ``fields``."""
    from .service.server import ServerConfig

    return ServerConfig(
        engine=args.engine,
        batch_size=args.batch_size,
        max_latency=args.max_latency,
        max_pending=args.max_pending,
        data_dir=args.data_dir,
        checkpoint_every=args.checkpoint_every,
        **fields,
    )


def _print_clusters(clusters: Sequence[List[int]], names: Sequence[object], *,
                    min_size: int, out: IO[str]) -> None:
    kept = [c for c in clusters if len(c) >= min_size]
    kept.sort(key=len, reverse=True)
    print(f"{len(kept)} clusters (>= {min_size} nodes):", file=out)
    for i, cluster in enumerate(kept):
        labels = [str(names[v]) for v in cluster]
        preview = " ".join(labels[:12]) + (" ..." if len(labels) > 12 else "")
        print(f"  [{i}] size={len(cluster)}: {preview}", file=out)


def cmd_info(args: argparse.Namespace, out: IO[str]) -> int:
    from .graph.io import read_edge_list
    from .graph.traversal import connected_components

    graph, names = read_edge_list(args.edgelist)
    comps = connected_components(graph)
    degrees = sorted((graph.degree(v) for v in graph.nodes()), reverse=True)
    print(f"nodes:      {graph.n}", file=out)
    print(f"edges:      {graph.m}", file=out)
    print(f"components: {len(comps)} (largest {len(comps[0]) if comps else 0})", file=out)
    if degrees:
        print(f"degree:     max={degrees[0]} "
              f"median={degrees[len(degrees) // 2]} "
              f"mean={2 * graph.m / graph.n:.2f}", file=out)
    return 0


def cmd_cluster(args: argparse.Namespace, out: IO[str]) -> int:
    # The baselines pull in scipy; only this command needs them, so the
    # serving commands never pay for the import.
    from .baselines import attractor, louvain, scan
    from .core.anc import ANCF
    from .graph.io import read_edge_list

    graph, names = read_edge_list(args.edgelist)
    if args.method == "anc":
        engine = ANCF(graph, _params_from(args))
        level = args.level if args.level is not None else engine.queries.sqrt_n_level()
        clusters = engine.clusters(level)
        print(f"ANC clustering at level {level} "
              f"(of 1..{engine.queries.num_levels})", file=out)
    elif args.method == "louvain":
        clusters = louvain(graph, seed=args.seed)
    elif args.method == "scan":
        clusters = scan(graph, eps=args.eps, mu=max(2, args.mu)).clusters
    elif args.method == "attractor":
        clusters = attractor(graph)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.method)
    _print_clusters(clusters, names, min_size=args.min_size, out=out)
    return 0


def cmd_stream(args: argparse.Namespace, out: IO[str]) -> int:
    from .core.activation import ActivationStream
    from .core.anc import make_engine
    from .graph.io import read_temporal_edge_list

    graph, stream, names = read_temporal_edge_list(args.edgelist)
    if not stream:
        print("no activations in input", file=out)
        return 1
    engine = make_engine(args.engine, graph, _params_from(args))
    obs = None
    if args.trace_out or args.metrics_out:
        from .obs.instruments import MetricsRegistry
        from .obs.trace import Observability, Tracer

        tracer = Tracer(
            enabled=True, capacity=65536, sample=args.trace_sample
        )
        obs = Observability(registry=MetricsRegistry(), tracer=tracer)
        engine.attach_obs(obs)
    watcher = None
    if args.watch:
        from .monitor import ClusterWatcher

        level = args.level or None
        watcher = ClusterWatcher(
            engine, levels=None if level is None else [level]
        )
        for label in args.watch:
            if label not in names:
                print(f"unknown watch node {label!r}", file=out)
                return 1
            watcher.watch(names.index(label))
    first, last = stream[0].t, stream[-1].t
    checkpoints = args.at or [last]
    checkpoints = sorted(set(checkpoints))
    print(f"replaying {len(stream)} activations over t=[{first}, {last}] "
          f"with {args.engine.upper()}", file=out)
    ck = 0
    batch: List[object] = []
    validated = ActivationStream(graph, stream)
    for t, batch in validated.batches_by_timestamp():
        if watcher is not None:
            for change in watcher.process_batch(batch):
                joined = " ".join(str(names[x]) for x in sorted(change.joined))
                left = " ".join(str(names[x]) for x in sorted(change.left))
                print(
                    f"[t={t:g}] {names[change.node]} cluster changed: "
                    f"+[{joined}] -[{left}]",
                    file=out,
                )
        else:
            engine.process_batch(batch)
        while ck < len(checkpoints) and checkpoints[ck] <= t:
            print(f"\n--- snapshot at t={t} ---", file=out)
            if args.query is not None:
                v = names.index(args.query) if args.query in names else None
                if v is None:
                    print(f"unknown node {args.query!r}", file=out)
                else:
                    cluster = engine.cluster_of(v, args.level)
                    labels = [str(names[x]) for x in cluster]
                    print(f"cluster of {args.query}: {' '.join(labels)}", file=out)
            else:
                _print_clusters(
                    engine.clusters(args.level), names,
                    min_size=args.min_size, out=out,
                )
            ck += 1
    if obs is not None:
        import json

        if args.trace_out:
            import os

            from .obs.export import fleet_chrome_trace, span_dicts

            lane = {"pid": os.getpid(), "process": "stream", "spans": span_dicts(obs.tracer)}
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(fleet_chrome_trace([lane]), fh)
                fh.write("\n")
            print(
                f"wrote Chrome trace ({len(obs.tracer)} spans, "
                f"{obs.tracer.recorded} recorded) to {args.trace_out}",
                file=out,
            )
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(obs.registry.snapshot(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote metrics snapshot to {args.metrics_out}", file=out)
    return 0


def cmd_stats(args: argparse.Namespace, out: IO[str]) -> int:
    from .service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
            if args.format == "json":
                import json

                doc = {"stats": client.stats(), "metrics": client.metrics()}
                print(json.dumps(doc, indent=2, sort_keys=True), file=out)
            else:
                # The node's own scrape, exactly what a Prometheus
                # scraper would ingest: a one-shot client's own counters
                # are always 0, so none are appended.
                text = client.request("metrics_text", namespace=args.namespace)["text"]
                print(text, end="", file=out)
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace, out: IO[str]) -> int:
    """Assemble a fleet Chrome trace from a live deployment."""
    import json
    import os
    import time

    from .obs.export import fleet_chrome_trace, fleet_trace_summary
    from .service.client import ServiceClient, ServiceError

    merged: dict = {}

    def absorb(processes: "List[dict]") -> None:
        for proc in processes:
            if not isinstance(proc, dict):
                continue
            pid = proc.get("pid")
            entry = merged.setdefault(
                pid, {"pid": pid, "process": proc.get("process"), "spans": []}
            )
            spans = proc.get("spans")
            if isinstance(spans, list):
                entry["spans"].extend(spans)

    try:
        with ServiceClient(
            args.host,
            args.port,
            timeout=args.timeout,
            trace_sample=1.0 if args.probe else 0.0,
        ) as client:
            for _ in range(args.probe):
                client.clusters()  # read-only traced round trip
            deadline = time.monotonic() + (args.duration if args.follow else 0.0)
            while True:
                response = client.trace_fetch(drain=args.follow)
                processes = response.get("processes")
                if isinstance(processes, list):
                    absorb(processes)
                else:  # a single unsharded server
                    absorb([response])
                if not args.follow or time.monotonic() >= deadline:
                    break
                time.sleep(args.interval)
            absorb(
                [
                    {
                        "pid": os.getpid(),
                        "process": "client",
                        "spans": client.trace_spans(),
                    }
                ]
            )
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    processes = sorted(
        merged.values(), key=lambda p: (str(p.get("process")), str(p.get("pid")))
    )
    summary = fleet_trace_summary(processes)
    doc = fleet_chrome_trace(processes, trace_id=args.trace_id)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        print(
            f"wrote fleet trace ({len(doc['traceEvents'])} events, "
            f"{len(processes)} processes) to {args.out}",
            file=out,
        )
    for trace_id in sorted(summary):
        info = summary[trace_id]
        status = "connected" if info["connected"] else "DISCONNECTED"
        print(
            f"trace {trace_id}: {info['spans']} spans across "
            f"{len(info['pids'])} processes, roots={info['roots']} "
            f"[{status}]",
            file=out,
        )
    if not summary:
        print(
            "no traced spans buffered; send traced requests "
            "(trace_sample > 0) or use --probe",
            file=out,
        )
    if args.out is None and summary:
        print(json.dumps(doc), file=out)
    return 0


def _parse_endpoint(spec: str) -> "Tuple[str, int]":
    """Parse a ``HOST:PORT`` endpoint argument."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {spec!r}"
        )
    return host, int(port)


def _serve(build: Callable[[], FrontEnd], out: IO[str]) -> int:
    """Build a front end and serve it in this process until it stops.

    ``build`` runs after logging is set up, so a server's recovery is
    logged.  A ``shutdown`` op, SIGTERM or SIGINT stops the node cleanly
    (exit 0); a server whose writer failed exits 1, and an interrupt
    before the loop runs exits 130.
    """
    import asyncio
    import logging

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    async def main() -> None:
        front.stop_on_signals()
        await front.run(announce=lambda line: print(line, file=out, flush=True))

    try:
        front = build()
        asyncio.run(main())
    except KeyboardInterrupt:
        return 130
    return 1 if front.crashed else 0


def cmd_serve(args: argparse.Namespace, out: IO[str]) -> int:
    from .graph.io import read_edge_list
    from .service.server import ANCServer

    primary_host, primary_port = None, 0
    if args.role == "follower":
        if args.primary is None:
            print("error: --role follower requires --primary HOST:PORT", file=out)
            return 2
        primary_host, primary_port = _parse_endpoint(args.primary)
    graph, names = read_edge_list(args.edgelist)
    config = _server_config(
        args,
        host=args.host,
        port=args.port,
        role=args.role,
        primary_host=primary_host,
        primary_port=primary_port,
        replica_id=args.replica_id or "",
        audit_interval=args.audit_interval,
        profile=args.profile,
    )
    return _serve(
        lambda: ANCServer(graph, names, config=config, params=_params_from(args)),
        out,
    )


def cmd_shard_serve(args: argparse.Namespace, out: IO[str]) -> int:
    from .graph.io import read_edge_list
    from .shard import RouterConfig, ShardDeployment, ShardRouter

    if args.shards < 1:
        print("error: --shards must be >= 1", file=out)
        return 2
    graph, names = read_edge_list(args.edgelist)
    config = RouterConfig(
        host=args.host,
        port=args.port,
        fanout_timeout=args.fanout_timeout,
    )

    def build() -> ShardRouter:
        deployment = ShardDeployment(
            graph,
            names,
            shards=args.shards,
            seed=args.map_seed,
            params=_params_from(args),
            config=_server_config(args),
        )
        return ShardRouter(deployment, config=config)

    return _serve(build, out)


def cmd_read_serve(args: argparse.Namespace, out: IO[str]) -> int:
    from .readpath import ReadRouter, ReadRouterConfig

    config = ReadRouterConfig(
        host=args.host,
        port=args.port,
        heartbeat_interval=args.heartbeat_interval,
        forward_timeout=args.forward_timeout,
        max_staleness=args.max_staleness,
        primary_read_rate=args.primary_read_rate,
        primary_read_burst=args.primary_read_burst,
    )
    return _serve(
        lambda: ReadRouter(
            _parse_endpoint(args.primary),
            followers=[_parse_endpoint(spec) for spec in args.follower],
            config=config,
        ),
        out,
    )


def cmd_shardmap(args: argparse.Namespace, out: IO[str]) -> int:
    import json

    from .service.client import ServiceError
    from .shard import ShardMap, format_shard_doc, format_shardmap, shard_status

    if args.endpoint is not None:
        host, port = _parse_endpoint(args.endpoint)
        try:
            doc = shard_status(host, port, timeout=args.timeout)
        except (ServiceError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=out)
            return 1
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        else:
            for line in format_shard_doc(doc):
                print(line, file=out)
        return 0
    if args.edgelist is None:
        print("error: provide an edge list or --from HOST:PORT", file=out)
        return 2
    from .graph.io import read_edge_list

    graph, _names = read_edge_list(args.edgelist)
    smap = ShardMap.build(graph, args.shards, seed=args.map_seed)
    if args.format == "json":
        print(json.dumps(smap.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        for line in format_shardmap(smap):
            print(line, file=out)
    return 0


def cmd_datasets(args: argparse.Namespace, out: IO[str]) -> int:
    from .bench.reporting import format_table
    from .workloads.datasets import table1_rows

    print(format_table(table1_rows(), title="Table I stand-ins"), file=out)
    return 0


def cmd_lint(args: argparse.Namespace, out: IO[str]) -> int:
    from .analysis import (
        RuleSourceError,
        all_rules,
        all_whole_program_rules,
        build_project,
        lint_paths,
        render_text,
    )

    if args.list_rules:
        catalogue = [(r.name, r.summary) for r in all_rules()]
        catalogue += [
            (r.name, f"[whole-program] {r.summary}")
            for r in all_whole_program_rules()
        ]
        width = max(len(name) for name, _ in catalogue)
        for name, summary in sorted(catalogue):
            print(f"{name.ljust(width)}  {summary}", file=out)
        return 0
    if args.list_ops:
        from .analysis.rules.protocol import op_inventory

        rows = op_inventory(build_project(args.paths))
        print("| op | handlers | router | emitters |", file=out)
        print("|---|---|---|---|", file=out)
        for row in rows:
            print(
                f"| `{row['op']}` | {row['handlers']} | {row['routing']} "
                f"| {row['emitters']} |",
                file=out,
            )
        return 0
    # Comma-joined values compose with repeated flags:
    # --select a,b --select c  ->  [a, b, c].
    select = None
    if args.select is not None:
        select = [
            name.strip()
            for chunk in args.select
            for name in chunk.split(",")
            if name.strip()
        ]
    try:
        result = lint_paths(args.paths, select=select)
    except (KeyError, RuleSourceError) as exc:
        # An unknown --select name, or a rule that cannot read the
        # sources it derives its checks from: the run cannot judge.
        print(f"error: {exc.args[0]}", file=out)
        return 2
    print(render_text(result), file=out)
    return 0 if result.ok else 1


def cmd_chaos(args: argparse.Namespace, out: IO[str]) -> int:
    from .faults.chaos import (
        SCENARIOS,
        report_lines,
        run_matrix,
        write_report,
    )

    if args.list_scenarios:
        width = max(len(s.name) for s in SCENARIOS)
        for scenario in SCENARIOS:
            print(
                f"{scenario.name.ljust(width)}  [{scenario.mode}] "
                f"expect={scenario.expect}: {scenario.description}",
                file=out,
            )
        return 0
    try:
        report = run_matrix(
            seeds=tuple(args.seeds),
            only=args.scenarios or None,
            workdir=args.workdir,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return 2
    for line in report_lines(report):
        print(line, file=out)
    if args.out is not None:
        write_report(report, args.out)
        print(f"report written to {args.out}", file=out)
    # Silent divergence is the unforgivable outcome; any out-of-contract
    # cell also fails the run so CI catches regressions in the contracts.
    if report["silent_divergence"] or report["ok"] != report["total"]:
        return 1
    return 0


def cmd_promote(args: argparse.Namespace, out: IO[str]) -> int:
    from .replica import ReplicationError, promote
    from .service.client import ServiceError

    old = _parse_endpoint(args.old_primary) if args.old_primary else None
    try:
        summary = promote(
            _parse_endpoint(args.follower),
            old_primary=old,
            timeout=args.timeout,
            catchup_timeout=args.catchup_timeout,
        )
    except (OSError, ServiceError, ReplicationError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    print(
        f"promoted {summary['promoted']} to primary at epoch "
        f"{summary['epoch']}",
        file=out,
    )
    if summary["fenced_old"]:
        print(
            f"fenced old primary (epoch {summary['old_epoch']}, "
            f"{summary['old_entries']} committed entries drained)",
            file=out,
        )
    elif old is not None:
        print(
            "old primary unreachable (not fenced); keep it down or "
            "restart it as a follower",
            file=out,
        )
    return 0


def cmd_replicas(args: argparse.Namespace, out: IO[str]) -> int:
    from .replica import replication_status
    from .service.client import ServiceError

    try:
        status = replication_status(
            _parse_endpoint(args.endpoint), timeout=args.timeout
        )
    except (OSError, ServiceError) as exc:
        print(f"error: {exc}", file=out)
        return 1
    print(
        f"{status['endpoint']}  role={status['role']} "
        f"epoch={status['epoch']} entries={status['entries']}",
        file=out,
    )
    replicas = status.get("replicas")
    if isinstance(replicas, dict) and replicas:
        for follower, info in sorted(replicas.items()):
            print(
                f"  follower {follower}: applied={info.get('applied')} "
                f"lag={info.get('lag')} age={info.get('age')}s "
                f"apply_age={info.get('apply_age')}s",
                file=out,
            )
    else:
        print("  no followers have fetched from this node", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anc",
        description="Clustering Activation Networks (ICDE 2022) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="graph statistics")
    p_info.add_argument("edgelist")
    p_info.set_defaults(func=cmd_info)

    p_cluster = sub.add_parser("cluster", help="cluster a static graph")
    p_cluster.add_argument("edgelist")
    p_cluster.add_argument(
        "--method",
        choices=("anc", "louvain", "scan", "attractor"),
        default="anc",
    )
    p_cluster.add_argument("--level", type=int, default=None,
                           help="granularity level (ANC only; default √n)")
    p_cluster.add_argument("--min-size", type=int, default=1,
                           help="hide clusters smaller than this")
    _add_anc_params(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_stream = sub.add_parser("stream", help="replay an activation stream")
    p_stream.add_argument("edgelist", help="temporal edge list: u v t lines")
    p_stream.add_argument(
        "--engine", choices=("anco", "ancor", "ancf"), default="anco"
    )
    p_stream.add_argument("--at", type=float, action="append",
                          help="snapshot timestamp(s); default: end of stream")
    p_stream.add_argument("--query", default=None,
                          help="report only this node's local cluster")
    p_stream.add_argument("--watch", action="append", default=None,
                          help="print live cluster-change events for this "
                               "node (repeatable)")
    p_stream.add_argument("--level", type=int, default=None,
                          help="granularity level (default √n)")
    p_stream.add_argument("--min-size", type=int, default=1)
    p_stream.add_argument("--trace-out", default=None, metavar="FILE",
                          help="write a Chrome trace_event JSON of the "
                               "replay (open in chrome://tracing or "
                               "Perfetto; docs/observability.md)")
    p_stream.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="write the metrics snapshot (counters, "
                               "gauges, histogram summaries) as JSON")
    p_stream.add_argument("--trace-sample", type=float, default=1.0,
                          help="fraction of root spans to record "
                               "(deterministic 1-in-N; default 1.0)")
    _add_anc_params(p_stream)
    p_stream.set_defaults(func=cmd_stream)

    p_serve = sub.add_parser(
        "serve",
        help="run a long-lived streaming clustering server (docs/service.md)",
    )
    p_serve.add_argument("edgelist", help="relation network: u v (or u v t) lines")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7700,
                         help="TCP port (0 picks a free port; announced on stdout)")
    p_serve.add_argument(
        "--engine", choices=("anco", "ancor", "ancf"), default="anco"
    )
    p_serve.add_argument("--batch-size", type=int, default=64,
                         help="micro-batch flush size")
    p_serve.add_argument("--max-latency", type=float, default=0.05,
                         help="micro-batch flush latency bound (seconds)")
    p_serve.add_argument("--max-pending", type=int, default=4096,
                         help="intake queue bound (backpressure limit)")
    p_serve.add_argument("--data-dir", default=None,
                         help="durability directory (WAL + checkpoints); "
                              "omitted = a throwaway directory, removed "
                              "when the server stops")
    p_serve.add_argument("--checkpoint-every", type=int, default=2000,
                         help="checkpoint after this many applied activations")
    p_serve.add_argument(
        "--role", choices=("primary", "follower"), default="primary",
        help="primary = writable; follower = warm standby replicating "
             "from --primary (docs/replication.md)",
    )
    p_serve.add_argument("--primary", default=None, metavar="HOST:PORT",
                         help="primary endpoint a follower replicates from")
    p_serve.add_argument("--replica-id", default=None,
                         help="identity a follower fetches under "
                              "(default: its own host:port)")
    p_serve.add_argument("--audit-interval", type=float, default=0.25,
                         help="divergence-audit cadence on a follower "
                              "(seconds; 0 = off)")
    p_serve.add_argument("--profile", action="store_true",
                         help="run the sampling wall-clock profiler from "
                              "boot at 97 Hz (query via the 'profile' op; "
                              "docs/observability.md)")
    _add_anc_params(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_shard = sub.add_parser(
        "shard-serve",
        help="run N partitioned engine workers behind a scatter-gather "
             "router (docs/sharding.md)",
    )
    p_shard.add_argument("edgelist", help="relation network: u v (or u v t) lines")
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--port", type=int, default=7700,
                         help="router TCP port (0 picks a free port; "
                              "announced on stdout)")
    p_shard.add_argument("--shards", type=int, default=2,
                         help="number of engine worker processes")
    p_shard.add_argument("--map-seed", type=int, default=0,
                         help="shard-map seed (same graph + seed => same map)")
    p_shard.add_argument(
        "--engine", choices=("anco", "ancor", "ancf"), default="anco"
    )
    p_shard.add_argument("--batch-size", type=int, default=64,
                         help="per-worker micro-batch flush size")
    p_shard.add_argument("--max-latency", type=float, default=0.05,
                         help="per-worker micro-batch flush latency bound (seconds)")
    p_shard.add_argument("--max-pending", type=int, default=4096,
                         help="per-worker intake queue bound (backpressure limit)")
    p_shard.add_argument("--data-dir", default=None,
                         help="durability root; each shard persists under "
                              "<data-dir>/shard-<i> (omitted = a throwaway "
                              "root, removed when the deployment stops)")
    p_shard.add_argument("--checkpoint-every", type=int, default=2000,
                         help="per-worker checkpoint period (applied activations)")
    p_shard.add_argument("--fanout-timeout", type=float, default=10.0,
                         help="scatter-gather deadline per request "
                              "(seconds; 0 = wait forever)")
    _add_anc_params(p_shard)
    p_shard.set_defaults(func=cmd_shard_serve)

    p_read = sub.add_parser(
        "read-serve",
        help="run the read-path router: writes to the primary, "
             "session-tokened reads fanned across its followers "
             "(docs/replication.md)",
    )
    p_read.add_argument("primary", metavar="HOST:PORT",
                        help="the fleet's current primary")
    p_read.add_argument("--follower", action="append", default=[],
                        metavar="HOST:PORT",
                        help="a follower to route reads to (repeatable; "
                             "followers acking under host:port ids also "
                             "auto-register from the primary's replicas view)")
    p_read.add_argument("--host", default="127.0.0.1")
    p_read.add_argument("--port", type=int, default=7800,
                        help="router TCP port (0 picks a free port; "
                             "announced on stdout)")
    p_read.add_argument("--heartbeat-interval", type=float, default=0.25,
                        help="fleet heartbeat cadence (seconds; role/epoch/"
                             "lag refresh and follower auto-registration)")
    p_read.add_argument("--forward-timeout", type=float, default=30.0,
                        help="per-attempt deadline of one forwarded request "
                             "(seconds; 0 = wait forever)")
    p_read.add_argument("--max-staleness", type=int, default=None,
                        help="router-imposed bound on how many records a "
                             "serving follower may trail the primary "
                             "(default: only what each request asks for)")
    p_read.add_argument("--primary-read-rate", type=float, default=200.0,
                        help="sustained reads/second budget for shedding "
                             "reads to the primary when no follower can "
                             "serve (0 = unlimited)")
    p_read.add_argument("--primary-read-burst", type=float, default=64.0,
                        help="burst capacity of the primary read budget")
    p_read.set_defaults(func=cmd_read_serve)

    p_map = sub.add_parser(
        "shardmap",
        help="show how a relation graph partitions across shards",
    )
    p_map.add_argument("edgelist", nargs="?", default=None,
                       help="relation network to partition offline")
    p_map.add_argument("--shards", type=int, default=2,
                       help="number of shards for the offline plan")
    p_map.add_argument("--map-seed", type=int, default=0,
                       help="shard-map seed for the offline plan")
    p_map.add_argument("--from", dest="endpoint", default=None, metavar="HOST:PORT",
                       help="query a running router instead of planning offline")
    p_map.add_argument("--timeout", type=float, default=10.0,
                       help="request timeout when querying a router (seconds)")
    p_map.add_argument("--format", choices=("text", "json"), default="text")
    p_map.set_defaults(func=cmd_shardmap)

    p_stats = sub.add_parser(
        "stats",
        help="fetch a running server's metrics (docs/observability.md)",
    )
    p_stats.add_argument("--host", default="127.0.0.1")
    p_stats.add_argument("--port", type=int, default=7700)
    p_stats.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="prom = Prometheus text exposition; json = stats + metrics",
    )
    p_stats.add_argument("--namespace", default=None,
                         help="metric name prefix (default: anc)")
    p_stats.add_argument("--timeout", type=float, default=10.0,
                         help="connection timeout in seconds")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace",
        help="assemble a merged fleet Chrome trace from a live "
             "deployment (docs/observability.md)",
    )
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument("--port", type=int, default=7700)
    p_trace.add_argument("--out", default=None, metavar="FILE",
                         help="write the Chrome trace_event JSON here "
                              "(default: print to stdout)")
    p_trace.add_argument("--follow", action="store_true",
                         help="keep draining span buffers for --duration "
                              "seconds instead of one fetch")
    p_trace.add_argument("--duration", type=float, default=5.0,
                         help="how long --follow collects (seconds)")
    p_trace.add_argument("--interval", type=float, default=0.5,
                         help="--follow polling period (seconds)")
    p_trace.add_argument("--probe", type=int, default=0, metavar="N",
                         help="send N traced read-only requests first so "
                              "an idle fleet still yields a trace")
    p_trace.add_argument("--trace-id", default=None,
                         help="keep only this trace id in the merged doc")
    p_trace.add_argument("--timeout", type=float, default=10.0,
                         help="connection timeout in seconds")
    p_trace.set_defaults(func=cmd_trace)

    p_data = sub.add_parser("datasets", help="list the Table I stand-ins")
    p_data.set_defaults(func=cmd_datasets)

    p_lint = sub.add_parser(
        "lint",
        help="run the invariant linter (docs/static-analysis.md)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only these rules (repeatable, comma-separable; "
        "default: all rules)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.add_argument(
        "--list-ops", action="store_true",
        help="print the protocol-op inventory table and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection matrix (docs/faults.md)",
    )
    p_chaos.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="scenario names to run (default: the full matrix)",
    )
    p_chaos.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2], metavar="N",
        help="matrix seeds (default: 0 1 2)",
    )
    p_chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep each cell's data in DIR/<scenario>-s<seed>, removing "
        "a leftover directory there first (default: temp dir)",
    )
    p_chaos.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON report to this file",
    )
    p_chaos.add_argument(
        "--list-scenarios", action="store_true",
        help="print the scenario catalogue and exit",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_promote = sub.add_parser(
        "promote",
        help="fail over: fence the old primary, promote a follower "
             "(docs/replication.md)",
    )
    p_promote.add_argument(
        "follower", metavar="HOST:PORT",
        help="the follower to promote to primary",
    )
    p_promote.add_argument(
        "--old-primary", default=None, metavar="HOST:PORT",
        help="fence this node first (best-effort; a dead primary is the "
             "usual failover trigger)",
    )
    p_promote.add_argument("--timeout", type=float, default=5.0,
                           help="per-request timeout in seconds")
    p_promote.add_argument(
        "--catchup-timeout", type=float, default=10.0,
        help="max seconds to wait for the follower to drain a fenced "
             "primary's committed log",
    )
    p_promote.set_defaults(func=cmd_promote)

    p_replicas = sub.add_parser(
        "replicas",
        help="one node's replication status (role, epoch, follower lag)",
    )
    p_replicas.add_argument(
        "endpoint", metavar="HOST:PORT", help="node to interrogate"
    )
    p_replicas.add_argument("--timeout", type=float, default=5.0,
                            help="connection timeout in seconds")
    p_replicas.set_defaults(func=cmd_replicas)

    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[IO[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
