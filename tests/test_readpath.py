"""repro.readpath: session tokens, bounded staleness, lag-aware routing.

End-to-end tests drive a real primary + follower fleet (chaos-harness
:class:`ServerThread` instances) behind a live
:class:`~repro.readpath.router.ReadRouter`
(:class:`~repro.faults.chaos.ReadRouterThread`) through the blocking
client — the same path ``repro-anc read-serve`` takes.  The contracts
under test are the ones docs/replication.md § Read routing states:

* a read carrying a session token is served only by a node whose
  applied watermark has passed it; otherwise the refusal is a *typed*
  ``STALE`` carrying both watermarks — never silently-stale data;
* ``max_staleness`` bounds a serving follower's replication lag the
  same way;
* the degradation ladder ends in a typed ``RETRY_AFTER`` once the
  primary read budget is exhausted, and the budget is bypassed when no
  followers are registered at all;
* the session survives a failover: after ``promote``, tokened reads
  through the router reflect the session's writes or refuse typed,
  and passthrough writes land on whichever node now holds the highest
  epoch (property-style sweep at the bottom).
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.anc import make_engine
from repro.faults import ServerThread, engine_signature
from repro.faults.chaos import QUICK_PARAMS, ReadRouterThread
from repro.graph.generators import planted_partition
from repro.obs import fleet_trace_summary
from repro.readpath import ReadRouterConfig
from repro.replica import promote, replication_status
from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.errors import Stale
from repro.service.server import ServerConfig
from repro.service.snapshots import apply_activations
from repro.workloads.streams import community_biased_stream

#: Codes a degraded read may legally surface — all typed, none stale.
TYPED_DENIALS = frozenset({"STALE", "RETRY_AFTER", "UNAVAILABLE", "TIMEOUT", "CONNECT"})


def make_workload(seed=5, *, nodes=30, timestamps=8):
    graph, labels = planted_partition(nodes, 3, p_in=0.5, p_out=0.05, seed=seed + 7)
    stream = community_biased_stream(
        graph, labels, timestamps=timestamps, fraction=0.1, seed=seed
    )
    return graph, list(stream)


def serve(graph, **config_kwargs):
    config = ServerConfig(
        port=0, engine="anco", **config_kwargs
    )
    return ServerThread(graph, config=config, params=QUICK_PARAMS)


def follower_kwargs(primary_port):
    return dict(
        role="follower",
        primary_host="127.0.0.1",
        primary_port=primary_port,
        audit_interval=0.05,
    )


def wait_for(cond, *, timeout=15.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.01)


def caught_up(handle, target):
    host = handle.server.host
    return host.ingested >= target and host.applied >= target


def batches_of(stream, size=25):
    items = [(a.u, a.v, a.t) for a in stream]
    return [items[i : i + size] for i in range(0, len(items), size)]


def free_dead_port():
    """A port nothing listens on (bound once, then released)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def read_counts(rt, *followers):
    """The router's forwards and read counters, and the queries its
    followers served."""
    router = rt.router.metrics.snapshot()
    counters = router["counters"]
    return {
        "forwards": router["histograms"]["readpath_forward_seconds"]["count"],
        "follower_reads": counters["readpath_follower_reads"],
        "primary_reads": counters["readpath_primary_reads"],
        "queries_served": sum(
            f.server.metrics.snapshot()["counters"]["queries_served"]
            for f in followers
        ),
    }


def router_config(**overrides):
    base = dict(heartbeat_interval=0.05)
    base.update(overrides)
    return ReadRouterConfig(**base)


# ----------------------------------------------------------------------
# Server-side read bounds: the typed STALE refusal
# ----------------------------------------------------------------------

class TestReadBounds:
    def test_stale_carries_both_watermarks(self):
        fault = Stale("behind", applied=3, required=9)
        doc = fault.to_response()
        assert doc["error_type"] == "STALE"
        assert doc["applied"] == 3
        assert doc["required"] == 9

    def test_token_past_watermark_refused_typed(self, tmp_path):
        """A read whose session token outruns the node's applied count
        must refuse with STALE, not serve the older snapshot."""
        graph, stream = make_workload(8)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            client = ServiceClient(
                primary.host, primary.port, timeout=5.0,
                retry=RetryPolicy(attempts=2, base_delay=0.01, seed=0),
            )
            try:
                client.ingest_batch([(a.u, a.v, a.t) for a in stream[:10]], key="b0")
                applied = client.sync()
                # Satisfied token: serves.
                doc = client.request("clusters", token=applied)
                assert doc["applied"] >= applied
                # Unsatisfiable token: typed STALE.
                with pytest.raises(ServiceError) as err:
                    client.request("clusters", token=applied + 1000)
                assert err.value.code == "STALE"
            finally:
                client.close()

    def test_max_staleness_bounds_follower_lag(self, tmp_path):
        """A follower whose replication lag exceeds the request's
        max_staleness refuses typed; a zero-lag one serves."""
        graph, stream = make_workload(9)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph, data_dir=tmp_path / "f", **follower_kwargs(primary.port)
            ) as follower:
                writer = ServiceClient(primary.host, primary.port, timeout=5.0)
                try:
                    for i, items in enumerate(batches_of(stream)):
                        writer.ingest_batch(items, key=f"ms-{i}")
                    total = writer.sync()
                finally:
                    writer.close()
                wait_for(
                    lambda: caught_up(follower, total), what="follower catch-up"
                )
                reader = ServiceClient(follower.host, follower.port, timeout=5.0)
                try:
                    doc = reader.request("clusters", max_staleness=0)
                    assert doc["applied"] == total
                finally:
                    reader.close()

    def test_replicas_reports_apply_age(self, tmp_path):
        """The replicas op now reports seconds since the last applied
        advance, so a heartbeating-but-stuck follower is visible."""
        graph, stream = make_workload(10)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph, data_dir=tmp_path / "f", **follower_kwargs(primary.port)
            ) as follower:
                writer = ServiceClient(primary.host, primary.port, timeout=5.0)
                try:
                    writer.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream[:20]], key="aa-0"
                    )
                    total = writer.sync()
                finally:
                    writer.close()
                wait_for(
                    lambda: caught_up(follower, total), what="follower catch-up"
                )
                status = replication_status(("127.0.0.1", primary.port), timeout=5.0)
                replicas = status["replicas"]
                assert replicas, "follower should have acked by now"
                info = next(iter(replicas.values()))
                assert info["applied"] == total
                assert isinstance(info["apply_age"], float)
                assert info["apply_age"] >= 0.0
                assert isinstance(info["age"], float)


# ----------------------------------------------------------------------
# Client sessions: tokens advance on writes, shed windows reset on epoch
# ----------------------------------------------------------------------

class TestSessionClient:
    def test_session_token_advances_with_writes(self, tmp_path):
        graph, stream = make_workload(11)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            client = ServiceClient(
                primary.host, primary.port, timeout=5.0, session_reads=True
            )
            try:
                assert client.session_token == 0
                seq = client.ingest_batch(
                    [(a.u, a.v, a.t) for a in stream[:10]], key="tok-0"
                )
                assert client.session_token == seq + 1
                # sync() can only raise the watermark, never lower it.
                applied = client.sync()
                assert client.session_token >= applied
                doc = client.clusters_info()
                assert doc["applied"] >= client.session_token
            finally:
                client.close()

    def test_shed_windows_cleared_on_epoch_advance(self):
        """A RETRY_AFTER shed window recorded against the pre-failover
        topology must not outlive a promotion (observed epoch advance)."""
        client = ServiceClient.__new__(ServiceClient)
        client.last_epoch = 1
        client._shed_until = {0: time.monotonic() + 60.0, 1: time.monotonic() + 60.0}
        previous = client._observe_epoch({"epoch": 1, "role": "primary"})
        assert previous == 1 and client._shed_until  # no advance: windows stay
        previous = client._observe_epoch({"epoch": 2, "role": "primary"})
        assert previous == 1
        assert client._shed_until == {}  # promotion clears every window


# ----------------------------------------------------------------------
# The router: lag-aware fan-out and the degradation ladder
# ----------------------------------------------------------------------

class TestReadRouter:
    def test_read_your_writes_and_fanout(self, tmp_path):
        """A tokened session through the router never reads below its
        own writes, and reads spread across caught-up followers."""
        graph, stream = make_workload(12)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph, data_dir=tmp_path / "f1", **follower_kwargs(primary.port)
            ) as f1, serve(
                graph, data_dir=tmp_path / "f2", **follower_kwargs(primary.port)
            ) as f2:
                with ReadRouterThread(
                    ("127.0.0.1", primary.port),
                    followers=[
                        ("127.0.0.1", f1.port),
                        ("127.0.0.1", f2.port),
                    ],
                    config=router_config(),
                ) as rt:
                    client = ServiceClient(
                        rt.host, rt.port, timeout=5.0, session_reads=True,
                        retry=RetryPolicy(attempts=8, base_delay=0.02, seed=0),
                    )
                    served_by = set()
                    try:
                        for i, items in enumerate(batches_of(stream)):
                            client.ingest_batch(items, key=f"rw-{i}")
                            doc = client.clusters_info()
                            assert doc["applied"] >= client.session_token
                            served_by.add(doc["served_by"])
                        total = client.sync()
                        assert total == len(stream)
                        wait_for(lambda: caught_up(f1, total), what="f1 catch-up")
                        wait_for(lambda: caught_up(f2, total), what="f2 catch-up")
                        # Steady state: each read is forwarded once, to the
                        # follower fleet, and smooth WRR spreads them
                        # across both.
                        before = read_counts(rt, f1, f2)
                        steady = set()
                        for _ in range(8):
                            steady.add(client.clusters_info()["served_by"])
                        after = read_counts(rt, f1, f2)
                        assert {k: after[k] - before[k] for k in after} == {
                            "forwards": 8,
                            "follower_reads": 8,
                            "primary_reads": 0,
                            "queries_served": 8,
                        }
                        assert steady <= {
                            f"127.0.0.1:{f1.port}",
                            f"127.0.0.1:{f2.port}",
                        }
                        assert len(steady) == 2
                    finally:
                        client.close()

    def test_follower_autoregistration_from_primary(self, tmp_path):
        """Followers acking under their host:port default id appear in
        the router's fleet without being configured."""
        graph, stream = make_workload(13)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph, data_dir=tmp_path / "f", **follower_kwargs(primary.port)
            ) as follower:
                with ReadRouterThread(
                    ("127.0.0.1", primary.port), config=router_config()
                ) as rt:
                    client = ServiceClient(rt.host, rt.port, timeout=5.0)
                    try:
                        client.ingest_batch(
                            [(a.u, a.v, a.t) for a in stream[:10]], key="ar-0"
                        )
                        wait_for(
                            lambda: client.request("route_status")[
                                "followers_alive"
                            ] >= 1,
                            what="follower auto-registration",
                        )
                        status = client.request("route_status")
                        assert f"127.0.0.1:{follower.port}" in status["upstreams"]
                    finally:
                        client.close()

    def test_trace_fetch_gathers_the_fleet(self, tmp_path):
        """The router answers ``trace_fetch`` with its own spans and each
        upstream's: a traced read served by a follower is one connected
        trace across the router and the follower."""
        graph, stream = make_workload(15)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph, data_dir=tmp_path / "f", **follower_kwargs(primary.port)
            ) as follower:
                fkey = f"127.0.0.1:{follower.port}"
                with ReadRouterThread(
                    ("127.0.0.1", primary.port),
                    followers=[("127.0.0.1", follower.port)],
                    config=router_config(),
                ) as rt:
                    client = ServiceClient(rt.host, rt.port, timeout=5.0)
                    reader = ServiceClient(
                        rt.host, rt.port, timeout=5.0, trace_sample=1.0
                    )
                    try:
                        client.ingest_batch(
                            [(a.u, a.v, a.t) for a in stream[:20]], key="tf-0"
                        )
                        total = client.sync()
                        wait_for(lambda: caught_up(follower, total), what="catch-up")
                        wait_for(
                            lambda: client.request("route_status")["upstreams"][
                                fkey
                            ]["lag"] == 0,
                            what="the router to see the follower caught up",
                        )
                        assert reader.clusters_info()["served_by"] == fkey
                        processes = client.trace_fetch()["processes"]
                    finally:
                        client.close()
                        reader.close()
        # The router's own lane first, then its upstreams in key order.
        assert processes[0]["process"] == "readpath-router"
        assert sorted(p["process"] for p in processes[1:]) == ["follower", "primary"]
        traced = {
            p["process"] for p in processes if any("trace" in s for s in p["spans"])
        }
        assert traced == {"readpath-router", "follower"}
        (info,) = fleet_trace_summary(processes).values()
        assert info["connected"]
        assert info["roots"] == ["readpath.clusters"]

    def test_budget_exhaustion_is_typed_retry_after(self, tmp_path):
        """Followers down + primary budget spent ends the ladder in a
        typed RETRY_AFTER, never silently-stale or untyped data."""
        graph, stream = make_workload(14)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with ReadRouterThread(
                ("127.0.0.1", primary.port),
                followers=[("127.0.0.1", free_dead_port())],
                config=router_config(
                    primary_read_rate=1e-6, primary_read_burst=1.0
                ),
            ) as rt:
                client = ServiceClient(
                    rt.host, rt.port, timeout=5.0,
                    retry=RetryPolicy(attempts=1),
                )
                try:
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream[:10]], key="bg-0"
                    )
                    # The single budget token pays for one shed read...
                    doc = client.clusters_info()
                    assert doc["served_by"] == f"127.0.0.1:{primary.port}"
                    # ...and the next one is a typed shed.
                    with pytest.raises(ServiceError) as err:
                        client.clusters_info()
                    assert err.value.code == "RETRY_AFTER"
                finally:
                    client.close()

    def test_budget_bypassed_without_followers(self, tmp_path):
        """A router fronting a lone primary is just a proxy: the primary
        read budget only meters *shedding*, not the whole read path."""
        graph, stream = make_workload(15)
        with serve(graph, data_dir=tmp_path / "p") as primary:
            with ReadRouterThread(
                ("127.0.0.1", primary.port),
                config=router_config(
                    primary_read_rate=1e-6,
                    primary_read_burst=1.0,
                    # No replicas op traffic => no auto-registration race.
                    heartbeat_interval=0.0,
                ),
            ) as rt:
                client = ServiceClient(rt.host, rt.port, timeout=5.0)
                try:
                    client.ingest_batch(
                        [(a.u, a.v, a.t) for a in stream[:10]], key="nb-0"
                    )
                    for _ in range(5):
                        doc = client.clusters_info()
                        assert doc["served_by"] == f"127.0.0.1:{primary.port}"
                finally:
                    client.close()


# ----------------------------------------------------------------------
# Property-style: read-your-writes survives a failover
# ----------------------------------------------------------------------

class TestReadYourWritesAcrossFailover:
    def test_session_reads_never_older_than_token(self, tmp_path):
        """Write through the router, fail the fleet over mid-session,
        keep reading: every tokened read either reflects the session's
        writes (applied >= token) or refuses with a typed denial.  An
        ``ok`` response below the token — silent staleness — fails the
        property outright, before and after the promotion."""
        graph, stream = make_workload(16, timestamps=10)
        oracle = make_engine("ANCO", graph, QUICK_PARAMS)
        apply_activations(oracle, stream)
        batches = batches_of(stream)
        half = len(batches) // 2
        violations = []
        denials = []

        def checked_read(client):
            token = client.session_token
            try:
                doc = client.clusters_info()
            except ServiceError as exc:
                assert exc.code in TYPED_DENIALS, f"untyped denial: {exc.code}"
                denials.append(exc.code)
                return
            if doc["applied"] < token:
                violations.append((token, doc["applied"]))

        with serve(graph, data_dir=tmp_path / "p") as primary:
            with serve(
                graph, data_dir=tmp_path / "f1", **follower_kwargs(primary.port)
            ) as f1, serve(
                graph, data_dir=tmp_path / "f2", **follower_kwargs(primary.port)
            ) as f2:
                with ReadRouterThread(
                    ("127.0.0.1", primary.port),
                    followers=[
                        ("127.0.0.1", f1.port),
                        ("127.0.0.1", f2.port),
                    ],
                    config=router_config(),
                ) as rt:
                    client = ServiceClient(
                        rt.host, rt.port, timeout=5.0, session_reads=True,
                        retry=RetryPolicy(
                            attempts=8, base_delay=0.02, max_delay=0.25, seed=0
                        ),
                    )
                    try:
                        for i in range(half):
                            client.ingest_batch(batches[i], key=f"fo-{i}")
                            checked_read(client)
                        pre_token = client.session_token
                        wait_for(
                            lambda: caught_up(f1, pre_token),
                            what="f1 catch-up before the failover",
                        )
                        promote(
                            ("127.0.0.1", f1.port),
                            old_primary=("127.0.0.1", primary.port),
                            timeout=2.0,
                        )
                        # The token predates the failover; the next reads
                        # must still honour it.
                        for _ in range(4):
                            checked_read(client)
                        # Passthrough writes re-resolve to the new primary.
                        for i in range(half, len(batches)):
                            client.ingest_batch(batches[i], key=f"fo-{i}")
                            checked_read(client)
                        total = client.sync()
                    finally:
                        client.close()
                    assert violations == [], (
                        f"silent-stale reads observed: {violations}"
                    )
                    assert total == len(stream)
                    assert f1.server.role == "primary"
                    assert f1.server.epoch > 1
                    # The promoted node converges on the oracle's state:
                    # the replayed/pass-through session stayed exactly-once.
                    wait_for(
                        lambda: f1.server.host.applied >= len(stream),
                        what="new primary to absorb the full session",
                    )
                    assert engine_signature(f1.server.host.engine) == (
                        engine_signature(oracle)
                    )
