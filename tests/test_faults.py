"""The fault-injection subsystem and the resilience it exposes.

Covers, bottom-up:

* :class:`repro.faults.plan.FaultPlan` trigger semantics (count,
  probability, phase, max_fires) and determinism;
* the WAL's checksummed record format, its three corruption classes and
  each ``wal.append`` injector;
* checkpoint torn-write / bit-rot handling;
* the crash-between-append-and-apply regression (restart must equal the
  fault-free oracle bit-for-bit);
* the hardened :class:`~repro.service.client.ServiceClient`: typed
  connect errors, deterministic backoff, the circuit breaker, and the
  end-to-end exactly-once acceptance run against a live server with
  dropped connections and a mid-stream reset;
* server graceful degradation: overload shedding (typed
  ``RETRY_AFTER``), slow-reader eviction, the ``degraded`` flag.

The full injector × seed matrix lives in ``tests/chaos/`` behind the
``chaos`` marker; tier-1 runs one seed-0 cell per family, plus the
matrix's own plumbing (workdir reuse, the fired-fault rule).
"""

from __future__ import annotations

import socket
import time
import zlib

import pytest

from repro.core.anc import make_engine
from repro.faults import (
    CATALOG,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    Scenario,
    ServerThread,
    engine_signature,
    run_matrix,
    run_scenario,
    scenario_by_name,
)
from repro.faults.chaos import QUICK_PARAMS, SCENARIOS
from repro.graph.generators import planted_partition
from repro.service.breaker import CircuitBreaker
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceConnectError,
    ServiceError,
    ServiceRetryAfter,
    ServiceTimeout,
)
from repro.service import server as server_module
from repro.service.server import ServerConfig
from repro.service.snapshots import (
    CheckpointCorruptError,
    CheckpointStore,
    WalCorruptError,
    WriteAheadLog,
    apply_activations,
    recover_to,
)
from repro.workloads.streams import community_biased_stream


def make_workload(seed=3, *, nodes=30, timestamps=8):
    graph, labels = planted_partition(nodes, 3, p_in=0.5, p_out=0.05, seed=seed + 7)
    stream = community_biased_stream(
        graph, labels, timestamps=timestamps, fraction=0.1, seed=seed
    )
    return graph, list(stream)


# ----------------------------------------------------------------------
# FaultPlan triggers
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_at_count_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec("wal.append", "torn-tail", at_count=3)])
        actions = [plan.hit("wal.append") for _ in range(6)]
        assert [a is not None for a in actions] == [
            False, False, True, False, False, False
        ]
        assert plan.hits("wal.append") == 6
        assert plan.fired == [{"site": "wal.append", "kind": "torn-tail", "hit": 3}]

    def test_max_fires_bounds_probability_spec(self):
        plan = FaultPlan(
            [FaultSpec("server.request", "delay", probability=1.0, max_fires=2)],
            seed=1,
        )
        fired = sum(plan.hit("server.request") is not None for _ in range(10))
        assert fired == 2
        assert not plan.armed

    def test_probability_is_deterministic_per_seed(self):
        def pattern(seed):
            plan = FaultPlan(
                [
                    FaultSpec(
                        "server.request", "delay",
                        probability=0.5, max_fires=100,
                    )
                ],
                seed=seed,
            )
            return [plan.hit("server.request") is not None for _ in range(40)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # 1-in-2^40 flake if RNGs collide

    def test_phase_gating(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    "index.load", "delay",
                    probability=1.0, phase="recovery",
                )
            ]
        )
        plan.set_phase("live")
        assert plan.hit("index.load") is None
        plan.set_phase("recovery")
        action = plan.hit("index.load")
        assert action is not None and action.kind == "delay"

    def test_site_mismatch_never_fires(self):
        plan = FaultPlan([FaultSpec("wal.append", "crash", at_count=1)])
        assert plan.hit("checkpoint.write") is None
        assert plan.armed

    def test_report_shape(self):
        plan = FaultPlan([FaultSpec("wal.append", "crash", at_count=1)], seed=9)
        plan.hit("wal.append", seq=0)
        report = plan.report()
        assert report["seed"] == 9
        assert report["hits"] == {"wal.append": 1}
        assert report["fired"] == [
            {"site": "wal.append", "kind": "crash", "hit": 1, "seq": 0}
        ]

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("wal.append", "crash")
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("wal.append", "crash", at_count=1, probability=0.5)
        with pytest.raises(ValueError, match="at_count"):
            FaultSpec("wal.append", "crash", at_count=0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("wal.append", "crash", probability=1.5)
        with pytest.raises(ValueError, match="does not support kind"):
            FaultPlan([FaultSpec("wal.append", "no-such-kind", at_count=1)])
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan([FaultSpec("no.such.site", "crash", at_count=1)])

    def test_action_seconds_narrowing(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    "server.request", "delay",
                    at_count=1, args={"seconds": 0.25},
                ),
                FaultSpec(
                    "server.request", "delay",
                    at_count=2, args={"seconds": "bogus"},
                ),
            ]
        )
        assert plan.hit("server.request").seconds() == 0.25
        assert plan.hit("server.request").seconds(0.1) == 0.1

    def test_catalog_covers_every_scenario_site(self):
        for scenario in SCENARIOS:
            for spec in scenario.specs(0, 200):
                assert spec.site in CATALOG
                assert spec.kind in CATALOG[spec.site]


# ----------------------------------------------------------------------
# WAL format and injectors
# ----------------------------------------------------------------------

class TestWalFormat:
    def acts(self, graph, stream, n):
        return stream[:n]

    def test_round_trip_checksummed(self, tmp_path):
        graph, stream = make_workload()
        wal = WriteAheadLog(tmp_path / "wal.log")
        for act in stream[:10]:
            wal.append(act)
        wal.close()
        assert list(WriteAheadLog.replay(tmp_path / "wal.log")) == stream[:10]

    def test_mid_file_garbage_is_typed(self, tmp_path):
        """Only the seven-field record replays: garbage, a three-field
        ``u v t`` line and a five-field ``seq u v t crc`` line (whose
        checksum matches its own body) are all damage mid-file."""
        graph, stream = make_workload()
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for act in stream[:4]:
            wal.append(act)
        wal.close()
        lines = path.read_text().splitlines()
        act = stream[1]
        body = f"1 {act.u} {act.v} {act.t!r}"
        for damaged in (
            "garbage line",
            f"{act.u} {act.v} {act.t!r}",
            f"{body} {zlib.crc32(body.encode()):08x}",
        ):
            lines[1] = damaged
            path.write_text("".join(line + "\n" for line in lines))
            with pytest.raises(WalCorruptError, match="corrupt WAL line 1"):
                list(WriteAheadLog.replay(path))

    def test_sequence_gap_is_typed(self, tmp_path):
        graph, stream = make_workload()
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for act in stream[:5]:
            wal.append(act)
        wal.close()
        lines = path.read_text().splitlines()
        del lines[2]  # a lost page write inside the acknowledged stream
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(WalCorruptError, match="sequence gap"):
            list(WriteAheadLog.replay(path))

    @pytest.mark.parametrize("kind", ["torn-tail", "short-write", "bit-flip"])
    def test_torn_tail_kinds_crash_then_repair(self, tmp_path, kind):
        graph, stream = make_workload()
        path = tmp_path / "wal.log"
        plan = FaultPlan([FaultSpec("wal.append", kind, at_count=4)])
        wal = WriteAheadLog(path, faults=plan)
        with pytest.raises(InjectedCrash):
            for act in stream[:6]:
                wal.append(act)
        wal.close()
        # Replay of the damaged file silently drops only the torn tail...
        assert list(WriteAheadLog.replay(path)) == stream[:3]
        # ...and reopening repairs the file so appends continue the seq.
        wal2 = WriteAheadLog(path)
        assert wal2.entries == 3
        wal2.append(stream[3])
        wal2.close()
        assert list(WriteAheadLog.replay(path)) == stream[:4]

    def test_fsync_loss_surfaces_as_gap(self, tmp_path):
        graph, stream = make_workload()
        path = tmp_path / "wal.log"
        plan = FaultPlan([FaultSpec("wal.append", "fsync-loss", at_count=3)])
        wal = WriteAheadLog(path, faults=plan)
        for act in stream[:5]:  # append 3 is acked but never written
            wal.append(act)
        wal.close()
        with pytest.raises(WalCorruptError, match="sequence gap"):
            list(WriteAheadLog.replay(path))

    def test_crash_kind_keeps_record(self, tmp_path):
        graph, stream = make_workload()
        path = tmp_path / "wal.log"
        plan = FaultPlan([FaultSpec("wal.append", "crash", at_count=3)])
        wal = WriteAheadLog(path, faults=plan)
        with pytest.raises(InjectedCrash):
            for act in stream[:5]:
                wal.append(act)
        wal.close()
        # The record hit the disk before the simulated kill -9.
        assert list(WriteAheadLog.replay(path)) == stream[:3]

    def test_disarmed_wal_has_no_plan(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert wal.faults is None
        wal.close()


# ----------------------------------------------------------------------
# Checkpoint corruption classes
# ----------------------------------------------------------------------

class TestCheckpointFaults:
    def run_to_checkpoint(self, tmp_path, plan=None):
        graph, stream = make_workload()
        store = CheckpointStore(tmp_path / "data", faults=plan)
        wal = WriteAheadLog(store.wal_path, faults=plan)
        engine = make_engine("ANCO", graph, QUICK_PARAMS)
        for act in stream[:30]:
            wal.append(act)
            apply_activations(engine, [act])
        wal.close()
        return graph, stream, store, engine

    def test_skip_manifest_checkpoint_is_ignored(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec("checkpoint.write", "skip-manifest", at_count=1)]
        )
        graph, stream, store, engine = self.run_to_checkpoint(tmp_path, plan)
        with pytest.raises(InjectedCrash):
            store.write_checkpoint(engine)
        assert store.latest_checkpoint() is None
        recovery = recover_to(graph, store, params=QUICK_PARAMS)
        assert recovery.replayed == 30
        assert engine_signature(recovery.engine) == engine_signature(engine)

    def test_bit_rot_fails_the_checksum(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec("checkpoint.write", "corrupt-engine", at_count=1)]
        )
        graph, stream, store, engine = self.run_to_checkpoint(tmp_path, plan)
        store.write_checkpoint(engine)  # completes: rot happens post-fsync
        assert store.latest_checkpoint() is not None
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            recover_to(graph, store, params=QUICK_PARAMS)

    def test_index_bit_rot_fails_the_checksum(self, tmp_path):
        graph, stream, store, engine = self.run_to_checkpoint(tmp_path)
        path = store.write_checkpoint(engine)
        index = path / "index.json"
        index.write_text(index.read_text() + " ")
        with pytest.raises(CheckpointCorruptError, match="index.json"):
            recover_to(graph, store, params=QUICK_PARAMS)

    def test_crashed_recut_replays_the_wal(self, tmp_path):
        """A restart followed by a clean stop with no new writes cuts
        the same checkpoint again.  A crash halfway through that re-cut
        must not brick the data dir: recovery ignores the torn directory
        and replays the intact WAL to the uninterrupted engine."""
        plan = FaultPlan(
            [FaultSpec("checkpoint.write", "truncate-engine", at_count=2)]
        )
        graph, stream, store, engine = self.run_to_checkpoint(tmp_path, plan)
        store.write_checkpoint(engine)  # the first clean stop
        restarted = recover_to(graph, store, params=QUICK_PARAMS).engine
        with pytest.raises(InjectedCrash):
            store.write_checkpoint(restarted)  # its clean stop, torn
        recovery = recover_to(graph, store, params=QUICK_PARAMS)
        assert recovery.replayed == 30
        assert engine_signature(recovery.engine) == engine_signature(engine)

    def test_crash_between_append_and_apply(self, tmp_path):
        """Satellite regression: kill -9 after WAL append, before apply.

        The restarted engine replays the orphan record the crashed
        process never applied, the "client" resends what was never
        acknowledged, and the result equals the fault-free oracle
        bit-for-bit.
        """
        graph, stream = make_workload()
        oracle = make_engine("ANCO", graph, QUICK_PARAMS)
        apply_activations(oracle, stream)

        plan = FaultPlan([FaultSpec("wal.append", "crash", at_count=21)])
        store = CheckpointStore(tmp_path / "data", faults=plan)
        wal = WriteAheadLog(store.wal_path, faults=plan)
        engine = make_engine("ANCO", graph, QUICK_PARAMS)
        applied = 0
        with pytest.raises(InjectedCrash):
            for act in stream:
                wal.append(act)  # raises on act 21: appended, never applied
                apply_activations(engine, [act])
                applied += 1
        wal.close()
        assert applied == 20
        del engine  # kill -9: in-memory state is gone

        recovery = recover_to(graph, store, params=QUICK_PARAMS)
        recovered = recovery.engine
        assert recovery.replayed == 21  # includes the orphan append
        resend = stream[recovered.activations_processed:]
        wal2 = WriteAheadLog(store.wal_path)
        for act in resend:
            wal2.append(act)
            apply_activations(recovered, [act])
        wal2.close()
        assert engine_signature(recovered) == engine_signature(oracle)


# ----------------------------------------------------------------------
# Client hardening (typed errors, backoff, breaker)
# ----------------------------------------------------------------------

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestClientTypedErrors:
    def test_refused_connection_is_typed(self):
        port = free_port()
        with pytest.raises(ServiceConnectError, match="cannot connect"):
            ServiceClient(
                "127.0.0.1", port,
                retry=RetryPolicy(attempts=2, base_delay=0.001),
            )

    def test_connect_timeout_is_typed(self, monkeypatch):
        def fake_create_connection(address, timeout=None):
            raise socket.timeout("timed out")

        monkeypatch.setattr(socket, "create_connection", fake_create_connection)
        with pytest.raises(ServiceTimeout, match="timed out"):
            ServiceClient("127.0.0.1", 1, timeout=0.01)

    def test_typed_errors_are_service_errors(self):
        assert issubclass(ServiceConnectError, ServiceError)
        assert issubclass(ServiceTimeout, ServiceError)
        assert issubclass(ServiceRetryAfter, ServiceError)
        assert ServiceConnectError("x").code == "CONNECT"
        assert ServiceTimeout("x").code == "TIMEOUT"


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        import random as _random

        policy = RetryPolicy(
            attempts=5, base_delay=0.1, factor=2.0, max_delay=0.5, jitter=0.25
        )
        a = [policy.delay(k, _random.Random(3)) for k in range(4)]
        b = [policy.delay(k, _random.Random(3)) for k in range(4)]
        assert a == b
        for k, d in enumerate(a):
            raw = min(0.1 * 2.0 ** k, 0.5)
            assert raw * 0.75 <= d <= raw * 1.25

    def test_no_jitter_is_exact(self):
        import random as _random

        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.3, jitter=0.0)
        rng = _random.Random(0)
        assert [policy.delay(k, rng) for k in range(4)] == [0.1, 0.2, 0.3, 0.3]


class TestCircuitBreaker:
    def test_transitions_with_fake_clock(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown=10.0, clock=lambda: now[0]
        )
        assert breaker.allow() and breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # still under threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 1
        assert not breaker.allow()  # cooling down
        now[0] = 10.5
        assert breaker.allow()  # probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # probe failed: straight back to open
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 2
        now[0] = 21.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0


# ----------------------------------------------------------------------
# End-to-end resilience against a live server
# ----------------------------------------------------------------------

def serve(graph, plan=None, **config_kwargs):
    config = ServerConfig(
        port=0, engine="anco", faults=plan, **config_kwargs
    )
    return ServerThread(graph, config=config, params=QUICK_PARAMS)


class TestEndToEndResilience:
    def test_exactly_once_through_resets(self):
        """The acceptance run: the server drops the client's first two
        connections and resets one connection mid-stream; retry +
        seq-keyed resend still ingests the stream exactly once, and the
        breaker/retry counters surface in ``metrics_text()``."""
        graph, stream = make_workload(5)
        oracle = make_engine("ANCO", graph, QUICK_PARAMS)
        apply_activations(oracle, stream)

        plan = FaultPlan(
            [
                FaultSpec("server.accept", "reset", at_count=1),
                FaultSpec("server.accept", "reset", at_count=2),
                FaultSpec("server.request", "reset", at_count=2),
            ]
        )
        with serve(graph, plan) as handle:
            client = ServiceClient(
                handle.host, handle.port, timeout=5.0,
                retry=RetryPolicy(attempts=8, base_delay=0.01, max_delay=0.1),
            )
            try:
                for start in range(0, len(stream), 20):
                    chunk = stream[start:start + 20]
                    client.ingest_batch([(a.u, a.v, a.t) for a in chunk])
                assert client.sync() == len(stream)
                text = client.metrics_text()
            finally:
                client.close()
            assert client.retries >= 1  # both accept resets + the request reset
            signature = engine_signature(handle.server.host.engine)
        assert signature == engine_signature(oracle)
        assert "anc_client_retries_total" in text
        assert "anc_client_breaker_state" in text
        retries = float(
            next(
                line.split()[1]
                for line in text.splitlines()
                if line.startswith("anc_client_retries_total ")
            )
        )
        assert retries >= 1.0
        assert len(plan.fired) == 3

    def test_overload_shed_is_typed_retry_after(self):
        graph, stream = make_workload(6)
        plan = FaultPlan(
            [FaultSpec("ingest.flush", "delay", at_count=1, args={"seconds": 0.4})]
        )
        with serve(
            graph, plan, batch_size=4, max_latency=0.005, shed_watermark=8
        ) as handle:
            client = ServiceClient(
                handle.host, handle.port, timeout=5.0,
                retry=RetryPolicy(attempts=1),  # surface the shed, don't retry
            )
            try:
                with pytest.raises(ServiceRetryAfter) as excinfo:
                    client.ingest_batch([(a.u, a.v, a.t) for a in stream[:60]])
                assert excinfo.value.retry_after > 0.0
                assert excinfo.value.code == "RETRY_AFTER"
                stats = client.stats()
                assert stats["degraded"] is True
            finally:
                client.close()
            counters = handle.server.metrics.snapshot()["counters"]
            assert counters["ingest_shed"] >= 1

    def test_shed_recovers_with_retrying_client(self):
        graph, stream = make_workload(7)
        oracle = make_engine("ANCO", graph, QUICK_PARAMS)
        apply_activations(oracle, stream)
        plan = FaultPlan(
            [FaultSpec("ingest.flush", "delay", at_count=1, args={"seconds": 0.3})]
        )
        with serve(
            graph, plan, batch_size=8, max_latency=0.005, shed_watermark=12
        ) as handle:
            client = ServiceClient(
                handle.host, handle.port, timeout=5.0,
                retry=RetryPolicy(attempts=16, base_delay=0.02, max_delay=0.25),
            )
            try:
                for start in range(0, len(stream), 25):
                    chunk = stream[start:start + 25]
                    client.ingest_batch([(a.u, a.v, a.t) for a in chunk])
                assert client.sync() == len(stream)
            finally:
                client.close()
            assert engine_signature(handle.server.host.engine) == engine_signature(
                oracle
            )

    def test_slow_reader_eviction(self):
        graph, stream = make_workload(8)
        plan = FaultPlan(
            [FaultSpec("server.send", "stall", at_count=1, args={"seconds": 5.0})]
        )
        with serve(graph, plan, write_timeout=0.1) as handle:
            client = ServiceClient(
                handle.host, handle.port, timeout=5.0,
                retry=RetryPolicy(attempts=6, base_delay=0.01, max_delay=0.1),
            )
            try:
                # First response stalls; the server evicts us, the client
                # reconnects and retries the same (idempotent) request.
                assert client.ping()["applied"] == 0
                stats = client.stats()
            finally:
                client.close()
            counters = handle.server.metrics.snapshot()["counters"]
            assert counters["slow_reader_evictions"] == 1
            assert stats["degraded"] is True

    def test_duplicate_key_is_exactly_once(self):
        graph, stream = make_workload(9)
        with serve(graph) as handle:
            client = ServiceClient(handle.host, handle.port, timeout=5.0)
            try:
                items = [(a.u, a.v, a.t) for a in stream[:15]]
                client.ingest_batch(items, key="dup-1")
                client.ingest_batch(items, key="dup-1")  # manual resend
                assert client.sync() == 15
            finally:
                client.close()
            counters = handle.server.metrics.snapshot()["counters"]
            assert counters["ingest_dedup_hits"] == 1

    def test_degraded_flag_clears(self, monkeypatch):
        """A shed raises the ``degraded`` flag; it stays up for the hold
        after the queue drained, then clears."""
        monkeypatch.setattr(server_module, "DEGRADED_HOLD", 2.0)
        graph, stream = make_workload(6)
        plan = FaultPlan(
            [FaultSpec("ingest.flush", "delay", at_count=1, args={"seconds": 0.3})]
        )
        with serve(
            graph, plan, batch_size=4, max_latency=0.005, shed_watermark=8
        ) as handle:
            client = ServiceClient(
                handle.host, handle.port, timeout=5.0,
                retry=RetryPolicy(attempts=1),  # surface the shed, don't retry
            )
            try:
                assert client.stats()["degraded"] is False
                sent = time.monotonic()  # no later than the shed
                with pytest.raises(ServiceRetryAfter):
                    client.ingest_batch([(a.u, a.v, a.t) for a in stream[:60]])
                client.sync()
                stats = client.stats()
                # The queue drained, so only the hold keeps the flag up.
                assert stats["queue_depth"] == 0
                assert stats["degraded"] is True
                while client.stats()["degraded"]:
                    assert time.monotonic() - sent < 10.0, "degraded never cleared"
                    time.sleep(0.05)
                assert time.monotonic() - sent >= 2.0
            finally:
                client.close()


# ----------------------------------------------------------------------
# Scenario plumbing and the tier-1 slice (the full matrix runs under -m chaos)
# ----------------------------------------------------------------------

class TestScenarioPlumbing:
    def test_scenario_by_name_round_trips(self):
        for scenario in SCENARIOS:
            assert scenario_by_name(scenario.name) is scenario
        with pytest.raises(KeyError, match="unknown chaos scenario"):
            scenario_by_name("no-such-scenario")

    @pytest.mark.parametrize(
        "name",
        [
            "wal-crash-after-append",
            "service-conn-resets",
            "replica-failover-mid-batch",
            "readpath-promote-under-read-load",
            "shard-worker-crash-mid-batch",
        ],
    )
    def test_one_cell_per_family_inline(self, name, tmp_path):
        """The deterministic tier-1 slice of the matrix: seed 0, one
        scenario per family."""
        scenario = scenario_by_name(name)
        result = run_scenario(scenario, 0, tmp_path)
        assert result.status == "recovered", result.detail
        assert result.ok and not result.silent_divergence
        assert result.family == scenario.mode
        first = scenario.specs(0, 1000)[0]
        assert result.injected and result.injected[0]["kind"] == first.kind

    def test_rerun_into_the_same_workdir_starts_clean(self, tmp_path):
        """A reused workdir must not hand one run's cell state to the next."""
        only = ["wal-crash-after-append", "readpath-lagged-follower-read"]
        for _ in range(2):
            report = run_matrix((0,), only=only, workdir=tmp_path)
            assert report["ok"] == report["total"] == 2, report["failures"]

    def test_matrix_covers_injector_floor(self):
        """The catalog spans >= 8 (site, kind) injector combinations."""
        kinds = {
            (spec.site, spec.kind)
            for scenario in SCENARIOS
            for spec in scenario.specs(0, 100)
        }
        assert len(kinds) >= 8, sorted(kinds)

    def test_fault_on_a_polled_path_fires_before_the_fleet_stops(self, tmp_path):
        """A late fetch fault lands once the follower has caught up and
        parks its fetch on the primary; the cell must let it fire
        rather than stop the fleet under it."""
        scenario = Scenario(
            name="replica-late-fetch-stall",
            mode="replica",
            expect="recovered",
            specs=lambda seed, n: [
                FaultSpec("replica.fetch", "stall", at_count=12, args={"seconds": 0.05})
            ],
        )
        result = run_scenario(scenario, 0, tmp_path)
        assert result.status == "recovered", result.detail
        assert [entry["hit"] for entry in result.injected] == [12]

    def test_fault_that_never_fires_is_out_of_contract(self, tmp_path):
        scenario = Scenario(
            name="wal-crash-never-reached",
            mode="pipeline",
            expect="recovered",
            specs=lambda seed, n: [
                FaultSpec("wal.append", "crash", at_count=10**6)
            ],
        )
        result = run_scenario(scenario, 0, tmp_path)
        assert result.status == "error" and not result.ok
        assert result.injected == []
        assert "never fired: wal.append/crash" in result.detail
