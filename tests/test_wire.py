"""The shared JSON-lines transport: :class:`Upstream` and :class:`FrontEnd`.

Every test runs against an in-process asyncio peer whose answers are
scripted per request (``op``), so the transport's failure paths —
cancellation mid-flight, a peer that never answers, EOF, a malformed
line — are driven deterministically.  The front-end tests put a real
:class:`ShardRouter` / :class:`ReadRouter` in front of the same peer and
stop an :class:`ANCServer` the same way.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.core.anc import ANCParams
from repro.graph.generators import planted_partition
from repro.readpath.router import ReadRouter, ReadRouterConfig
from repro.service.server import ANCServer, ServerConfig
from repro.service.wire import LINE_LIMIT, TRANSPORT_ERRORS, Upstream
from repro.shard.router import RouterConfig, ShardRouter
from repro.shard.worker import ShardDeployment


class Peer:
    """A scripted JSON-lines server; counts the connections it accepts
    and keeps every request it reads."""

    def __init__(self) -> None:
        self.connections = 0
        self.requests: list = []
        self.received = asyncio.Event()
        self._server = None
        self.port = None

    async def __aenter__(self) -> "Peer":
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc) -> None:
        self._server.close()

    async def _serve(self, reader, writer) -> None:
        self.connections += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                request = json.loads(line)
                self.requests.append(request)
                self.received.set()
                op = request.get("op")
                if op == "slow":
                    await asyncio.sleep(request["delay"])
                elif op == "never":
                    await asyncio.Event().wait()
                elif op == "eof":
                    return
                elif op == "list":
                    writer.write(b"[1, 2]\n")
                    await writer.drain()
                    continue
                answer = {"ok": True, "n": request.get("n")}
                if op == "big":
                    answer["blob"] = "x" * request["size"]
                if op == "ping":
                    answer.update(t=0.0, applied=0, role="primary", epoch=1)
                if op == "replicas":
                    answer.update(entries=0, replicas={})
                writer.write(json.dumps(answer).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            writer.close()


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 20.0))


# ----------------------------------------------------------------------
# Upstream
# ----------------------------------------------------------------------

def test_cancelled_request_aborts_its_connection():
    async def main():
        async with Peer() as peer:
            up = Upstream("127.0.0.1", peer.port)
            task = asyncio.create_task(
                up.request({"op": "slow", "delay": 0.3, "n": 1})
            )
            await peer.received.wait()  # the request bytes left
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The late answer to n=1 lands on a dead connection; the
            # next request gets its own answer on a fresh one.
            answer = await up.request({"op": "echo", "n": 2})
            assert answer["n"] == 2
            await asyncio.sleep(0.4)
            assert (await up.request({"op": "echo", "n": 3}))["n"] == 3
            assert peer.connections == 2
            up.abort_all()

    run(main())


def test_abort_all_fails_a_parked_request():
    async def main():
        async with Peer() as peer:
            up = Upstream("127.0.0.1", peer.port)
            task = asyncio.create_task(up.request({"op": "never"}))
            await peer.received.wait()
            started = time.monotonic()
            up.abort_all()
            with pytest.raises(TRANSPORT_ERRORS):
                await asyncio.wait_for(task, 1.0)
            assert time.monotonic() - started < 1.0
            # A closed upstream refuses new requests outright.
            with pytest.raises(TRANSPORT_ERRORS):
                await up.request({"op": "echo"})

    run(main())


def test_one_mebibyte_answer_reads():
    async def main():
        async with Peer() as peer:
            up = Upstream("127.0.0.1", peer.port)
            answer = await up.request({"op": "big", "size": 1 << 20})
            assert len(answer["blob"]) == 1 << 20
            up.abort_all()

    run(main())


@pytest.mark.parametrize("op", ["eof", "list"])
def test_bad_answer_is_a_transport_error_and_drops_the_connection(op):
    async def main():
        async with Peer() as peer:
            up = Upstream("127.0.0.1", peer.port)
            assert (await up.request({"op": "echo", "n": 1}))["n"] == 1
            assert peer.connections == 1
            with pytest.raises(TRANSPORT_ERRORS):
                await up.request({"op": op})
            assert (await up.request({"op": "echo", "n": 2}))["n"] == 2
            assert peer.connections == 2
            up.abort_all()

    run(main())


def test_timeout_bounds_the_whole_attempt():
    async def main():
        async with Peer() as peer:
            up = Upstream("127.0.0.1", peer.port)
            with pytest.raises(TimeoutError):
                await up.request({"op": "never"}, timeout=0.2)
            assert (await up.request({"op": "echo", "n": 7}))["n"] == 7
            up.abort_all()

    run(main())


# ----------------------------------------------------------------------
# FrontEnd: every front end stops promptly with a client still connected
# ----------------------------------------------------------------------

def _peer_router(peer):
    """A 1-shard router whose worker endpoint is the peer (no process)."""
    graph, _ = planted_partition(12, 2, p_in=0.6, p_out=0.0, seed=3)
    deployment = ShardDeployment(graph, shards=1)
    deployment.workers[0].port = peer.port
    deployment._started = True
    return ShardRouter(deployment, config=RouterConfig()), graph


def _front_end(kind, peer):
    """A shard router or read router in front of the peer, or a server."""
    if kind == "shard-router":
        return _peer_router(peer)[0]
    if kind == "read-router":
        return ReadRouter(
            ("127.0.0.1", peer.port),
            config=ReadRouterConfig(heartbeat_interval=0.05),
        )
    graph, _ = planted_partition(12, 2, p_in=0.6, p_out=0.0, seed=3)
    return ANCServer(
        graph,
        config=ServerConfig(metrics_interval=0.0),
        params=ANCParams(rep=1, k=2, seed=0),
    )


async def _idle_client(front):
    """A client that got its answer and now idles on its connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", front.port)
    writer.write(b'{"op": "ping", "id": 1}\n')
    await writer.drain()
    answer = json.loads(await reader.readline())
    assert answer["ok"] and answer["id"] == 1, answer
    return writer


async def _stuck_client(front):
    """A client that stopped reading: the answers to its pings (each
    echoes a 512 KiB id) back up until the front end's send buffer holds
    what the socket will not take."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", front.port))
    _reader, writer = await asyncio.open_connection(sock=sock)
    line = json.dumps({"op": "ping", "id": "x" * (1 << 19)}).encode() + b"\n"
    for _ in range(8):
        writer.write(line)
    while not any(w.transport.get_write_buffer_size() for w in front._clients):
        await asyncio.sleep(0.01)
    return writer


@pytest.mark.parametrize("client", [_idle_client, _stuck_client], ids=["idle", "stuck"])
@pytest.mark.parametrize("kind", ["shard-router", "read-router", "server"])
def test_front_end_stops_promptly(kind, client):
    """The stop aborts every client before its bounded wait, so neither
    an idle client nor one that stopped reading holds it."""

    async def main():
        async with Peer() as peer:
            front = _front_end(kind, peer)
            await front.start()
            writer = await client(front)
            started = time.monotonic()
            await front.stop()
            elapsed = time.monotonic() - started
            writer.transport.abort()
            return elapsed

    assert run(main()) < 2.0


def test_shard_router_refuses_keys_the_suffix_would_push_past_the_bound():
    """Workers see ``<key>@s0``: a 253-character client key fits the
    256-character bound, a 254-character one is refused up front."""

    async def main():
        async with Peer() as peer:
            router, graph = _peer_router(peer)
            u, v = graph.edges()[0]
            answers = []
            for key in ("k" * 253, "k" * 254):
                request = {"op": "ingest_batch", "items": [[u, v, 1.0]], "key": key}
                answers.append(await router._respond(json.dumps(request).encode()))
            await router.stop()
            return answers

    fits, too_long = run(main())
    assert fits["ok"] is True
    assert too_long["ok"] is False and too_long["error_type"] == "BAD_REQUEST"


@pytest.mark.parametrize(
    "line",
    [
        b'{"op": "clusters", "min_size": null}',
        b'{"op": "clusters", "level": "2"}',
        b'{"op": "zoom_in", "level": null}',
        b'{"op": "ingest", "u": $U, "v": $V, "t": 1e999}',
        b'{"op": "ingest_batch", "items": [[$U, $V, 1.0]], "key": ""}',
        b'{"op": "ingest_batch", "items": [[$U, $V, 1.0]], "key": 5}',
    ],
    ids=[
        "min_size-null",
        "level-string",
        "zoom-level-null",
        "t-1e999",
        "key-empty",
        "key-number",
    ],
)
def test_shard_router_refuses_malformed_numbers(line):
    """The router parses the numbers it reads itself, and checks a batch
    key by the server's rule: a malformed one is ``BAD_REQUEST`` before
    anything is forwarded."""

    async def main():
        async with Peer() as peer:
            router, graph = _peer_router(peer)
            u, v = graph.edges()[0]
            raw = line.replace(b"$U", str(u).encode()).replace(b"$V", str(v).encode())
            answer = await router._respond(raw)
            await router.stop()
            return answer, peer.connections

    answer, connections = run(main())
    assert answer["ok"] is False and answer["error_type"] == "BAD_REQUEST", answer
    assert connections == 0


@pytest.mark.parametrize("op, expected", [("zoom_in", 4), ("zoom_out", 2)])
def test_shard_router_answers_zoom_without_a_scatter(op, expected):
    """Every worker serves the full node space, so the router clamps a
    zoom to the shared level range itself and contacts no worker."""

    async def main():
        async with Peer() as peer:
            router, _graph = _peer_router(peer)
            answer = await router._respond(json.dumps({"op": op, "level": 3}).encode())
            await router.stop()
            return answer, peer.connections

    answer, connections = run(main())
    assert answer["ok"] is True and answer["level"] == expected, answer
    assert connections == 0


def _staleness_router(peer):
    """A read router with a 10-record bound in front of the peer as its
    only node, so every read is forwarded to the peer."""
    return ReadRouter(
        ("127.0.0.1", peer.port),
        config=ReadRouterConfig(max_staleness=10),
    )


@pytest.mark.parametrize("asked, forwarded", [(0.0, 0), (3.0, 3), (3, 3), (20, 10)])
def test_read_router_never_loosens_a_staleness_bound(asked, forwarded):
    """The forwarded bound is the tighter of the router's and the
    request's, whatever JSON number spells the request's: ``0.0`` asks
    for no lag at all."""

    async def main():
        async with Peer() as peer:
            router = _staleness_router(peer)
            request = {"op": "clusters", "max_staleness": asked}
            answer = await router._respond(json.dumps(request).encode())
            await router.stop()
            return answer, peer.requests

    answer, requests = run(main())
    assert answer["ok"] is True, answer
    assert [r["max_staleness"] for r in requests] == [forwarded], requests


@pytest.mark.parametrize(
    "line",
    [
        b'{"op": "clusters", "max_staleness": "2"}',
        b'{"op": "clusters", "max_staleness": true}',
        b'{"op": "clusters", "max_staleness": 1.5}',
        b'{"op": "local", "node": 0, "token": "3"}',
        b'{"op": "clusters", "token": [1]}',
    ],
    ids=[
        "max_staleness-string",
        "max_staleness-bool",
        "max_staleness-fraction",
        "token-string",
        "token-list",
    ],
)
def test_read_router_refuses_malformed_read_bounds(line):
    """A malformed ``max_staleness`` or ``token`` is ``BAD_REQUEST``
    before anything is forwarded."""

    async def main():
        async with Peer() as peer:
            router = _staleness_router(peer)
            answer = await router._respond(line)
            await router.stop()
            return answer, peer.connections

    answer, connections = run(main())
    assert answer["ok"] is False and answer["error_type"] == "BAD_REQUEST", answer
    assert connections == 0
