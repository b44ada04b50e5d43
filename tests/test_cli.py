"""Tests for the repro-anc command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph.io import write_edge_list, write_temporal_edge_list
from repro.core.activation import Activation


@pytest.fixture
def edgelist_file(tmp_path, small_planted):
    graph, _ = small_planted
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path), graph


@pytest.fixture
def temporal_file(tmp_path, small_planted):
    graph, _ = small_planted
    edges = list(graph.edges())
    stream = [
        Activation(*edges[i % len(edges)], float(1 + i // 5)) for i in range(25)
    ]
    path = tmp_path / "temporal.txt"
    write_temporal_edge_list(graph, stream, path)
    return str(path), graph


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfo:
    def test_reports_stats(self, edgelist_file):
        path, graph = edgelist_file
        code, text = run_cli(["info", path])
        assert code == 0
        assert f"nodes:      {graph.n}" in text
        assert f"edges:      {graph.m}" in text
        assert "components: 1" in text


class TestCluster:
    def test_anc_default(self, edgelist_file):
        path, graph = edgelist_file
        code, text = run_cli(["cluster", path, "--rep", "1", "--pyramids", "2"])
        assert code == 0
        assert "ANC clustering at level" in text
        assert "clusters" in text

    def test_explicit_level(self, edgelist_file):
        path, _ = edgelist_file
        code, text = run_cli(
            ["cluster", path, "--rep", "0", "--pyramids", "2", "--level", "2"]
        )
        assert code == 0
        assert "at level 2" in text

    @pytest.mark.parametrize("method", ["louvain", "scan", "attractor"])
    def test_baseline_methods(self, edgelist_file, method):
        path, _ = edgelist_file
        code, text = run_cli(["cluster", path, "--method", method])
        assert code == 0
        assert "clusters" in text

    def test_min_size_filters(self, edgelist_file):
        path, _ = edgelist_file
        _, all_text = run_cli(["cluster", path, "--method", "louvain"])
        _, filtered = run_cli(
            ["cluster", path, "--method", "louvain", "--min-size", "10"]
        )
        count_all = int(all_text.split(" clusters")[0].split()[-1])
        count_filtered = int(filtered.split(" clusters")[0].split()[-1])
        assert count_filtered <= count_all


class TestStream:
    def test_replay_to_end(self, temporal_file):
        path, _ = temporal_file
        code, text = run_cli(
            ["stream", path, "--engine", "anco", "--rep", "1", "--pyramids", "2"]
        )
        assert code == 0
        assert "replaying" in text
        assert "snapshot" in text

    def test_checkpoints(self, temporal_file):
        path, _ = temporal_file
        code, text = run_cli(
            [
                "stream", path, "--engine", "anco", "--rep", "0",
                "--pyramids", "2", "--at", "2", "--at", "4",
            ]
        )
        assert code == 0
        assert text.count("snapshot") == 2

    def test_query_node(self, temporal_file):
        path, _ = temporal_file
        code, text = run_cli(
            [
                "stream", path, "--engine", "anco", "--rep", "0",
                "--pyramids", "2", "--query", "0",
            ]
        )
        assert code == 0
        assert "cluster of 0:" in text

    def test_unknown_query_node(self, temporal_file):
        path, _ = temporal_file
        code, text = run_cli(
            [
                "stream", path, "--engine", "anco", "--rep", "0",
                "--pyramids", "2", "--query", "nosuchnode",
            ]
        )
        assert code == 0
        assert "unknown node" in text

    @pytest.mark.parametrize("engine", ["anco", "ancor", "ancf"])
    def test_all_engines(self, temporal_file, engine):
        path, _ = temporal_file
        code, text = run_cli(
            ["stream", path, "--engine", engine, "--rep", "0", "--pyramids", "2"]
        )
        assert code == 0

    def test_watch_mode_runs(self, temporal_file):
        path, _ = temporal_file
        code, text = run_cli(
            [
                "stream", path, "--engine", "anco", "--rep", "0",
                "--pyramids", "2", "--watch", "0",
            ]
        )
        assert code == 0
        assert "replaying" in text

    def test_watch_unknown_node_errors(self, temporal_file):
        path, _ = temporal_file
        code, text = run_cli(
            [
                "stream", path, "--engine", "anco", "--rep", "0",
                "--pyramids", "2", "--watch", "missing",
            ]
        )
        assert code == 1
        assert "unknown watch node" in text

    def test_empty_stream_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, text = run_cli(["stream", str(path)])
        assert code == 1
        assert "no activations" in text


class TestDatasets:
    def test_lists_table1(self):
        code, text = run_cli(["datasets"])
        assert code == 0
        assert "CO" in text and "TW" in text
        assert text.count("\n") >= 18


@pytest.mark.parametrize(
    "module, absent",
    [
        pytest.param("repro.cli", ("scipy",), id="repro.cli"),
        pytest.param(
            "repro.readpath.router", ("numpy", "repro.shard"),
            id="repro.readpath.router",
        ),
    ],
)
def test_import_leaves_scipy_out(module, absent):
    """Serving processes import ``repro.cli``; only ``cluster``'s
    baselines need scipy, so the import must not pull it in.  The read
    router (``read-serve``) must not grow into numpy or the shard tier
    either: its resident set is part of the serving benchmark."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        f"import sys, {module}; print(sorted(m for m in sys.modules "
        f"if any(m == a or m.startswith(a + '.') for a in {absent!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"


def _spawn_under_importtime(argv, log_path, env):
    """Start ``repro-anc <argv>`` under ``-X importtime``, its stderr in
    ``log_path``; returns ``(proc, port)`` once it announces."""
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=log, env=env, text=True,
    )
    log.close()
    line = proc.stdout.readline()
    while line and not line.startswith("SERVING "):  # a router's UPSTREAM lines
        line = proc.stdout.readline()
    if not line.startswith("SERVING "):
        proc.kill()
        proc.wait(timeout=10)
        raise AssertionError(f"{argv[0]} never announced")
    return proc, int(line.split()[2])


def _loaded(log_path, packages):
    """The modules of ``packages`` an ``-X importtime`` log shows loaded."""
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in Path(log_path).read_text(encoding="utf-8").splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return sorted(
        m for m in names if any(m == p or m.startswith(p + ".") for p in packages)
    )


def test_serving_roles_load_only_what_they_run(tmp_path, small_planted):
    """The real ``serve`` and ``read-serve`` commands, driven through
    every read a fleet serves, import only their own layers: a server
    loads no blocking client, read router, shard tier or numpy, and the
    read router loads no engine, graph, server, checkpoint store or
    blocking client.  Both resident sets are part of the serving
    benchmark."""
    from repro.service.client import ServiceClient

    graph, _ = small_planted
    edgelist = tmp_path / "graph.txt"
    write_edge_list(graph, edgelist)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    server, port = _spawn_under_importtime(
        ["serve", str(edgelist), "--port", "0", "--data-dir", str(tmp_path / "data"),
         "--rep", "1", "--pyramids", "2"],
        tmp_path / "serve.log", env,
    )
    router = None
    try:
        router, router_port = _spawn_under_importtime(
            ["read-serve", f"127.0.0.1:{port}", "--port", "0"],
            tmp_path / "read-serve.log", env,
        )
        edges = list(graph.edges())[:40]
        items = [(str(u), str(v), float(1 + i // 8)) for i, (u, v) in enumerate(edges)]
        with ServiceClient("127.0.0.1", port, timeout=30) as client:
            client.ingest_batch(items)
            assert client.sync() == len(items)
            for level in (1, 2):
                assert client.clusters(level)
            assert client.local(items[0][0])
            assert client.stats()["ingested"] == len(items)
            assert client.request("signature")["ok"] is True
            assert client.snapshot()
        with ServiceClient("127.0.0.1", router_port, timeout=30) as reader:
            assert reader.clusters()
            assert reader.local(items[0][0])
            reader.shutdown()
        assert router.wait(timeout=30) == 0
        with ServiceClient("127.0.0.1", port, timeout=30) as client:
            client.shutdown()
        assert server.wait(timeout=30) == 0
    finally:
        for proc in (server, router):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    assert _loaded(
        tmp_path / "serve.log",
        ("repro.service.client", "repro.readpath", "repro.shard", "numpy"),
    ) == []
    assert _loaded(
        tmp_path / "read-serve.log",
        (
            "repro.core", "repro.index", "repro.graph", "repro.service.server",
            "repro.service.engine_host", "repro.service.snapshots",
            "repro.service.client",
        ),
    ) == []
    # The parser saw the log: both roles did load their own layers.
    assert _loaded(tmp_path / "serve.log", ("repro.index.array_index",))
    assert _loaded(tmp_path / "read-serve.log", ("repro.readpath.router",))
