"""Tests for the repro.analysis invariant linter.

One true-positive and one true-negative fixture per rule, the pragma
machinery, the CLI gate, and — the point of the whole exercise — the
check that ``src/repro`` itself lints clean.
"""

import io
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    all_rules,
    all_whole_program_rules,
    build_project,
    lint_paths,
    lint_source,
    parse_pragmas,
    registry,
)
from repro.analysis.engine import BAD_PRAGMA, PARSE_ERROR, module_name_for
from repro.analysis.rules import backend_parity
from repro.analysis.rules.snapshot_immutability import published_slots
from repro.analysis.rules.writer_discipline import mutator_registry
from repro.cli import main

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def findings_for(source, module, rule=None):
    result = lint_source(textwrap.dedent(source), module=module)
    if rule is None:
        return result.findings
    return [f for f in result.findings if f.rule == rule]


RULE_NAMES = {
    "backend-parity-discipline",
    "writer-discipline",
    "no-wall-clock-in-engine",
    "no-blocking-in-async",
    "snapshot-immutability",
    "float-equality",
    "mutable-default-arg",
    "dict-mutation-during-iteration",
    "export-consistency",
    "service-exception-discipline",
}


def test_all_rules_registered():
    assert {r.name for r in all_rules()} == RULE_NAMES


# ----------------------------------------------------------------------
# The acceptance gate: the repository's own source lints clean.
# ----------------------------------------------------------------------

def test_src_repro_lints_clean():
    result = lint_paths([SRC])
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in result.findings
    )
    assert result.files > 50
    # The one sanctioned exemption (core/decay.py's exact no-op guard)
    # is counted, not silently dropped.
    assert result.suppressed.get("float-equality") == 1


# ----------------------------------------------------------------------
# writer-discipline
# ----------------------------------------------------------------------

WRITER_POSITIVE = """
    def sneaky(host, batch):
        host.engine.process_batch(batch)
"""


def test_writer_discipline_positive():
    found = findings_for(
        WRITER_POSITIVE, "repro.service.ingest", "writer-discipline"
    )
    assert len(found) == 1
    assert "process_batch" in found[0].message


def test_writer_discipline_function_mutator_positive():
    src = """
        from ..index.dynamic import insert_edge_into_index

        def grow(index, graph, metric, u, v):
            insert_edge_into_index(index, graph, metric, u, v)
    """
    found = findings_for(src, "repro.service.server", "writer-discipline")
    assert len(found) == 1
    assert "insert_edge_into_index" in found[0].message


def test_writer_discipline_allows_writer_and_nonservice_code():
    # The writer path itself may mutate ...
    assert not findings_for(
        WRITER_POSITIVE, "repro.service.engine_host", "writer-discipline"
    )
    assert not findings_for(
        WRITER_POSITIVE, "repro.service.snapshots", "writer-discipline"
    )
    # ... and so may code that owns its engine outright.
    assert not findings_for(WRITER_POSITIVE, "repro.bench.harness", "writer-discipline")
    # Read-only queries in service code are always fine.
    read_only = """
        def peek(host, level):
            return host.engine.clusters(level)
    """
    assert not findings_for(read_only, "repro.service.server", "writer-discipline")


def test_writer_discipline_covers_shard_modules():
    # The shard router/merge/admin tier is a pure reader: mutating an
    # engine there breaks the per-worker single-writer contract.
    for module in ("repro.shard.router", "repro.shard.merge", "repro.shard.admin"):
        found = findings_for(WRITER_POSITIVE, module, "writer-discipline")
        assert len(found) == 1, module
        assert "process_batch" in found[0].message
    # The worker module hosts the in-process ANCServer (its own writer
    # thread) and may drive the engine.
    assert not findings_for(
        WRITER_POSITIVE, "repro.shard.worker", "writer-discipline"
    )
    # Read-only scatter-gather queries stay fine anywhere in the tier.
    read_only = """
        def peek(host, level):
            return host.engine.clusters(level)
    """
    assert not findings_for(read_only, "repro.shard.router", "writer-discipline")


def test_mutator_registry_derived_from_sources():
    methods, functions = mutator_registry()
    assert {"process", "process_batch", "refresh", "update_edge_weight"} <= methods
    assert "clusters" not in methods and "close" not in methods
    assert "insert_edge_into_index" in functions


# ----------------------------------------------------------------------
# no-wall-clock-in-engine
# ----------------------------------------------------------------------

def test_wall_clock_positive():
    src = """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
    """
    found = findings_for(src, "repro.core.decay", "no-wall-clock-in-engine")
    assert len(found) == 2


def test_wall_clock_matches_aliased_imports():
    src = """
        from time import monotonic as mono

        def stamp():
            return mono()
    """
    assert findings_for(src, "repro.index.pyramid", "no-wall-clock-in-engine")


def test_wall_clock_allowed_outside_engine():
    src = """
        import time

        def stamp():
            return time.time()
    """
    for module in ("repro.service.metrics", "repro.bench.harness", "repro.cli"):
        assert not findings_for(src, module, "no-wall-clock-in-engine")


def test_wall_clock_allows_tz_aware_datetime():
    src = """
        from datetime import datetime, timezone

        def stamp(tz):
            return datetime.now(timezone.utc)
    """
    # Still engine scope, but not the argless naive form the rule names.
    assert not findings_for(src, "repro.core.decay", "no-wall-clock-in-engine")


def test_wall_clock_allows_the_obs_facade():
    """Instrumented engine code imports its clock from repro.obs.trace
    (pure measurement, not state) — the allowlisted facade."""
    for import_line in (
        "from ..obs.trace import perf_counter",
        "from repro.obs.trace import perf_counter",
    ):
        src = f"""
            {import_line}

            def measure():
                return perf_counter()
        """
        assert not findings_for(
            src, "repro.index.clustering", "no-wall-clock-in-engine"
        )


def test_wall_clock_suffix_catches_laundered_clocks():
    """Re-exporting a clock through a non-facade module does not wash
    it: the terminal-suffix match still flags the call."""
    src = """
        from ..service.helpers import perf_counter

        def measure():
            return perf_counter()
    """
    found = findings_for(src, "repro.index.pyramid", "no-wall-clock-in-engine")
    assert found and "repro.obs" in found[0].message


def test_wall_clock_raw_time_still_flagged_next_to_facade():
    src = """
        import time

        from ..obs.trace import perf_counter

        def measure():
            return perf_counter(), time.time()
    """
    found = findings_for(src, "repro.core.metric", "no-wall-clock-in-engine")
    assert len(found) == 1
    assert "time.time" in found[0].message


# ----------------------------------------------------------------------
# no-blocking-in-async
# ----------------------------------------------------------------------

def test_async_blocking_positive():
    src = """
        import time

        async def handler(lock):
            time.sleep(0.1)
            fh = open("state.json")
            lock.acquire()
    """
    found = findings_for(src, "repro.service.server", "no-blocking-in-async")
    assert len(found) == 3


def test_async_blocking_negative():
    src = """
        import asyncio

        async def handler(lock):
            await asyncio.sleep(0.1)
            async with lock:
                pass
            await lock.acquire()

            def blocking_closure():  # handed to the writer executor
                return open("state.json").read()

            return blocking_closure
    """
    assert not findings_for(src, "repro.service.server", "no-blocking-in-async")


def test_async_blocking_ignores_sync_and_nonservice_code():
    src = """
        import time

        def sync_helper():
            time.sleep(0.1)
    """
    assert not findings_for(src, "repro.service.server", "no-blocking-in-async")
    src_async = """
        import time

        async def run():
            time.sleep(0.1)
    """
    assert not findings_for(src_async, "repro.bench.harness", "no-blocking-in-async")


# ----------------------------------------------------------------------
# snapshot-immutability
# ----------------------------------------------------------------------

def test_snapshot_immutability_positive():
    src = """
        def tamper(state):
            state.seq = 99
            state.stats["queries"] = 0
            state.clusters_by_level[5].append([1, 2])
    """
    found = findings_for(src, "repro.service.server", "snapshot-immutability")
    assert len(found) == 3


def test_snapshot_immutability_self_outside_init():
    src = """
        class PublishedState:
            def __init__(self, seq):
                self.seq = seq

            def bump(self):
                self.seq += 1
    """
    found = findings_for(src, "repro.service.engine_host", "snapshot-immutability")
    assert len(found) == 1
    assert "outside __init__" in found[0].message


def test_snapshot_immutability_negative():
    src = """
        class Other:
            def __init__(self):
                self.seq = 0
                self.stats = {}

            def bump(self):
                self.seq += 1
                self.stats["x"] = 1
    """
    assert not findings_for(src, "repro.service.metrics", "snapshot-immutability")


def test_published_slots_derived():
    assert "clusters_by_level" in published_slots()
    assert "seq" in published_slots()


# ----------------------------------------------------------------------
# float-equality
# ----------------------------------------------------------------------

def test_float_equality_positive():
    src = """
        def check(g):
            return g == 1.0
    """
    assert findings_for(src, "repro.core.decay", "float-equality")


def test_float_equality_negative():
    src = """
        import math

        def check(g, n):
            if n == 3:
                return True
            return math.isclose(g, 1.0)
    """
    assert not findings_for(src, "repro.core.decay", "float-equality")
    # Same comparison outside the numeric-core scope is not flagged.
    src_eq = """
        def check(g):
            return g == 1.0
    """
    assert not findings_for(src_eq, "repro.core.metric", "float-equality")


# ----------------------------------------------------------------------
# mutable-default-arg
# ----------------------------------------------------------------------

def test_mutable_default_positive():
    src = """
        def f(xs=[], *, cache={}):
            return xs, cache
    """
    found = findings_for(src, "anything", "mutable-default-arg")
    assert len(found) == 2


def test_mutable_default_negative():
    src = """
        def f(xs=None, n=3, name="x", pair=(1, 2)):
            xs = [] if xs is None else xs
            return xs
    """
    assert not findings_for(src, "anything", "mutable-default-arg")


# ----------------------------------------------------------------------
# dict-mutation-during-iteration
# ----------------------------------------------------------------------

def test_dict_mutation_positive():
    src = """
        def prune(d, threshold):
            for k in d:
                if d[k] < threshold:
                    del d[k]
            for k, v in d.items():
                d.setdefault(k + 1, v)
    """
    found = findings_for(src, "anything", "dict-mutation-during-iteration")
    assert len(found) == 2


def test_dict_mutation_negative():
    src = """
        def rescale(self, factor):
            for key in self._weights:
                self._weights[key] *= factor

        def prune(d, threshold):
            for k in list(d):
                if d[k] < threshold:
                    del d[k]
    """
    assert not findings_for(src, "anything", "dict-mutation-during-iteration")


# ----------------------------------------------------------------------
# export-consistency
# ----------------------------------------------------------------------

def test_exports_missing_all():
    src = """
        def api():
            return 1
    """
    found = findings_for(src, "repro.core.widget", "export-consistency")
    assert len(found) == 1
    assert "no __all__" in found[0].message


def test_exports_unknown_and_unlisted_names():
    src = """
        __all__ = ["api", "ghost"]

        def api():
            return 1

        def stray():
            return 2
    """
    found = findings_for(src, "repro.core.widget", "export-consistency")
    messages = " | ".join(f.message for f in found)
    assert "ghost" in messages and "stray" in messages
    assert len(found) == 2


def test_exports_consistent_module_clean():
    src = """
        __all__ = ["api", "Widget"]

        def api():
            return 1

        def _helper():
            return 2

        class Widget:
            pass
    """
    assert not findings_for(src, "repro.core.widget", "export-consistency")
    # Modules outside the repro package are out of scope.
    bare = "def api():\n    return 1\n"
    assert not findings_for(bare, "some_script", "export-consistency")


# ----------------------------------------------------------------------
# service-exception-discipline
# ----------------------------------------------------------------------

SWALLOWED_POSITIVE = """
    def read_frame(sock):
        try:
            return sock.recv(4096)
        except OSError:
            return b""
"""


def test_service_exception_swallow_positive():
    found = findings_for(
        SWALLOWED_POSITIVE, "repro.service.client", "service-exception-discipline"
    )
    assert len(found) == 1
    assert "typed" in found[0].message


def test_service_exception_disciplined_clean():
    reraise = """
        def read_frame(sock):
            try:
                return sock.recv(4096)
            except OSError:
                raise ServiceConnectError("peer gone")
    """
    assert not findings_for(
        reraise, "repro.service.client", "service-exception-discipline"
    )
    typed_catch = """
        def poll(client):
            try:
                return client.status()
            except ServiceTimeout:
                return None
    """
    assert not findings_for(
        typed_catch, "repro.service.client", "service-exception-discipline"
    )
    flow_control = """
        async def pump(queue):
            try:
                await queue.join()
            except CancelledError:
                return
    """
    assert not findings_for(
        flow_control, "repro.service.server", "service-exception-discipline"
    )


def test_service_exception_out_of_scope_modules_clean():
    # The discipline only binds repro.service / repro.faults, not the engine.
    assert not findings_for(
        SWALLOWED_POSITIVE, "repro.core.anc", "service-exception-discipline"
    )


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

def test_line_pragma_suppresses_and_counts():
    src = """
        __all__ = ["check"]

        def check(g):
            return g == 1.0  # anclint: disable=float-equality — exact guard
    """
    result = lint_source(textwrap.dedent(src), module="repro.core.decay")
    assert not result.findings
    assert result.suppressed == {"float-equality": 1}


def test_file_pragma_suppresses_whole_file():
    src = """
        # anclint: disable=float-equality — legacy numeric fixture
        __all__ = ["check", "check2"]

        def check(g):
            return g == 1.0

        def check2(g):
            return g != 2.0
    """
    result = lint_source(textwrap.dedent(src), module="repro.core.decay")
    assert not result.findings
    assert result.suppressed == {"float-equality": 2}


def test_pragma_does_not_cover_other_rules_or_lines():
    src = """
        __all__ = ["check"]

        def check(g):
            if g == 1.0:  # anclint: disable=float-equality — guard
                return g
            return g == 2.0
    """
    result = lint_source(textwrap.dedent(src), module="repro.core.decay")
    assert [f.rule for f in result.findings] == ["float-equality"]
    assert result.findings[0].line == 7
    assert result.suppressed == {"float-equality": 1}


def test_pragma_without_reason_is_itself_a_finding():
    src = """
        __all__ = ["check"]

        def check(g):
            return g == 1.0  # anclint: disable=float-equality
    """
    result = lint_source(textwrap.dedent(src), module="repro.core.decay")
    assert [f.rule for f in result.findings] == [BAD_PRAGMA]
    assert result.suppressed == {"float-equality": 1}


def test_pragma_inside_string_is_not_a_pragma():
    src = '''
        __all__ = ["check"]

        TEXT = "# anclint: disable=float-equality — not a comment"

        def check(g):
            return g == 1.0
    '''
    result = lint_source(textwrap.dedent(src), module="repro.core.decay")
    assert [f.rule for f in result.findings] == ["float-equality"]


def test_parse_pragmas_levels():
    supp = parse_pragmas(
        "# anclint: disable=rule-a — file wide\n"
        "x = 1  # anclint: disable=rule-b,rule-c - spot fix\n"
    )
    assert supp.covers("rule-a", 40)
    assert supp.covers("rule-b", 2) and supp.covers("rule-c", 2)
    assert not supp.covers("rule-b", 3)


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------

def test_syntax_error_becomes_parse_error_finding():
    result = lint_source("def broken(:\n", module="repro.core.x")
    assert [f.rule for f in result.findings] == [PARSE_ERROR]


def test_module_name_inference():
    assert module_name_for(Path("src/repro/core/decay.py")) == "repro.core.decay"
    assert module_name_for(Path("src/repro/service/__init__.py")) == "repro.service"
    assert module_name_for(Path("benchmarks/bench_analysis.py")) == "bench_analysis"


def test_findings_sorted_deterministically(tmp_path):
    bad = tmp_path / "fix.py"
    bad.write_text(
        "def b(xs=[]):\n    return xs\n\n\ndef a(ys={}):\n    return ys\n"
    )
    result = lint_paths([tmp_path])
    lines = [f.line for f in result.findings]
    assert lines == sorted(lines)


# ----------------------------------------------------------------------
# CLI gate
# ----------------------------------------------------------------------

def test_cli_lint_clean_repo_exits_zero():
    out = io.StringIO()
    assert main(["lint", str(SRC)], out) == 0
    assert "0 findings" in out.getvalue()
    assert "suppressed by pragma" in out.getvalue()


def test_cli_lint_true_positive_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    out = io.StringIO()
    assert main(["lint", str(bad)], out) == 1
    assert "mutable-default-arg" in out.getvalue()


def test_cli_lint_select_and_list_rules(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    out = io.StringIO()
    # Selecting an unrelated rule ignores the mutable default.
    assert main(["lint", "--select", "float-equality", str(bad)], out) == 0
    out = io.StringIO()
    assert main(["lint", "--list-rules"], out) == 0
    listing = out.getvalue()
    for name in RULE_NAMES:
        assert name in listing


# ----------------------------------------------------------------------
# Whole-program analysis: ProjectModel and the cross-file rules.
# ----------------------------------------------------------------------

WP_RULE_NAMES = {
    "protocol-conformance",
    "async-task-race",
    "fault-hook-coverage",
    "op-span-coverage",
}


def test_whole_program_rules_registered():
    assert {r.name for r in all_whole_program_rules()} == WP_RULE_NAMES
    # The per-file catalogue is untouched by the whole-program registry.
    assert {r.name for r in all_rules()} == RULE_NAMES


def write_fixture_tree(
    root,
    *,
    drop_router_op=None,
    raise_fenced=True,
    bad_client_op=False,
    bad_response_key=False,
    bad_error_compare=False,
):
    """A miniature client/server/router/faults package for the rules."""
    pkg = root / "pkg"
    (pkg / "service").mkdir(parents=True)
    (pkg / "shard").mkdir()
    (pkg / "faults").mkdir()
    (pkg / "service" / "errors.py").write_text(
        textwrap.dedent(
            """
            class ServiceFault(Exception):
                code = "INTERNAL"

            class BadRequest(ServiceFault):
                code = "BAD_REQUEST"

            class Fenced(ServiceFault):
                code = "FENCED"
            """
        )
    )
    fenced_raise = (
        '        raise Fenced("stale epoch")\n' if raise_fenced else "        pass\n"
    )
    (pkg / "service" / "server.py").write_text(
        textwrap.dedent(
            """
            from .errors import BadRequest, Fenced
            from ..faults.injectors import HOOKS

            class MiniServer:
                async def _op_ping(self, request):
                    return {"t": 1.0, "applied": 3}

                async def _op_fetch(self, request):
                    HOOKS.hit("server.request")
                    return {"cluster": [1, 2]}

                async def _op_watch(self, request):
                    if request.get("node") is None:
                        raise BadRequest("missing node")
                    return {"cluster": []}

                def _check_epoch(self, epoch):
            """
        )
        + fenced_raise
        + '\n    _OPS = {"ping": _op_ping, "fetch": _op_fetch, "watch": _op_watch}\n'
    )
    router_ops = ['"ping": _op_ping', '"fetch": _op_fetch', '"watch": _op_watch']
    if drop_router_op is not None:
        router_ops = [o for o in router_ops if not o.startswith(f'"{drop_router_op}"')]
    (pkg / "shard" / "router.py").write_text(
        textwrap.dedent(
            """
            class MiniRouter:
                async def _op_ping(self, request):
                    return await self._scatter("ping", {"op": "ping"})

                async def _op_fetch(self, request):
                    return await self._forward(0, {"op": "fetch"})

                async def _op_watch(self, request):
                    return await self._forward(0, {"op": "watch"})

                async def _forward(self, shard, payload):
                    return {}

                async def _scatter(self, op, payload):
                    return {}

            """
        )
        + f"    _OPS = {{{', '.join(router_ops)}}}\n"
    )
    extra_client = ""
    if bad_client_op:
        extra_client += (
            "    def nope(self):\n"
            '        return self.request("nope")\n'
        )
    if bad_response_key:
        extra_client += (
            "    def ghost(self):\n"
            '        return self.request("ping")["ghost_key"]\n'
        )
    if bad_error_compare:
        extra_client += (
            "    def weird(self, err):\n"
            '        return err.error_type == "NO_SUCH_CODE"\n'
        )
    (pkg / "service" / "client.py").write_text(
        textwrap.dedent(
            """
            class Client:
                def request(self, op, **fields):
                    return {"ok": True}

                def ping(self):
                    return self.request("ping")["applied"]

                def fetch(self):
                    return self.request("fetch")["cluster"]

                def watch(self):
                    return self.request("watch")["cluster"]

                def is_fenced(self, error_type):
                    return error_type == "FENCED"

            """
        )
        + extra_client
    )
    (pkg / "faults" / "injectors.py").write_text(
        textwrap.dedent(
            """
            CATALOG = {
                "server.request": {"error": "fail the request"},
            }

            class _Hooks:
                def hit(self, site, **labels):
                    return None

            HOOKS = _Hooks()
            """
        )
    )
    return pkg


def wp_lint(root, select=None):
    return lint_paths(
        [root],
        select=sorted(WP_RULE_NAMES) if select is None else select,
        package="pkg",
    )


def test_project_model_import_and_call_graph(tmp_path):
    write_fixture_tree(tmp_path)
    model = build_project([tmp_path], package="pkg")
    assert "pkg.service.server" in model.modules
    assert "pkg.service.errors" in model.import_graph["pkg.service.server"]
    assert "pkg.faults.injectors" in model.import_graph["pkg.service.server"]
    # self-method call edges resolve within the class.
    edges = model.call_edges["pkg.service.client:Client.ping"]
    assert "pkg.service.client:Client.request" in edges
    # Reachability covers the op handlers (dispatch-table roots).
    reachable = model.reachable(model.default_roots())
    assert "pkg.service.server:MiniServer._op_fetch" in reachable


def test_project_model_contexts_async_barrier(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(
        textwrap.dedent(
            """
            import threading

            class Host:
                def start(self):
                    threading.Thread(target=self._work).start()

                def _work(self):
                    self._helper()

                def _helper(self):
                    pass

                async def pump(self):
                    self._helper()
            """
        )
    )
    model = build_project([tmp_path], package="pkg")
    ctx = model.contexts()
    assert ctx["pkg.service.host:Host._work"] == {"thread"}
    # _helper is called from both the thread target and the coroutine.
    assert ctx["pkg.service.host:Host._helper"] == {"thread", "loop"}
    # The async def itself is loop-only: thread taint never crosses in.
    assert ctx["pkg.service.host:Host.pump"] == {"loop"}


def test_protocol_conformance_clean_fixture(tmp_path):
    write_fixture_tree(tmp_path)
    assert wp_lint(tmp_path).findings == []


def test_protocol_unhandled_op(tmp_path):
    write_fixture_tree(tmp_path, bad_client_op=True)
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 1
    assert findings[0].rule == "protocol-conformance"
    assert "'nope'" in findings[0].message


def test_protocol_router_gap_and_dead_error(tmp_path):
    # The seeded regression from the acceptance criteria: drop one router
    # forward entry and one error-raise; exactly those two findings.
    write_fixture_tree(tmp_path, drop_router_op="watch", raise_fenced=False)
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 2, [f.message for f in findings]
    by_message = sorted(f.message for f in findings)
    assert "router neither forwards nor handles" in by_message[0]
    assert "'watch'" in by_message[0]
    assert "never raised" in by_message[1]
    assert "Fenced" in by_message[1]


def test_protocol_unknown_error_code_compare(tmp_path):
    write_fixture_tree(tmp_path, bad_error_compare=True)
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 1
    assert "NO_SUCH_CODE" in findings[0].message


def test_protocol_unset_response_key(tmp_path):
    write_fixture_tree(tmp_path, bad_response_key=True)
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 1
    assert "ghost_key" in findings[0].message


def test_protocol_pragma_suppresses(tmp_path):
    write_fixture_tree(tmp_path, bad_client_op=True)
    client = tmp_path / "pkg" / "service" / "client.py"
    client.write_text(
        client.read_text().replace(
            'return self.request("nope")',
            'return self.request("nope")  '
            "# anclint: disable=protocol-conformance — wire op lands next PR",
        )
    )
    result = wp_lint(tmp_path)
    assert result.findings == []
    assert result.suppressed.get("protocol-conformance") == 1


def test_silent_when_project_has_no_protocol(tmp_path):
    (tmp_path / "plain.py").write_text("def f():\n    return 1\n")
    assert wp_lint(tmp_path).findings == []


RACE_FIXTURE = """
    import asyncio
    import threading

    class Host:
        def __init__(self):
            self.counter = 0
            self._lock = threading.Lock()

        def start(self):
            threading.Thread(target=self._work).start()

        def _work(self):
            self.counter += 1

        async def pump(self):
            self.counter += 1
"""


def test_race_multi_context_write(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(textwrap.dedent(RACE_FIXTURE))
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 1
    assert findings[0].rule == "async-task-race"
    assert "Host.counter" in findings[0].message
    assert "loop" in findings[0].message and "thread" in findings[0].message


def test_race_lock_guard_is_clean(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    guarded = textwrap.dedent(RACE_FIXTURE).replace(
        "    def _work(self):\n        self.counter += 1",
        "    def _work(self):\n"
        "        with self._lock:\n"
        "            self.counter += 1",
    ).replace(
        "    async def pump(self):\n        self.counter += 1",
        "    async def pump(self):\n"
        "        with self._lock:\n"
        "            self.counter += 1",
    )
    assert guarded.count("with self._lock:") == 2
    (pkg / "host.py").write_text(guarded)
    assert wp_lint(tmp_path).findings == []


def test_race_out_of_scope_package_is_clean(tmp_path):
    # Same hazard, but outside service/shard/replica: not our problem.
    pkg = tmp_path / "pkg" / "workloads"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(textwrap.dedent(RACE_FIXTURE))
    assert wp_lint(tmp_path).findings == []


def test_race_await_under_sync_lock(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(
        textwrap.dedent(
            """
            import asyncio
            import threading

            class Host:
                def __init__(self):
                    self._lock = threading.Lock()

                async def flush(self):
                    with self._lock:
                        await asyncio.sleep(0)
            """
        )
    )
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 1
    assert "holding sync lock self._lock" in findings[0].message


def test_race_async_lock_await_is_clean(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(
        textwrap.dedent(
            """
            import asyncio

            class Host:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def flush(self):
                    with self._lock:
                        await asyncio.sleep(0)
            """
        )
    )
    assert wp_lint(tmp_path).findings == []


def test_race_fire_and_forget_task(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(
        textwrap.dedent(
            """
            import asyncio

            class Host:
                async def start(self):
                    asyncio.create_task(self._poll())

                async def _poll(self):
                    pass
            """
        )
    )
    findings = wp_lint(tmp_path).findings
    assert len(findings) == 1
    assert "fire-and-forget" in findings[0].message


def test_race_retained_task_is_clean(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(
        textwrap.dedent(
            """
            import asyncio

            class Host:
                async def start(self):
                    self._task = asyncio.create_task(self._poll())

                async def _poll(self):
                    pass
            """
        )
    )
    assert wp_lint(tmp_path).findings == []


def test_race_pragma_suppresses(tmp_path):
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    (pkg / "host.py").write_text(
        textwrap.dedent(
            """
            import asyncio

            class Host:
                async def start(self):
                    asyncio.create_task(self._poll())  # anclint: disable=async-task-race — poller lives for the process lifetime

                async def _poll(self):
                    pass
            """
        )
    )
    result = wp_lint(tmp_path)
    assert result.findings == []
    assert result.suppressed.get("async-task-race") == 1


def test_fault_hook_coverage_clean(tmp_path):
    write_fixture_tree(tmp_path)
    assert wp_lint(tmp_path, select=["fault-hook-coverage"]).findings == []


def test_fault_hook_catalog_without_hook(tmp_path):
    write_fixture_tree(tmp_path)
    injectors = tmp_path / "pkg" / "faults" / "injectors.py"
    injectors.write_text(
        injectors.read_text().replace(
            'CATALOG = {\n    "server.request": {"error": "fail the request"},\n}',
            'CATALOG = {\n    "server.request": {"error": "fail the request"},\n'
            '    "wal.append": {"torn": "cut the record"},\n}',
        )
    )
    findings = wp_lint(tmp_path, select=["fault-hook-coverage"]).findings
    assert len(findings) == 1
    assert "wal.append" in findings[0].message
    assert "no hooks.hit()" in findings[0].message


def test_fault_hook_without_catalog_entry(tmp_path):
    write_fixture_tree(tmp_path)
    server = tmp_path / "pkg" / "service" / "server.py"
    server.write_text(
        server.read_text().replace(
            'HOOKS.hit("server.request")',
            'HOOKS.hit("server.requets")',  # typo'd site name
        )
    )
    findings = wp_lint(tmp_path, select=["fault-hook-coverage"]).findings
    messages = "\n".join(f.message for f in findings)
    assert "server.requets" in messages and "not in the faults CATALOG" in messages
    # ... and the catalog entry the typo orphaned is reported too.
    assert "server.request" in messages.replace("server.requets", "")


@pytest.mark.parametrize("base_calls_hook", [True, False])
def test_fault_hook_in_an_override_is_reached_through_the_base(
    tmp_path, base_calls_hook
):
    """A hook in a subclass's override is live when the base class
    calls the hook method on ``self``; the catalog may be annotated."""
    pkg = tmp_path / "pkg"
    (pkg / "service").mkdir(parents=True)
    (pkg / "faults").mkdir()
    (pkg / "faults" / "injectors.py").write_text(
        "from typing import Dict\n"
        "CATALOG: Dict[str, Dict[str, str]] = {\n"
        '    "server.accept": {"reset": "drop the connection"},\n'
        "}\n"
        "class Hooks:\n"
        "    def hit(self, site):\n"
        "        return None\n"
        "HOOKS = Hooks()\n"
    )
    call = "        await self._on_connect()\n" if base_calls_hook else ""
    (pkg / "service" / "wire.py").write_text(
        "class FrontEnd:\n"
        "    def start(self, listen):\n"
        "        listen(self._serve)\n"
        "\n"
        "    async def _serve(self):\n"
        + call
        + "        return None\n"
        "\n"
        "    async def _on_connect(self):\n"
        "        return None\n"
    )
    (pkg / "service" / "server.py").write_text(
        "from ..faults.injectors import HOOKS\n"
        "from .wire import FrontEnd\n"
        "\n"
        "class Server(FrontEnd):\n"
        "    async def _on_connect(self):\n"
        '        HOOKS.hit("server.accept")\n'
    )
    findings = wp_lint(tmp_path, select=["fault-hook-coverage"]).findings
    if base_calls_hook:
        assert findings == []
    else:
        assert len(findings) == 1 and "unreachable" in findings[0].message


def write_span_fixture(tmp_path, *, dispatcher_span=True, handler_span=False):
    """A server package that traces: handlers + an _OPS dispatcher."""
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    dispatch_body = (
        '        with self.tracer.wire_span(f"server.{op}", None):\n'
        "            return await handler(self, request)\n"
        if dispatcher_span
        else "        return await handler(self, request)\n"
    )
    fetch_body = (
        '        with self.tracer.span("engine.fetch"):\n'
        "            return {}\n"
        if handler_span
        else "        return {}\n"
    )
    (pkg / "server.py").write_text(
        "class SpanServer:\n"
        "    async def _op_ping(self, request):\n"
        '        with self.tracer.span("server.ping"):\n'
        '            return {"t": 1.0}\n'
        "\n"
        "    async def _op_fetch(self, request):\n"
        + fetch_body
        + "\n"
        "    async def _handle(self, op, request):\n"
        "        handler = self._OPS.get(op)\n"
        + dispatch_body
        + '\n    _OPS = {"ping": _op_ping, "fetch": _op_fetch}\n'
    )
    return pkg


def test_op_span_coverage_dispatcher_covers(tmp_path):
    # The _handle_request pattern: one span around the dispatch loop
    # covers every handler, even span-less ones.
    write_span_fixture(tmp_path, dispatcher_span=True, handler_span=False)
    assert wp_lint(tmp_path, select=["op-span-coverage"]).findings == []


def test_op_span_coverage_uncovered_handler(tmp_path):
    # No dispatcher span, and _op_fetch neither opens a span nor reaches
    # one through its calls — that handler alone is flagged.
    write_span_fixture(tmp_path, dispatcher_span=False, handler_span=False)
    findings = wp_lint(tmp_path, select=["op-span-coverage"]).findings
    assert len(findings) == 1, [f.message for f in findings]
    assert "'fetch'" in findings[0].message
    assert "SpanServer._op_fetch" in findings[0].message


def test_op_span_coverage_handler_span_counts(tmp_path):
    write_span_fixture(tmp_path, dispatcher_span=False, handler_span=True)
    assert wp_lint(tmp_path, select=["op-span-coverage"]).findings == []


def test_op_span_coverage_silent_without_tracing(tmp_path):
    # The plain fixture tree never opens a span anywhere: a project with
    # no tracing layer is not nagged about uncovered handlers.
    write_fixture_tree(tmp_path)
    assert wp_lint(tmp_path, select=["op-span-coverage"]).findings == []


def test_op_span_coverage_pragma_suppresses(tmp_path):
    write_span_fixture(tmp_path, dispatcher_span=False, handler_span=False)
    server = tmp_path / "pkg" / "service" / "server.py"
    server.write_text(
        server.read_text().replace(
            "async def _op_fetch(self, request):",
            "async def _op_fetch(self, request):  # anclint: disable=op-span-coverage — pure metadata read, not worth a span",
        )
    )
    result = wp_lint(tmp_path, select=["op-span-coverage"])
    assert result.findings == []
    assert result.suppressed.get("op-span-coverage") == 1


def write_subclass_span_fixture(tmp_path, *, base_span):
    """A router whose dispatcher lives in a base class in another module."""
    pkg = tmp_path / "pkg" / "service"
    pkg.mkdir(parents=True)
    dispatch_body = (
        '        with self.tracer.wire_span(f"front.{op}", None):\n'
        "            return await handler(self, request)\n"
        if base_span
        else "        return await handler(self, request)\n"
    )
    (pkg / "front.py").write_text(
        "class FrontBase:\n"
        "    async def _handle(self, op, request):\n"
        "        handler = self._OPS.get(op)\n" + dispatch_body
    )
    (pkg / "router.py").write_text(
        "from .front import FrontBase\n"
        "\n\n"
        "class SpanRouter(FrontBase):\n"
        "    async def _op_ping(self, request):\n"
        '        with self.tracer.span("router.ping"):\n'
        '            return {"t": 1.0}\n'
        "\n"
        "    async def _op_fetch(self, request):\n"
        "        return {}\n"
        '\n    _OPS = {"ping": _op_ping, "fetch": _op_fetch}\n'
    )


def test_op_span_coverage_base_class_dispatcher_covers(tmp_path):
    write_subclass_span_fixture(tmp_path, base_span=True)
    assert wp_lint(tmp_path, select=["op-span-coverage"]).findings == []


def test_op_span_coverage_base_without_span_still_fails(tmp_path):
    # The base dispatches the table but opens no span: inheriting it
    # covers nothing, so the span-less handler is still flagged.
    write_subclass_span_fixture(tmp_path, base_span=False)
    findings = wp_lint(tmp_path, select=["op-span-coverage"]).findings
    assert len(findings) == 1, [f.message for f in findings]
    assert "SpanRouter._op_fetch" in findings[0].message


def test_annotated_op_table_is_extracted(tmp_path):
    # ``_OPS: Dict[...] = {...}`` is as much an op table as a plain
    # assignment: its handlers reach the inventory and the span rule.
    pkg = write_span_fixture(tmp_path, dispatcher_span=False, handler_span=False)
    server = pkg / "server.py"
    server.write_text(
        "from typing import Callable, Dict\n\n\n"
        + server.read_text().replace("    _OPS = {", "    _OPS: Dict[str, Callable] = {")
    )
    model = build_project([tmp_path], package="pkg")
    tables = [table for _summ, table in model.op_tables()]
    assert [t.cls for t in tables] == ["SpanServer"]
    assert tables[0].op_names() == {"ping", "fetch"}
    findings = wp_lint(tmp_path, select=["op-span-coverage"]).findings
    assert ["SpanServer._op_fetch" in f.message for f in findings] == [True]


def test_cli_select_commas_compose_with_wp_rules(tmp_path):
    write_fixture_tree(tmp_path, bad_client_op=True)
    # Comma-joined single argument, mixing per-file and whole-program.
    out = io.StringIO()
    code = main(
        [
            "lint",
            str(tmp_path / "pkg"),
            "--select",
            "protocol-conformance,mutable-default-arg",
        ],
        out,
    )
    # The fixture package is not `repro`, so only the protocol finding
    # fires — proving the whole-program rule ran under --select.
    assert code == 1
    assert "protocol-conformance" in out.getvalue()
    out = io.StringIO()
    assert main(["lint", str(tmp_path / "pkg"), "--select", "float-equality"], out) == 0
    out = io.StringIO()
    assert main(["lint", str(tmp_path / "pkg"), "--select", "no-such-rule"], out) == 2


def test_cli_list_ops_inventory():
    out = io.StringIO()
    assert main(["lint", str(SRC), "--list-ops"], out) == 0
    table = out.getvalue()
    assert "| `ping` |" in table
    assert "ANCServer" in table and "ShardRouter" in table
    # The read router's table is annotated; it counts all the same.
    assert "| `route_status` | ReadRouter |" in table
    # The six ops this PR routed through the shard tier are covered.
    for op in ("zoom_in", "zoom_out", "watch", "unwatch", "changes", "snapshot"):
        assert f"| `{op}` |" in table


# ----------------------------------------------------------------------
# The other two gates, when their tools exist in the environment
# ----------------------------------------------------------------------

@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():  # pragma: no cover - exercised in CI
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean():  # pragma: no cover - exercised in CI
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# backend-parity-discipline
# ----------------------------------------------------------------------

def test_backend_parity_flags_unmirrored_writer():
    """A new direct hot-state writer without an array override is flagged."""
    src = """
        class AnchoredEdgeValues:
            def smuggle(self, key, value):
                self._values[key] = value
    """
    found = findings_for(src, "repro.core.decay", "backend-parity-discipline")
    assert len(found) == 1
    assert "ArrayEdgeValues" in found[0].message
    assert "_values" in found[0].message


def test_backend_parity_flags_inplace_container_calls():
    """clear()/update() on a tracked container count as writes."""
    src = """
        class PyramidIndex:
            def wipe(self):
                self._weights.clear()
    """
    found = findings_for(src, "repro.index.pyramid", "backend-parity-discipline")
    assert len(found) == 1
    assert "ArrayPyramidIndex" in found[0].message


def test_backend_parity_overridden_writer_is_clean():
    """Writers the array backend overrides pass (derived override set)."""
    src = """
        class AnchoredEdgeValues:
            def set_anchored(self, u, v, value):
                self._values[(u, v)] = value
    """
    assert not findings_for(
        src, "repro.core.decay", "backend-parity-discipline"
    )


def test_backend_parity_dispatching_writer_is_clean():
    """Writes routed through an overridden mutator method are the
    sanctioned pattern — only *direct* container writes are flagged."""
    src = """
        class PyramidIndex:
            def insert(self, key, value):
                self._store_weight(key, value)
    """
    assert not findings_for(
        src, "repro.index.pyramid", "backend-parity-discipline"
    )


def test_backend_parity_ignores_untracked_modules():
    src = """
        class AnchoredEdgeValues:
            def smuggle(self, key, value):
                self._values[key] = value
    """
    assert not findings_for(
        src, "repro.core.reinforcement", "backend-parity-discipline"
    )


def test_backend_parity_pragma_escapes_with_reason():
    src = """
        class ActiveSimilarity:
            def tweak(self, v):  # anclint: disable=backend-parity-discipline — dict-only prototype knob
                self._strength[v] += 1.0
    """
    result = lint_source(textwrap.dedent(src), module="repro.core.similarity")
    assert not [
        f for f in result.findings if f.rule == "backend-parity-discipline"
    ]
    assert result.suppressed.get("backend-parity-discipline") == 1


def test_backend_parity_overrides_derived_from_sources():
    """The override registry reflects the real array backend modules."""
    from repro.analysis.rules.backend_parity import array_overrides

    overrides = array_overrides()
    assert "set_anchored" in overrides["ArrayEdgeValues"]
    assert "_rebuild_strengths" in overrides["ArrayActiveSimilarity"]
    assert "_store_weight" in overrides["ArrayPyramidIndex"]


# ----------------------------------------------------------------------
# Derived registries: a source the derivation cannot read stops the run
# ----------------------------------------------------------------------

#: rule -> (its derivation, a fixture module the rule derives for).
DERIVED = {
    "writer-discipline": (mutator_registry, "service/handler.py"),
    "snapshot-immutability": (published_slots, "service/handler.py"),
    "backend-parity-discipline": (backend_parity.array_overrides, "core/decay.py"),
}


@pytest.fixture
def fresh_derivations():
    """Derive again in the test, and again from the real sources after it."""
    for derive, _ in DERIVED.values():
        derive.cache_clear()
    yield
    for derive, _ in DERIVED.values():
        derive.cache_clear()


@pytest.mark.parametrize("rule_name", sorted(DERIVED))
def test_unreadable_derivation_source_stops_the_lint(
    rule_name, tmp_path, monkeypatch, fresh_derivations
):
    _, fixture = DERIVED[rule_name]
    target = tmp_path / "repro" / fixture
    target.parent.mkdir(parents=True)
    target.write_text("def f():\n    return 1\n")
    monkeypatch.setattr(registry, "PACKAGE_ROOT", tmp_path / "missing")
    out = io.StringIO()
    code = main(["lint", str(tmp_path / "repro"), "--select", rule_name], out)
    assert code == 2
    assert out.getvalue().startswith(f"error: {rule_name}: cannot derive")
    assert str(tmp_path / "missing") in out.getvalue()
