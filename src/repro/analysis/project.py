"""Whole-program project model for the analysis engine.

``summarize_module`` distills one parsed module into a
:class:`ModuleSummary` — functions and the calls they make, instance
attribute writes, task/thread/process spawn sites, lock usage, wire-op
tables and emissions, error-code definitions and uses, and fault-hook
catalog/call sites.  :class:`ProjectModel` stitches the summaries into
an import graph, a name-resolved approximate call graph, and an
execution-context map (loop / thread / process) that whole-program rules
(`repro.analysis.rules.protocol`, `async_races`, `fault_hooks`) consume.

This module must not import ``repro.analysis.engine`` (the engine
imports us); ``build_project`` lives there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .astutils import (
    dotted,
    import_map,
    link_parents,
    parent as _parent,
    walk_skipping_functions,
)

__all__ = [
    "AttrWrite",
    "CallSite",
    "ErrorClass",
    "FunctionInfo",
    "HookSite",
    "LockAttr",
    "LockedAwait",
    "ModuleSummary",
    "OpEmit",
    "OpTable",
    "ProjectModel",
    "ResponseRead",
    "SpawnSite",
    "summarize_module",
]

# Mutating container-method names that count as attribute writes.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "insert",
        "pop",
        "popitem",
        "clear",
        "discard",
        "remove",
        "setdefault",
        "move_to_end",
    }
)

# Methods treated as "spawn a coroutine as a task".
_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__enter__"})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``callee`` encodings: ``"self.x"`` for self-method calls, a dotted
    name resolved through the import map (``"asyncio.create_task"``),
    ``"@attr"`` for attribute calls on unresolvable objects
    (``conn.close()`` -> ``"@close"``), or a bare local/builtin name.
    """

    callee: str
    line: int
    col: int
    args: Tuple[str, ...] = ()
    bare_stmt: bool = False


@dataclass(frozen=True)
class FunctionInfo:
    """A function or method definition (``"<module>"`` for top level)."""

    qualname: str
    cls: Optional[str]
    line: int
    is_async: bool
    trampoline: bool
    calls: Tuple[CallSite, ...]
    params: Tuple[str, ...] = ()
    #: True when the body reads an ``_OPS`` attribute — the signature of
    #: a dispatcher (``self._OPS.get(op)``), which the op-span-coverage
    #: rule treats as covering every handler in the class's table.
    reads_ops: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class AttrWrite:
    """A write to ``self.<attr>`` inside a method."""

    cls: str
    attr: str
    func: str
    line: int
    col: int
    kind: str  # "assign" | "item" | "mutate"
    guarded: bool
    in_init: bool


@dataclass(frozen=True)
class SpawnSite:
    """A point that launches work in another execution context."""

    kind: str  # "task" | "thread" | "process"
    target: str  # CallSite-style callee encoding of the target callable
    func: str  # enclosing function qualname
    line: int
    col: int
    retained: bool


@dataclass(frozen=True)
class LockAttr:
    """``self.<attr> = threading.Lock()`` (or asyncio.Lock) in a class."""

    cls: str
    attr: str
    sync: bool
    line: int


@dataclass(frozen=True)
class LockedAwait:
    """An ``await`` nested inside a sync ``with self.<lock>:`` block."""

    cls: Optional[str]
    func: str
    lock_attr: str
    line: int
    col: int


@dataclass(frozen=True)
class OpTable:
    """A class-body ``_OPS = {"op": handler, ...}`` dispatch table."""

    cls: str
    is_router: bool
    ops: Tuple[Tuple[str, int, int, str], ...]  # (op, line, col, handler-name)

    def op_names(self) -> Set[str]:
        return {op for op, _, _, _ in self.ops}


@dataclass(frozen=True)
class OpEmit:
    """An op sent on the wire (client request, payload literal, scatter)."""

    op: str
    channel: str  # "request" | "payload" | "scatter"
    func: str
    line: int
    col: int


@dataclass(frozen=True)
class ResponseRead:
    """``resp["key"]`` where ``resp`` is the result of a request call."""

    key: str
    line: int
    col: int


@dataclass(frozen=True)
class ErrorClass:
    """A class in an ``errors`` module carrying a ``code = "X"`` attr."""

    name: str
    code: str
    line: int
    col: int
    bases: Tuple[str, ...]


@dataclass(frozen=True)
class HookSite:
    """A ``<faults>.hit("site", ...)`` call site."""

    site: str
    func: str
    line: int
    col: int


@dataclass
class ModuleSummary:
    """Everything the whole-program rules need to know about one module."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_writes: List[AttrWrite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    locks: List[LockAttr] = field(default_factory=list)
    locked_awaits: List[LockedAwait] = field(default_factory=list)
    op_tables: List[OpTable] = field(default_factory=list)
    op_emits: List[OpEmit] = field(default_factory=list)
    response_reads: List[ResponseRead] = field(default_factory=list)
    str_keys: Set[str] = field(default_factory=set)
    error_classes: List[ErrorClass] = field(default_factory=list)
    code_kwargs: Set[str] = field(default_factory=set)
    code_compares: List[Tuple[str, int, int]] = field(default_factory=list)
    catalog_sites: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    hook_sites: List[HookSite] = field(default_factory=list)
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)  # name -> bases

    @property
    def last_segment(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    def segments(self) -> Tuple[str, ...]:
        return tuple(self.module.split("."))


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _encode_callable(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Encode a callable reference per the CallSite scheme."""
    if isinstance(node, ast.Name):
        return imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        path = dotted(node)
        if path is not None:
            head = path.split(".", 1)[0]
            if head == "self":
                parts = path.split(".")
                if len(parts) == 2:
                    return path  # self.x
                return "@" + parts[-1]  # self.a.b -> @b
            if head in imports:
                rest = path.split(".", 1)[1]
                return imports[head] + "." + rest
            return "@" + path.rsplit(".", 1)[-1]
        return "@" + node.attr
    return None


def _call_args(node: ast.Call, imports: Dict[str, str]) -> Tuple[str, ...]:
    """Function-reference-looking arguments of a call (incl. target=)."""
    out: List[str] = []
    values: List[ast.expr] = list(node.args)
    values.extend(kw.value for kw in node.keywords if kw.arg is not None)
    for value in values:
        enc = _encode_callable(value, imports)
        if enc is not None:
            out.append(enc)
        elif isinstance(value, ast.Call):
            # e.g. Thread(target=functools.partial(fn, x)) or create_task(coro())
            inner = _encode_callable(value.func, imports)
            if inner is not None and inner.rsplit(".", 1)[-1] == "partial":
                for sub in value.args[:1]:
                    sub_enc = _encode_callable(sub, imports)
                    if sub_enc is not None:
                        out.append(sub_enc)
            elif inner is not None:
                out.append(inner)
    return tuple(out)


def _qualname_of(node: ast.AST) -> Tuple[str, Optional[str]]:
    """(qualname, enclosing-class-name) for a def node via parent links."""
    parts: List[str] = []
    cls: Optional[str] = None
    cur: Optional[ast.AST] = node
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts.append(cur.name)
        elif isinstance(cur, ast.ClassDef):
            if cls is None and cur is not node:
                cls = cur.name
            parts.append(cur.name)
        cur = _parent(cur)
    return ".".join(reversed(parts)), cls


def _is_guarded(node: ast.AST, boundary: ast.AST) -> bool:
    """True when a sync ``with`` whose item names a lock encloses node."""
    cur = _parent(node)
    while cur is not None and cur is not boundary:
        if isinstance(cur, ast.With):
            for item in cur.items:
                expr: ast.expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                path = dotted(expr)
                if path is not None and "lock" in path.lower():
                    return True
        cur = _parent(cur)
    return False


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _Summarizer:
    def __init__(self, module: str, path: str, tree: ast.Module) -> None:
        self.summary = ModuleSummary(module=module, path=path)
        self.tree = tree
        self.imports = import_map(tree)
        self.summary.imports = dict(self.imports)
        link_parents(tree)

    # -- helpers ----------------------------------------------------------

    def _record_str_keys(self, node: ast.AST) -> None:
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    text = _str_const(key)
                    if text is not None:
                        self.summary.str_keys.add(text)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    text = _str_const(target.slice)
                    if text is not None:
                        self.summary.str_keys.add(text)
        elif isinstance(node, ast.Call):
            name = dotted(node.func)
            tail = name.rsplit(".", 1)[-1] if name else ""
            if tail in ("setdefault", "get"):
                for arg in node.args[:1]:
                    text = _str_const(arg)
                    if text is not None:
                        self.summary.str_keys.add(text)
            if tail == "update":
                for kw in node.keywords:
                    if kw.arg is not None:
                        self.summary.str_keys.add(kw.arg)

    def _spawn_kind(self, callee: str) -> Optional[str]:
        tail = callee.rsplit(".", 1)[-1].lstrip("@")
        if tail in _TASK_SPAWNERS:
            return "task"
        if tail == "Thread":
            return "thread"
        if tail == "Process":
            return "process"
        return None

    # -- per-function extraction ------------------------------------------

    def _function_body_nodes(self, fn: Optional[ast.AST]) -> Iterator[ast.AST]:
        if fn is None:
            body = [
                stmt
                for stmt in self.tree.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
            yield from walk_skipping_functions(body)
        else:
            assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk_skipping_functions(fn.body)

    def _extract_function(self, fn: Optional[ast.AST]) -> None:
        if fn is None:
            qualname, cls = "<module>", None
            is_async = False
            params: Tuple[str, ...] = ()
        else:
            assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            qualname, cls = _qualname_of(fn)
            is_async = isinstance(fn, ast.AsyncFunctionDef)
            arg_nodes = list(fn.args.posonlyargs) + list(fn.args.args)
            arg_nodes += list(fn.args.kwonlyargs)
            params = tuple(a.arg for a in arg_nodes)

        calls: List[CallSite] = []
        trampoline = False
        reads_ops = False
        nodes = list(self._function_body_nodes(fn))
        # Methods of a ClassDef nested in module body are walked when fn
        # is each method; class-level statements count toward "<module>".
        for node in nodes:
            self._record_str_keys(node)
            if isinstance(node, ast.Attribute) and node.attr == "_OPS":
                reads_ops = True
            if isinstance(node, ast.Call):
                callee = _encode_callable(node.func, self.imports)
                if callee is None:
                    continue
                args = _call_args(node, self.imports)
                parent = _parent(node)
                bare = isinstance(parent, ast.Expr)
                calls.append(
                    CallSite(
                        callee=callee,
                        line=node.lineno,
                        col=node.col_offset,
                        args=args,
                        bare_stmt=bare,
                    )
                )
                tail = callee.rsplit(".", 1)[-1].lstrip("@")
                spawn_kind = self._spawn_kind(callee)
                if spawn_kind is not None:
                    target = self._spawn_target(node, spawn_kind)
                    if target is not None:
                        retained = not bare if spawn_kind == "task" else True
                        self.summary.spawns.append(
                            SpawnSite(
                                kind=spawn_kind,
                                target=target,
                                func=qualname,
                                line=node.lineno,
                                col=node.col_offset,
                                retained=retained,
                            )
                        )
                if tail == "run_in_executor" and len(node.args) >= 2:
                    target = _encode_callable(node.args[1], self.imports)
                    if target is not None:
                        if params and target in params:
                            trampoline = True
                        else:
                            self.summary.spawns.append(
                                SpawnSite(
                                    kind="thread",
                                    target=target,
                                    func=qualname,
                                    line=node.lineno,
                                    col=node.col_offset,
                                    retained=True,
                                )
                            )
                if tail == "hit":
                    site = _str_const(node.args[0]) if node.args else None
                    if site is not None:
                        self.summary.hook_sites.append(
                            HookSite(
                                site=site,
                                func=qualname,
                                line=node.lineno,
                                col=node.col_offset,
                            )
                        )
                self._maybe_op_emit(node, callee, qualname)
                for kw in node.keywords:
                    if kw.arg == "code":
                        text = _str_const(kw.value)
                        if text is not None:
                            self.summary.code_kwargs.add(text)
            elif isinstance(node, ast.Dict):
                self._maybe_payload_emit(node, qualname)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                self._maybe_response_read(node)
            elif isinstance(node, ast.Compare):
                self._maybe_code_compare(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._maybe_attr_write(node, qualname, cls, fn)
            elif isinstance(node, ast.Await) and fn is not None and is_async:
                self._maybe_locked_await(node, fn, qualname, cls)

        # Mutating method calls on self attributes count as writes too.
        for node in nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                path = dotted(node.func)
                if path is None:
                    continue
                parts = path.split(".")
                if (
                    len(parts) == 3
                    and parts[0] == "self"
                    and parts[2] in _MUTATORS
                    and cls is not None
                ):
                    self.summary.attr_writes.append(
                        AttrWrite(
                            cls=cls,
                            attr=parts[1],
                            func=qualname,
                            line=node.lineno,
                            col=node.col_offset,
                            kind="mutate",
                            guarded=_is_guarded(node, fn if fn is not None else self.tree),
                            in_init=qualname.rsplit(".", 1)[-1] in _INIT_METHODS,
                        )
                    )

        self.summary.functions[qualname] = FunctionInfo(
            qualname=qualname,
            cls=cls,
            line=fn.lineno if fn is not None else 1,
            is_async=is_async,
            trampoline=trampoline,
            calls=tuple(calls),
            params=params,
            reads_ops=reads_ops,
        )

    def _spawn_target(self, node: ast.Call, kind: str) -> Optional[str]:
        if kind == "task":
            for arg in node.args[:1]:
                if isinstance(arg, ast.Call):
                    return _encode_callable(arg.func, self.imports)
                enc = _encode_callable(arg, self.imports)
                if enc is not None:
                    return enc
            return "<unknown>"
        for kw in node.keywords:
            if kw.arg == "target":
                if isinstance(kw.value, ast.Call):
                    inner = _encode_callable(kw.value.func, self.imports)
                    if inner is not None and inner.rsplit(".", 1)[-1] == "partial":
                        for sub in kw.value.args[:1]:
                            return _encode_callable(sub, self.imports)
                    return inner
                return _encode_callable(kw.value, self.imports)
        return None

    def _maybe_op_emit(self, node: ast.Call, callee: str, qualname: str) -> None:
        tail = callee.rsplit(".", 1)[-1].lstrip("@")
        if tail == "request" and node.args:
            op = _str_const(node.args[0])
            if op is not None:
                self.summary.op_emits.append(
                    OpEmit(
                        op=op,
                        channel="request",
                        func=qualname,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
        elif tail == "_scatter" and node.args:
            op = _str_const(node.args[0])
            if op is not None:
                self.summary.op_emits.append(
                    OpEmit(
                        op=op,
                        channel="scatter",
                        func=qualname,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )

    def _maybe_payload_emit(self, node: ast.Dict, qualname: str) -> None:
        for key, value in zip(node.keys, node.values):
            if key is not None and _str_const(key) == "op":
                op = _str_const(value)
                if op is not None:
                    self.summary.op_emits.append(
                        OpEmit(
                            op=op,
                            channel="payload",
                            func=qualname,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )

    def _maybe_response_read(self, node: ast.Subscript) -> None:
        key = _str_const(node.slice)
        if key is None:
            return
        value = node.value
        # resp["k"] directly on a request(...) call, or awaited.
        if isinstance(value, ast.Await):
            value = value.value
        if isinstance(value, ast.Call):
            name = dotted(value.func)
            if name is not None and name.rsplit(".", 1)[-1] == "request":
                self.summary.response_reads.append(
                    ResponseRead(key=key, line=node.lineno, col=node.col_offset)
                )

    def _maybe_code_compare(self, node: ast.Compare) -> None:
        left = dotted(node.left)
        if left is None:
            return
        tail = left.rsplit(".", 1)[-1]
        if tail not in ("code", "error_type"):
            return
        for comp in node.comparators:
            text = _str_const(comp)
            if text is not None:
                self.summary.code_compares.append(
                    (text, node.lineno, node.col_offset)
                )
            elif isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                for elt in comp.elts:
                    sub = _str_const(elt)
                    if sub is not None:
                        self.summary.code_compares.append(
                            (sub, node.lineno, node.col_offset)
                        )

    def _maybe_attr_write(
        self,
        node: ast.AST,
        qualname: str,
        cls: Optional[str],
        fn: Optional[ast.AST],
    ) -> None:
        if cls is None:
            return
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            kind = "assign"
            expr = target
            if isinstance(expr, ast.Subscript):
                kind = "item"
                expr = expr.value
            if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                if expr.value.id == "self":
                    self.summary.attr_writes.append(
                        AttrWrite(
                            cls=cls,
                            attr=expr.attr,
                            func=qualname,
                            line=node.lineno,
                            col=node.col_offset,
                            kind=kind,
                            guarded=_is_guarded(
                                node, fn if fn is not None else self.tree
                            ),
                            in_init=qualname.rsplit(".", 1)[-1] in _INIT_METHODS,
                        )
                    )

    def _maybe_locked_await(
        self,
        node: ast.Await,
        fn: ast.AST,
        qualname: str,
        cls: Optional[str],
    ) -> None:
        cur = _parent(node)
        while cur is not None and cur is not fn:
            if isinstance(cur, ast.With):
                for item in cur.items:
                    expr: ast.expr = item.context_expr
                    path = dotted(expr)
                    if path is not None and path.startswith("self."):
                        attr = path.split(".", 2)[1]
                        self.summary.locked_awaits.append(
                            LockedAwait(
                                cls=cls,
                                func=qualname,
                                lock_attr=attr,
                                line=node.lineno,
                                col=node.col_offset,
                            )
                        )
            cur = _parent(cur)

    # -- class-level extraction -------------------------------------------

    def _extract_class(self, node: ast.ClassDef) -> None:
        bases = tuple(
            b for b in (dotted(base) for base in node.bases) if b is not None
        )
        self.summary.classes[node.name] = bases
        code: Optional[str] = None
        ops: List[Tuple[str, int, int, str]] = []
        for stmt in node.body:
            # ``_OPS = {...}`` and ``_OPS: Dict[...] = {...}`` alike.
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name) and value is not None:
                if target.id == "code":
                    code = _str_const(value)
                elif target.id == "_OPS" and isinstance(value, ast.Dict):
                    for key, handler_node in zip(value.keys, value.values):
                        if key is None:
                            continue
                        op = _str_const(key)
                        if op is None:
                            continue
                        handler = dotted(handler_node) or "<expr>"
                        ops.append((op, key.lineno, key.col_offset, handler))
            # Lock attributes assigned in __init__ bodies.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in walk_skipping_functions(stmt.body):
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        tgt = sub.targets[0]
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                            and isinstance(sub.value, ast.Call)
                        ):
                            ctor = _encode_callable(sub.value.func, self.imports)
                            if ctor is None:
                                continue
                            tail = ctor.rsplit(".", 1)[-1]
                            if tail in ("Lock", "RLock", "Condition", "Semaphore"):
                                sync = not ctor.startswith("asyncio")
                                self.summary.locks.append(
                                    LockAttr(
                                        cls=node.name,
                                        attr=tgt.attr,
                                        sync=sync,
                                        line=sub.lineno,
                                    )
                                )
        if ops:
            self.summary.op_tables.append(
                OpTable(
                    cls=node.name,
                    is_router="router" in node.name.lower(),
                    ops=tuple(ops),
                )
            )
        if code is not None and self.summary.last_segment == "errors":
            self.summary.error_classes.append(
                ErrorClass(
                    name=node.name,
                    code=code,
                    line=node.lineno,
                    col=node.col_offset,
                    bases=bases,
                )
            )

    def _extract_catalog(self) -> None:
        if self.summary.last_segment != "injectors":
            return
        for stmt in self.tree.body:
            # ``CATALOG = {...}`` or, annotated, ``CATALOG: ... = {...}``.
            if isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            else:
                continue
            if (
                isinstance(target, ast.Name)
                and target.id == "CATALOG"
                and isinstance(value, ast.Dict)
            ):
                for key in value.keys:
                    if key is None:
                        continue
                    site = _str_const(key)
                    if site is not None:
                        self.summary.catalog_sites[site] = (
                            key.lineno,
                            key.col_offset,
                        )

    def run(self) -> ModuleSummary:
        self._extract_function(None)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(node)
            elif isinstance(node, ast.ClassDef):
                self._extract_class(node)
        self._extract_catalog()
        return self.summary


def summarize_module(module: str, path: str, tree: ast.Module) -> ModuleSummary:
    """Distill one parsed module into its summary."""
    return _Summarizer(module, path, tree).run()


# ---------------------------------------------------------------------------
# Project model
# ---------------------------------------------------------------------------

# A bare/attribute name matching more than this many defs project-wide is
# too ambiguous to draw call edges through.
_NAME_MATCH_LIMIT = 4


class ProjectModel:
    """The stitched whole-program view handed to WholeProgramRule checks."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {s.module: s for s in summaries}
        # "module:qualname" -> FunctionInfo
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionInfo]] = {}
        # terminal function name -> list of function keys
        self._by_name: Dict[str, List[str]] = {}
        for summ in self.modules.values():
            for qualname, info in summ.functions.items():
                key = f"{summ.module}:{qualname}"
                self.functions[key] = (summ, info)
                self._by_name.setdefault(info.name, []).append(key)
        self.import_graph: Dict[str, Set[str]] = {
            mod: self._project_imports(summ) for mod, summ in self.modules.items()
        }
        #: (module, class) -> every project class that derives from it.
        self._descendants: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        for mod, summ in self.modules.items():
            for cls in summ.classes:
                for ancestor in self.lineage(mod, cls)[1:]:
                    self._descendants.setdefault(ancestor, []).append((mod, cls))
        self.call_edges: Dict[str, Set[str]] = {}
        for key, (summ, info) in self.functions.items():
            self.call_edges[key] = set()
            for call in info.calls:
                self.call_edges[key].update(self._resolve_call(summ, info, call.callee))

    # -- resolution -------------------------------------------------------

    def _resolve_module(self, summ: ModuleSummary, target: str) -> Optional[str]:
        """Resolve a (possibly relative) dotted import to a project module."""
        if target.startswith("."):
            level = len(target) - len(target.lstrip("."))
            rest = target.lstrip(".")
            base = summ.module.split(".")
            if len(base) >= level:
                prefix = base[:-level] if level else base
                candidate = ".".join(prefix + ([rest] if rest else []))
            else:
                candidate = rest
        else:
            candidate = target
        # Longest project-module prefix match.
        parts = candidate.split(".")
        for i in range(len(parts), 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.modules:
                return mod
        return None

    def lineage(self, module: str, cls: str) -> List[Tuple[str, str]]:
        """``(module, class)`` of ``cls`` and of every base class the
        project defines, nearest first; bases resolve through imports."""
        out: List[Tuple[str, str]] = []
        todo = [(module, cls)]
        while todo:
            mod, name = todo.pop(0)
            if (mod, name) in out:
                continue
            out.append((mod, name))
            summ = self.modules[mod]
            for base in summ.classes.get(name, ()):
                head, _, rest = base.partition(".")
                if not rest and base in summ.classes:
                    todo.append((mod, base))
                    continue
                target = summ.imports.get(head)
                if target is None:
                    continue
                full = f"{target}.{rest}" if rest else target
                base_mod = self._resolve_module(summ, full)
                base_name = full.rsplit(".", 1)[-1]
                if base_mod is not None and base_name in self.modules[base_mod].classes:
                    todo.append((base_mod, base_name))
        return out

    def _project_imports(self, summ: ModuleSummary) -> Set[str]:
        out: Set[str] = set()
        for target in summ.imports.values():
            mod = self._resolve_module(summ, target)
            if mod is not None:
                out.add(mod)
        return out

    def _resolve_call(
        self, summ: ModuleSummary, info: FunctionInfo, callee: str
    ) -> Set[str]:
        out: Set[str] = set()
        if callee.startswith("self."):
            attr = callee.split(".", 1)[1]
            if info.cls is not None:
                key = f"{summ.module}:{info.cls}.{attr}"
                if key in self.functions:
                    # Virtual dispatch: a subclass's override runs too.
                    out.add(key)
                    for mod, cls in self._descendants.get((summ.module, info.cls), ()):
                        override = f"{mod}:{cls}.{attr}"
                        if override in self.functions:
                            out.add(override)
                    return out
            out.update(self._name_matches(attr, limit=1))
            return out
        if callee.startswith("@"):
            # Attribute calls on unknown objects only resolve when the
            # name is unique project-wide — anything looser invents
            # cross-class edges (`engine.stats()` -> `ServiceClient.stats`)
            # that poison context propagation.
            return self._name_matches(callee[1:], limit=1)
        if "." in callee or callee.startswith("."):
            mod = self._resolve_module(summ, callee)
            if mod is None:
                return out
            tail = callee.lstrip(".")
            # Strip the module prefix (absolute) to find the member path.
            member = ""
            if tail.startswith(mod):
                member = tail[len(mod) :].lstrip(".")
            else:
                member = tail.rsplit(".", 1)[-1] if "." in tail else tail
            target_summ = self.modules[mod]
            if member:
                if member in target_summ.functions:
                    return {f"{mod}:{member}"}
                if member in target_summ.classes:
                    init = f"{mod}:{member}.__init__"
                    if init in self.functions:
                        return {init}
                    return out
                out.update(self._name_matches(member.rsplit(".", 1)[-1]))
            return out
        # Bare name: same module first, then one import hop, then global.
        if callee in summ.functions:
            return {f"{summ.module}:{callee}"}
        if callee in summ.classes:
            init = f"{summ.module}:{callee}.__init__"
            if init in self.functions:
                return {init}
            return out
        return self._name_matches(callee)

    def _name_matches(self, name: str, limit: int = _NAME_MATCH_LIMIT) -> Set[str]:
        keys = self._by_name.get(name, [])
        if 0 < len(keys) <= limit:
            return set(keys)
        return set()

    # -- graph queries ----------------------------------------------------

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Function keys reachable from the given function keys."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.call_edges.get(key, ()))
        return seen

    def default_roots(self) -> Set[str]:
        """A generous entry-point set: module tops, public defs, handlers,
        and anything referenced as a call argument (callbacks)."""
        roots: Set[str] = set()
        for summ in self.modules.values():
            for qualname, info in summ.functions.items():
                key = f"{summ.module}:{qualname}"
                if qualname == "<module>":
                    roots.add(key)
                    continue
                if not any(p.startswith("_") for p in qualname.split(".")):
                    roots.add(key)
            for table in summ.op_tables:
                for _, _, _, handler in table.ops:
                    name = handler.rsplit(".", 1)[-1]
                    roots.update(self._name_matches(name))
            for info in summ.functions.values():
                for call in info.calls:
                    for arg in call.args:
                        tail = arg.rsplit(".", 1)[-1].lstrip("@")
                        if arg.startswith("self."):
                            tail = arg.split(".", 1)[1]
                        roots.update(self._name_matches(tail))
        return roots

    def contexts(self) -> Dict[str, Set[str]]:
        """function key -> execution contexts ({"loop","thread","process"}).

        Contexts propagate along call edges but never *into* an async def:
        crossing into a coroutine means an event loop runs it (the async
        barrier), so thread/process taint stops there.
        """
        ctx: Dict[str, Set[str]] = {}

        def seed(key: str, kind: str) -> None:
            ctx.setdefault(key, set()).add(kind)

        for key, (summ, info) in self.functions.items():
            if info.is_async:
                seed(key, "loop")
        for summ in self.modules.values():
            for spawn in summ.spawns:
                kind = {"task": "loop", "thread": "thread", "process": "process"}[
                    spawn.kind
                ]
                tail = spawn.target.rsplit(".", 1)[-1].lstrip("@")
                if spawn.target.startswith("self."):
                    tail = spawn.target.split(".", 1)[1]
                for key in self._name_matches(tail):
                    seed(key, kind)
            # Trampolines: callables passed as arguments run on a thread.
            for info in summ.functions.values():
                for call in info.calls:
                    targets = self._resolve_call(summ, info, call.callee)
                    if any(
                        self.functions[t][1].trampoline
                        for t in targets
                        if t in self.functions
                    ):
                        for arg in call.args:
                            tail = arg.rsplit(".", 1)[-1].lstrip("@")
                            if arg.startswith("self."):
                                tail = arg.split(".", 1)[1]
                            for key in self._name_matches(tail):
                                seed(key, "thread")

        # Propagate along call edges, honoring two barriers: crossing
        # into an async def (an event loop runs it), and crossing into a
        # constructor (construction is single-threaded startup — taint
        # through __init__ would stamp phantom contexts on its helpers).
        changed = True
        while changed:
            changed = False
            for key, kinds in list(ctx.items()):
                for nxt in self.call_edges.get(key, ()):
                    if nxt not in self.functions:
                        continue
                    nxt_info = self.functions[nxt][1]
                    if nxt_info.is_async:
                        continue
                    if nxt_info.name in _INIT_METHODS:
                        continue
                    cur = ctx.setdefault(nxt, set())
                    add = kinds - cur
                    if add:
                        cur.update(add)
                        changed = True
        return ctx

    # -- protocol views ---------------------------------------------------

    def op_tables(self) -> List[Tuple[ModuleSummary, OpTable]]:
        return [
            (summ, table)
            for summ in self.modules.values()
            for table in summ.op_tables
        ]

    def server_ops(self) -> Set[str]:
        return {
            op
            for summ, table in self.op_tables()
            if not table.is_router
            for op in table.op_names()
        }

    def router_ops(self) -> Set[str]:
        return {
            op
            for summ, table in self.op_tables()
            if table.is_router
            for op in table.op_names()
        }

    def has_router(self) -> bool:
        return any(table.is_router for _, table in self.op_tables())

    def error_vocabulary(self) -> Set[str]:
        vocab: Set[str] = set()
        for summ in self.modules.values():
            vocab.update(e.code for e in summ.error_classes)
            vocab.update(summ.code_kwargs)
        return vocab

    def instantiated_names(self) -> Set[str]:
        """Terminal names of everything called anywhere in the project."""
        out: Set[str] = set()
        for summ in self.modules.values():
            for info in summ.functions.values():
                for call in info.calls:
                    tail = call.callee.rsplit(".", 1)[-1].lstrip("@")
                    if call.callee.startswith("self."):
                        tail = call.callee.split(".", 1)[1]
                    out.add(tail)
                    for arg in call.args:
                        out.add(arg.rsplit(".", 1)[-1].lstrip("@"))
        return out

    def subclassed_names(self) -> Set[str]:
        out: Set[str] = set()
        for summ in self.modules.values():
            for bases in summ.classes.values():
                for base in bases:
                    out.add(base.rsplit(".", 1)[-1])
        return out
