"""writer-discipline: engine mutation stays on the writer thread.

The service's concurrency model (docs/service.md) is single-writer /
multi-reader: exactly one thread — the :class:`~repro.service.
engine_host.EngineHost` writer — may call engine- or index-mutating
methods; every other service path reads immutable ``PublishedState``
snapshots.  This rule flags calls to known mutators from service modules
outside the writer paths (``engine_host`` itself and ``snapshots``,
whose WAL-replay drives the engine during recovery *before* the host
starts).  The sharded tier (:mod:`repro.shard`) inherits the same
contract: each worker process embeds a full service stack, and the
router/merge/admin modules are pure readers — only ``repro.shard.worker``
may touch an engine (it rebuilds the shard's graph before handing it to
the in-process ``ANCServer``).  Non-service code — benchmarks, CLI,
tests, the library API — owns its engines outright and may mutate
freely.

The mutator registry is **derived from the source of truth**: the method
sets of :class:`~repro.core.anc.ANCEngineBase` and its subclasses, of
:class:`~repro.index.pyramid.PyramidIndex`, and the module-level update
functions of :mod:`repro.index.dynamic`, minus an explicit read-only
allowlist — so a mutator added to the engine later is covered without
touching this rule.  If a source cannot be read or yields no mutators,
the run stops (:class:`~repro.analysis.registry.RuleSourceError`).
``close`` is deliberately excluded: the name is too generic (file
handles, clients, executors) to flag without drowning in false
positives, and closing is a lifecycle action, not a state mutation.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, Tuple

from ..astutils import dotted
from ..engine import FileContext
from ..registry import RuleSourceError, parse_package_source, rule

#: Service/shard modules allowed to drive engine mutation.  The shard
#: worker hosts a full in-process ``ANCServer`` (its own writer thread);
#: everything else in ``repro.shard`` — router, merge, admin — must stay
#: read-only.
WRITER_MODULES = frozenset(
    {
        "repro.service.engine_host",
        "repro.service.snapshots",
        "repro.shard.worker",
    }
)

#: Engine/index methods that only *read* — never part of the registry.
READ_ONLY_METHODS = frozenset(
    {
        "clusters",
        "cluster_of",
        "zoom_in",
        "zoom_out",
        "stats",
        "now",
        "weight",
        "weights_view",
        "partitions",
        "partitions_at",
        "vote_count",
        "same_cluster_vote",
        "memory_cost",
        "check_consistency",
        "num_levels",
        "snapshot_weights",
        "partitions_with_levels",
    }
)

#: Lifecycle methods excluded from the registry (see module docstring).
#: ``attach_obs`` wires an observability bundle onto an engine before the
#: writer starts — configuration, not state mutation, and the server does
#: it from ``__init__`` by design.
EXCLUDED_METHODS = frozenset({"close", "attach_obs"})

#: Classes whose public methods (minus the allowlist) are mutators.
_ENGINE_CLASSES = frozenset({"ANCEngineBase", "ANCO", "ANCOR", "ANCF"})
_INDEX_CLASSES = frozenset({"PyramidIndex"})


def _is_property(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for deco in node.decorator_list:
        name = dotted(deco)
        if name in ("property", "cached_property", "functools.cached_property"):
            return True
    return False


def _class_methods(tree: ast.Module, class_names: FrozenSet[str]) -> Iterator[str]:
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in class_names):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_") or _is_property(item):
                continue
            yield item.name


def _module_functions(tree: ast.Module) -> Iterator[str]:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name


@lru_cache(maxsize=1)
def mutator_registry() -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(method mutators, function mutators), derived from the sources."""
    name = "writer-discipline"
    methods = set(
        _class_methods(parse_package_source(name, "core/anc.py"), _ENGINE_CLASSES)
    )
    methods.update(
        _class_methods(parse_package_source(name, "index/pyramid.py"), _INDEX_CLASSES)
    )
    functions = set(_module_functions(parse_package_source(name, "index/dynamic.py")))
    methods -= READ_ONLY_METHODS | EXCLUDED_METHODS
    functions -= READ_ONLY_METHODS | EXCLUDED_METHODS
    if not methods or not functions:
        raise RuleSourceError(
            f"{name}: no mutators found in core/anc.py, index/pyramid.py "
            f"and index/dynamic.py"
        )
    return frozenset(methods), frozenset(functions)


@rule(
    "writer-discipline",
    "engine/index mutators may only be called from the service writer paths",
)
def check(ctx: FileContext) -> Iterable[Tuple[ast.AST, str]]:
    if not ctx.in_package("repro.service", "repro.shard"):
        return
    if ctx.module in WRITER_MODULES:
        return
    method_mutators, function_mutators = mutator_registry()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in method_mutators:
            yield (
                node,
                f"call to engine mutator .{func.attr}() outside the writer "
                f"path; route mutations through EngineHost (single-writer "
                f"discipline, docs/service.md)",
            )
        elif isinstance(func, ast.Name) and func.id in function_mutators:
            yield (
                node,
                f"call to index mutator {func.id}() outside the writer path; "
                f"route mutations through EngineHost (single-writer "
                f"discipline, docs/service.md)",
            )


__all__ = [
    "EXCLUDED_METHODS",
    "READ_ONLY_METHODS",
    "WRITER_MODULES",
    "check",
    "mutator_registry",
]
