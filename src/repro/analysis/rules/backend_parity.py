"""backend-parity-discipline: hot-state writers must exist in both backends.

The serving engine (:mod:`repro.core.arrays`,
:mod:`repro.index.array_index`) subclasses the dict-of-dicts reference
oracle (docs/engine-internals.md) and must agree with it bit for bit.
The array side mirrors three dict containers into flat storage — the anchored
edge values (``AnchoredEdgeValues._values``), the cached node strengths
(``ActiveSimilarity._strength``) and the index weight table
(``PyramidIndex._weights``).  A method on a base class that writes one
of those containers *directly* updates only the dict side; unless the
array subclass overrides it (or the write funnels through a mutator the
subclass overrides, like ``PyramidIndex._store_weight``), the two
backends silently diverge and the differential harness
(``tests/test_engine_parity.py``) fails long after the edit that caused
it.

This rule closes that gap at lint time: inside the tracked hot-path
modules, any method of a tracked class whose body writes a tracked
container must be overridden by the corresponding array class.  Writes
routed through store/mutator *methods* are exempt by construction —
they dispatch virtually, so the array store receives them — which is
exactly the discipline the rule name demands: write hot state through
an interface both backends implement, or implement it twice.

The override sets are **derived from the array sources** at lint time
(parsed once per process); a source that cannot be read, or lacks its
array class, stops the run.  Escape hatch: ``# anclint:
disable=backend-parity-discipline — reason`` on the offending method.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from ..engine import FileContext
from ..registry import RuleSourceError, parse_package_source, rule

#: Dict-container method calls that mutate in place.
MUTATING_CONTAINER_METHODS = frozenset(
    {"clear", "update", "pop", "popitem", "setdefault"}
)

#: base module -> (base class, tracked containers, array module, array class).
#: ``LocalReinforcement`` is deliberately absent: its writes all go
#: through the similarity store's mutator methods, which dispatch to the
#: array store virtually — the discipline this rule enforces.
TRACKED: Mapping[str, Tuple[str, FrozenSet[str], str, str]] = {
    "repro.core.decay": (
        "AnchoredEdgeValues",
        frozenset({"_values"}),
        "core/arrays.py",
        "ArrayEdgeValues",
    ),
    "repro.core.similarity": (
        "ActiveSimilarity",
        frozenset({"_strength"}),
        "core/arrays.py",
        "ArrayActiveSimilarity",
    ),
    "repro.index.pyramid": (
        "PyramidIndex",
        frozenset({"_weights"}),
        "index/array_index.py",
        "ArrayPyramidIndex",
    ),
}


def _methods_of(tree: ast.Module, class_name: str) -> FrozenSet[str]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return frozenset(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return frozenset()


@lru_cache(maxsize=1)
def array_overrides() -> Mapping[str, FrozenSet[str]]:
    """array class -> its method names, derived from the array sources."""
    name = "backend-parity-discipline"
    derived: Dict[str, FrozenSet[str]] = {}
    for _module, (_base, _containers, rel, cls) in TRACKED.items():
        methods = _methods_of(parse_package_source(name, rel), cls)
        if not methods:
            raise RuleSourceError(f"{name}: no methods found for {cls} in {rel}")
        derived[cls] = methods
    return derived


def _is_self_container(node: ast.AST, containers: FrozenSet[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in containers
    )


def _writes_container(
    method: ast.AST, containers: FrozenSet[str]
) -> Tuple[bool, str]:
    """(writes?, container name) for direct writes inside ``method``."""
    for node in ast.walk(method):
        targets: Iterable[ast.AST] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_CONTAINER_METHODS
                and _is_self_container(func.value, containers)
            ):
                return True, func.value.attr  # type: ignore[union-attr]
        for target in targets:
            if isinstance(target, ast.Subscript) and _is_self_container(
                target.value, containers
            ):
                return True, target.value.attr  # type: ignore[union-attr]
            if _is_self_container(target, containers):
                return True, target.attr  # type: ignore[union-attr]
    return False, ""


@rule(
    "backend-parity-discipline",
    "direct hot-state writers must be overridden by the array backend",
)
def check(ctx: FileContext) -> Iterable[Tuple[ast.AST, str]]:
    tracked = TRACKED.get(ctx.module)
    if tracked is None:
        return
    base_class, containers, array_module, array_class = tracked
    overrides = array_overrides()[array_class]
    for node in ctx.tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == base_class):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__" or item.name in overrides:
                continue
            writes, container = _writes_container(item, containers)
            if writes:
                yield (
                    item,
                    f"hot-state writer {base_class}.{item.name}() mutates "
                    f"self.{container} but {array_class} "
                    f"(src/repro/{array_module}) does not override it; "
                    f"mirror the method in the array backend or route the "
                    f"write through an overridden mutator "
                    f"(backend parity discipline, docs/engine-internals.md)",
                )


__all__ = [
    "MUTATING_CONTAINER_METHODS",
    "TRACKED",
    "array_overrides",
    "check",
]
