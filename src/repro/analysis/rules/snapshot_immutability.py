"""snapshot-immutability: nobody mutates a published snapshot.

Readers of the service see :class:`~repro.service.engine_host.
PublishedState` objects shared across threads with no locking; the model
is only sound because a state is frozen at construction and replaced,
never edited.  This rule flags, anywhere in the tree:

* assignment (plain, augmented, annotated) to a ``PublishedState`` slot
  through any receiver other than ``self`` — ``state.seq = 7``;
* the same through ``self`` inside ``PublishedState`` but outside
  ``__init__``;
* item assignment / deletion and mutating method calls (``append``,
  ``update``, …) on the container slots — ``state.stats["x"] = 1``,
  ``state.clusters_by_level[5].append(...)``.

The slot list is derived from ``PublishedState.__slots__`` in the
service source, so the rule tracks the class as it evolves; a source
without them stops the run.  ``self.<slot>`` assignments in *other*
classes are deliberately not flagged: names like ``t`` or ``stats`` are
common and those objects are not snapshots.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from ..astutils import enclosing_class, enclosing_function, str_constants
from ..engine import FileContext
from ..registry import RuleSourceError, parse_package_source, rule

#: Slots holding containers, for the mutating-call/item checks
#: (``activations`` is a plain int and is covered by the assignment check).
CONTAINER_SLOTS = frozenset(
    {"clusters_by_level", "membership_by_level", "stats"}
)

MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "setdefault",
        "sort",
        "reverse",
    }
)


@lru_cache(maxsize=1)
def published_slots() -> FrozenSet[str]:
    """``PublishedState.__slots__``, read from the service source."""
    name = "snapshot-immutability"
    tree = parse_package_source(name, "service/engine_host.py")
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == "PublishedState"):
            continue
        for item in node.body:
            if not isinstance(item, ast.Assign):
                continue
            targets = [t.id for t in item.targets if isinstance(t, ast.Name)]
            if "__slots__" in targets:
                slots = str_constants(item.value)
                if slots:
                    return frozenset(slots)
    raise RuleSourceError(
        f"{name}: no PublishedState.__slots__ found in service/engine_host.py"
    )


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _inside_published_init(node: ast.AST) -> bool:
    cls = enclosing_class(node)
    func = enclosing_function(node)
    return (
        cls is not None
        and cls.name == "PublishedState"
        and func is not None
        and func.name == "__init__"
    )


def _slot_attribute(node: ast.AST, slots: FrozenSet[str]) -> Optional[ast.Attribute]:
    """``node`` itself if it is an ``<expr>.<slot>`` attribute access."""
    if isinstance(node, ast.Attribute) and node.attr in slots:
        return node
    return None


def _flag_write(
    target: ast.AST, slots: FrozenSet[str], verb: str
) -> Iterator[Tuple[ast.AST, str]]:
    attr = _slot_attribute(target, slots)
    if attr is not None:
        if _is_self(attr.value):
            cls = enclosing_class(attr)
            func = enclosing_function(attr)
            if (
                cls is not None
                and cls.name == "PublishedState"
                and not (func is not None and func.name == "__init__")
            ):
                yield (
                    target,
                    f"{verb} to PublishedState.{attr.attr} outside __init__; "
                    f"snapshots are immutable once published (docs/service.md)",
                )
        else:
            yield (
                target,
                f"{verb} to .{attr.attr} mutates a PublishedState snapshot; "
                f"build a new state and publish it instead (docs/service.md)",
            )
        return
    # Item write through a container slot: state.stats["x"] = 1.
    if isinstance(target, ast.Subscript):
        inner = _slot_attribute(target.value, slots & CONTAINER_SLOTS)
        if inner is not None and not _is_self(inner.value):
            yield (
                target,
                f"item {verb.lower()} on .{inner.attr} mutates a "
                f"PublishedState snapshot; build a new state instead",
            )


@rule(
    "snapshot-immutability",
    "PublishedState snapshots are never mutated after construction",
)
def check(ctx: FileContext) -> Iterable[Tuple[ast.AST, str]]:
    slots = published_slots()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _flag_write(target, slots, "assignment")
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield from _flag_write(node.target, slots, "assignment")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                yield from _flag_write(target, slots, "deletion")
        elif isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS
            ):
                continue
            target = func.value
            # Look through one subscript: state.clusters_by_level[5].append(x).
            if isinstance(target, ast.Subscript):
                target = target.value
            receiver = _slot_attribute(target, frozenset(CONTAINER_SLOTS))
            if receiver is None or _is_self(receiver.value):
                continue
            if _inside_published_init(node):
                continue
            yield (
                node,
                f".{receiver.attr}.{func.attr}() mutates a PublishedState "
                f"snapshot; snapshots are frozen once published "
                f"(docs/service.md)",
            )


__all__ = [
    "CONTAINER_SLOTS",
    "MUTATING_METHODS",
    "check",
    "published_slots",
]
