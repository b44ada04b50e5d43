"""The rule registry.

A rule is a function ``check(ctx) -> Iterable[(node, message)]``
registered under a stable kebab-case name; the engine turns the yielded
pairs into :class:`~repro.analysis.findings.Finding` records and applies
pragma suppressions.  Names double as pragma targets
(``# anclint: disable=<name> — reason``) and ``--select`` arguments.

Some rules derive what they check from the package's own sources (the
engine's mutators, the snapshot slots, the array backend's overrides).
:func:`parse_package_source` reads those; when it cannot, it raises
:class:`RuleSourceError`, which stops the run: a rule checking against
a list it guessed would pass code it should flag.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import FileContext
    from .project import ProjectModel

#: The ``repro`` package directory the derived rules read from.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


class RuleSourceError(Exception):
    """A rule could not derive what it checks from the package sources."""


def parse_package_source(rule_name: str, relpath: str) -> ast.Module:
    """Parse ``relpath`` under :data:`PACKAGE_ROOT` for ``rule_name``."""
    path = PACKAGE_ROOT / relpath
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError) as exc:
        raise RuleSourceError(
            f"{rule_name}: cannot derive its registry from {path}: {exc}"
        ) from exc


CheckFn = Callable[["FileContext"], Iterable[Tuple[ast.AST, str]]]

#: A whole-program check yields ``(path, line, col, message)`` — findings
#: are anchored to arbitrary files, so AST nodes alone cannot carry them.
WholeProgramCheckFn = Callable[
    ["ProjectModel"], Iterable[Tuple[str, int, int, str]]
]


@dataclass(frozen=True)
class Rule:
    """One registered rule: identity, one-line summary, and its check."""

    name: str
    summary: str
    check: CheckFn


_REGISTRY: Dict[str, Rule] = {}


def rule(name: str, summary: str) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` under ``name`` (decorator)."""

    def decorate(check: CheckFn) -> CheckFn:
        if name in _REGISTRY:
            raise ValueError(f"duplicate rule name {name!r}")
        _REGISTRY[name] = Rule(name=name, summary=summary, check=check)
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by name."""
    return sorted(_REGISTRY.values(), key=lambda r: r.name)


def get_rule(name: str) -> Rule:
    """Look up one rule; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {name!r}; known rules: {known}") from None


@dataclass(frozen=True)
class WholeProgramRule:
    """A rule that runs once over the stitched :class:`ProjectModel`."""

    name: str
    summary: str
    check: WholeProgramCheckFn


_WP_REGISTRY: Dict[str, WholeProgramRule] = {}


def whole_program_rule(
    name: str, summary: str
) -> Callable[[WholeProgramCheckFn], WholeProgramCheckFn]:
    """Register a whole-program check under ``name`` (decorator)."""

    def decorate(check: WholeProgramCheckFn) -> WholeProgramCheckFn:
        if name in _WP_REGISTRY or name in _REGISTRY:
            raise ValueError(f"duplicate rule name {name!r}")
        _WP_REGISTRY[name] = WholeProgramRule(name=name, summary=summary, check=check)
        return check

    return decorate


def all_whole_program_rules() -> List[WholeProgramRule]:
    """Every registered whole-program rule, sorted by name."""
    return sorted(_WP_REGISTRY.values(), key=lambda r: r.name)


def split_selection(
    select: Optional[Sequence[str]],
) -> Tuple[List[Rule], List[WholeProgramRule]]:
    """Partition a ``--select`` list into per-file and whole-program rules.

    ``None`` selects everything.  Unknown names raise ``KeyError`` naming
    both catalogues.
    """
    if select is None:
        return all_rules(), all_whole_program_rules()
    per_file: List[Rule] = []
    whole: List[WholeProgramRule] = []
    for name in select:
        if name in _REGISTRY:
            per_file.append(_REGISTRY[name])
        elif name in _WP_REGISTRY:
            whole.append(_WP_REGISTRY[name])
        else:
            known = ", ".join(sorted(set(_REGISTRY) | set(_WP_REGISTRY)))
            raise KeyError(f"unknown rule {name!r}; known rules: {known}")
    return per_file, whole


__all__ = [
    "CheckFn",
    "PACKAGE_ROOT",
    "Rule",
    "RuleSourceError",
    "WholeProgramCheckFn",
    "WholeProgramRule",
    "all_rules",
    "all_whole_program_rules",
    "get_rule",
    "parse_package_source",
    "rule",
    "split_selection",
    "whole_program_rule",
]
