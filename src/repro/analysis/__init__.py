"""AST-based invariant linter for the ANC engines and service layer.

The correctness of the PR 1 service rests on conventions the runtime
cannot check: engines are mutated only from the writer thread, engine
code never reads the wall clock (byte-identical kill -9 recovery depends
on data-derived timestamps), and :class:`~repro.service.engine_host.
PublishedState` snapshots are never mutated by readers.  This package
encodes those disciplines — plus a handful of generic Python hygiene
rules — as machine-checked AST rules over the source tree.

Entry points:

* ``repro-anc lint [paths...]`` — the CLI gate (see :mod:`repro.cli`);
* :func:`lint_paths` / :func:`lint_source` — the library API;
* :func:`all_rules` — the rule catalogue (see ``docs/static-analysis.md``).

Findings can be suppressed per line or per file with an exemption
pragma carrying a reason::

    if g != 1.0:  # anclint: disable=float-equality — exact no-op guard

Suppressions are counted and reported, never silent.  Everything here is
pure stdlib ``ast`` — no new runtime dependencies.
"""

from .engine import (
    FileContext,
    LintResult,
    build_project,
    iter_python_files,
    lint_paths,
    lint_source,
)
from .findings import Finding
from .pragmas import Suppressions, parse_pragmas
from .project import ModuleSummary, ProjectModel, summarize_module
from .registry import (
    Rule,
    RuleSourceError,
    WholeProgramRule,
    all_rules,
    all_whole_program_rules,
    get_rule,
    rule,
    whole_program_rule,
)
from .reporters import render_text

# Importing the rule modules registers every built-in rule.
from . import rules as _rules  # noqa: F401  (import for side effect)

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "ModuleSummary",
    "ProjectModel",
    "Rule",
    "RuleSourceError",
    "Suppressions",
    "WholeProgramRule",
    "all_rules",
    "all_whole_program_rules",
    "build_project",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
    "render_text",
    "rule",
    "summarize_module",
    "whole_program_rule",
]
