"""The lint engine: walk files, run rules, apply pragma suppressions."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .astutils import import_map, link_parents
from .findings import Finding
from .pragmas import Suppressions, parse_pragmas
from .project import ModuleSummary, ProjectModel, summarize_module
from .registry import Rule, all_rules, get_rule, split_selection

PathLike = Union[str, Path]

#: Pseudo-rule name for files that do not parse; it participates in
#: reports and exit codes but cannot be selected or pragma-suppressed.
PARSE_ERROR = "parse-error"

#: Pseudo-rule name for pragmas that violate the reason policy.
BAD_PRAGMA = "pragma-without-reason"

_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "venv", "build", "dist"}


class FileContext:
    """Everything a rule may look at for one file."""

    def __init__(self, path: str, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        #: Dotted module name relative to the package root, e.g.
        #: ``repro.core.decay`` — rules scope themselves by this.
        self.module = module
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: Local name -> qualified name, from the module's imports.
        self.imports = import_map(tree)
        link_parents(tree)

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits at or under any dotted prefix."""
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


@dataclass
class LintResult:
    """Aggregate outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: rule -> count of findings suppressed by pragmas.
    suppressed: Dict[str, int] = field(default_factory=dict)
    files: int = 0

    @property
    def ok(self) -> bool:
        """True when the run produced no (unsuppressed) findings."""
        return not self.findings

    def finalize(self) -> "LintResult":
        """Sort findings into the deterministic report order."""
        self.findings.sort()
        return self


def module_name_for(path: Path, package: str = "repro") -> str:
    """Infer the dotted module name from a file path.

    Everything from the last path component named ``package`` onwards
    forms the module (``src/repro/core/decay.py`` -> ``repro.core.decay``);
    files outside the package are named by their stem, which keeps the
    package-scoped rules from firing on scripts, tests and benchmarks.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if package in parts:
        start = len(parts) - 1 - parts[::-1].index(package)
        parts = parts[start:]
        return ".".join(parts) if parts else package
    return parts[-1] if parts else "<unknown>"


def iter_python_files(paths: Sequence[PathLike]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint, sorted."""
    seen = set()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates: Iterator[Path] = (
                p
                for p in sorted(root.rglob("*.py"))
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            candidates = iter([root])
        for path in candidates:
            if path not in seen:
                seen.add(path)
                yield path


def _select_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    if select is None:
        return all_rules()
    return [get_rule(name) for name in select]


def _check(
    source: str, path: str, module: str, rules: Sequence[Rule]
) -> Tuple[LintResult, Suppressions, Optional[FileContext]]:
    """Parse one file once and run ``rules`` over it.

    Returns the file's result, its pragma set (whose ``applied`` counts
    the exemptions used so far) and its context, which is ``None`` when
    the file does not parse.
    """
    result = LintResult(files=1)
    suppressions = parse_pragmas(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        )
        return result, suppressions, None

    ctx = FileContext(path=path, module=module, source=source, tree=tree)
    for rule in rules:
        for node, message in rule.check(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if suppressions.suppress(rule.name, line):
                continue
            result.findings.append(
                Finding(path=path, line=line, col=col, rule=rule.name, message=message)
            )
    for pragma in suppressions.missing_reasons():
        result.findings.append(
            Finding(
                path=path,
                line=pragma.line,
                col=0,
                rule=BAD_PRAGMA,
                message=(
                    "exemption pragma must carry a reason: "
                    "# anclint: disable=RULE — why this is safe"
                ),
            )
        )
    result.suppressed = dict(suppressions.applied)
    return result, suppressions, ctx


def check_source(
    source: str,
    *,
    path: str = "<snippet>",
    module: str = "<snippet>",
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint one source string (the test fixtures' entry point)."""
    return _check(source, path, module, _select_rules(select))[0].finalize()


# Alias used by tests and docs; ``lint_source`` reads better at call sites.
lint_source = check_source


def _check_path(
    file_path: Path, rules: Sequence[Rule], package: str
) -> Tuple[LintResult, Suppressions, Optional[FileContext]]:
    """:func:`_check` on a file from disk; an unreadable file is a finding."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        result = LintResult(files=1)
        result.findings.append(
            Finding(
                path=str(file_path),
                line=1,
                col=0,
                rule=PARSE_ERROR,
                message=f"cannot read file: {exc}",
            )
        )
        return result, Suppressions(), None
    module = module_name_for(file_path, package=package)
    return _check(source, str(file_path), module, rules)


def check_file(
    path: PathLike,
    *,
    select: Optional[Sequence[str]] = None,
    package: str = "repro",
) -> LintResult:
    """Lint one file from disk."""
    return _check_path(Path(path), _select_rules(select), package)[0].finalize()


def build_project(
    paths: Sequence[PathLike], *, package: str = "repro"
) -> ProjectModel:
    """Parse and summarize every file under ``paths`` into a ProjectModel."""
    summaries: List[ModuleSummary] = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError):
            continue
        module = module_name_for(file_path, package=package)
        summaries.append(summarize_module(module, str(file_path), tree))
    return ProjectModel(summaries)


def lint_paths(
    paths: Sequence[PathLike],
    *,
    select: Optional[Sequence[str]] = None,
    package: str = "repro",
) -> LintResult:
    """Lint every Python file under ``paths``; the CLI's workhorse.

    Each file is read, parsed, checked with the selected per-file rules
    and summarized once, the way :func:`check_file` checks it.  The
    summaries are then stitched into a :class:`ProjectModel` and the
    selected whole-program rules run over it.  ``select`` may name
    rules from either catalogue.
    """
    per_file_rules, wp_rules = split_selection(select)
    total = LintResult()
    summaries: List[ModuleSummary] = []
    pragmas_by_path: Dict[str, Suppressions] = {}
    for file_path in iter_python_files(paths):
        part, suppressions, ctx = _check_path(file_path, per_file_rules, package)
        total.findings.extend(part.findings)
        total.files += 1
        if ctx is not None:
            summaries.append(summarize_module(ctx.module, ctx.path, ctx.tree))
            pragmas_by_path[ctx.path] = suppressions
    if wp_rules:
        model = ProjectModel(summaries)
        for wp_rule in wp_rules:
            for path, line, col, message in wp_rule.check(model):
                supp = pragmas_by_path.get(path)
                if supp is not None and supp.suppress(wp_rule.name, line):
                    continue
                total.findings.append(
                    Finding(
                        path=path, line=line, col=col,
                        rule=wp_rule.name, message=message,
                    )
                )
    # Counted last, so a pragma a whole-program rule used is counted too.
    for supp in pragmas_by_path.values():
        for name, count in supp.applied.items():
            total.suppressed[name] = total.suppressed.get(name, 0) + count
    return total.finalize()


__all__ = [
    "BAD_PRAGMA",
    "FileContext",
    "LintResult",
    "PARSE_ERROR",
    "build_project",
    "check_file",
    "check_source",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
]
