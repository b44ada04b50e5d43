"""Render a :class:`~repro.analysis.engine.LintResult` as the text report."""

from __future__ import annotations

from .engine import LintResult


def render_text(result: LintResult) -> str:
    """The human report: one ``path:line:col: rule: message`` per finding,
    then a summary line that also accounts for pragma exemptions."""
    lines = [
        f"{f.location()}: {f.rule}: {f.message}" for f in result.findings
    ]
    suppressed_total = sum(result.suppressed.values())
    noun = "finding" if len(result.findings) == 1 else "findings"
    summary = (
        f"{len(result.findings)} {noun} in {result.files} file"
        f"{'' if result.files == 1 else 's'}"
    )
    if suppressed_total:
        per_rule = ", ".join(
            f"{name} x{count}" for name, count in sorted(result.suppressed.items())
        )
        summary += f" ({suppressed_total} suppressed by pragma: {per_rule})"
    lines.append(summary)
    return "\n".join(lines)


__all__ = ["render_text"]
