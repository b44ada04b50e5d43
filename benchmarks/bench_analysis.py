"""Lint-speed benchmark — the CI gate's full-repo lint and a ``src`` lint.

The static-analysis gate (docs/static-analysis.md) runs on every PR and
is meant to be cheap enough for a pre-commit hook: parse each file once,
run the per-file rules over the same tree, then the whole-program pass
over the stitched summaries.  This bench times a full lint of ``src``,
``tests``, ``benchmarks`` and ``examples`` (what CI runs), then one
lint of ``src``, and asserts the repository itself is clean (the same
invariant ``tests/test_analysis.py`` pins): the full lint under 30 s,
the ``src`` lint under 10 s.
"""

import time
from pathlib import Path

from repro.analysis import all_rules, all_whole_program_rules, lint_paths
from repro.bench.reporting import format_table, save_result

REPO_ROOT = Path(__file__).resolve().parents[1]
LINT_TARGETS = [
    REPO_ROOT / name for name in ("src", "tests", "benchmarks", "examples")
]
SRC = REPO_ROOT / "src"


def timed_lint(paths):
    start = time.perf_counter()
    result = lint_paths([p for p in paths if p.exists()])
    return result, time.perf_counter() - start


def test_full_repo_lint(benchmark):
    rows = []

    def sweep():
        result, elapsed = timed_lint(LINT_TARGETS)
        rows.append(
            {
                "files": result.files,
                "rules": len(all_rules()) + len(all_whole_program_rules()),
                "findings": len(result.findings),
                "suppressed": sum(result.suppressed.values()),
                "total_s": elapsed,
                "ms_per_file": 1e3 * elapsed / max(result.files, 1),
            }
        )

    benchmark.pedantic(sweep, rounds=3, iterations=1)
    src_result, src_s = timed_lint([SRC])

    print()
    print(format_table(rows, title="Full-repo lint (all rules)"))
    print(f"src lint: {src_result.files} files in {src_s:.2f} s")
    best = min(rows, key=lambda r: r["total_s"])
    save_result(
        "analysis_lint",
        {
            "rows": rows,
            "best": best,
            "src": {"files": src_result.files, "total_s": src_s},
        },
    )
    # The repo lints clean, and both runs stay hook-friendly.
    assert all(r["findings"] == 0 for r in rows)
    assert src_result.findings == []
    assert best["total_s"] < 30.0
    assert src_s < 10.0
