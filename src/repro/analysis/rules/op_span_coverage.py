"""Whole-program rule: every wire op must execute under a span.

The fleet trace (docs/observability.md) is only as complete as the
spans the servers emit: an ``_OPS`` handler that never opens a span is
a hole in every trace that crosses it — the client sees latency the
trace cannot attribute.  A handler counts as covered when any of:

* a span-creating call (``tracer.span`` / ``tracer.wire_span``) appears
  in the handler itself or in code reachable from it through the call
  graph;
* the table's class, or a base class the project defines, has a
  **dispatcher** — a method that reads the ``_OPS`` attribute and opens
  a span — which wraps every handler it dispatches (the
  ``FrontEnd._respond`` pattern every server and router inherits);
* an ``# anclint: disable=op-span-coverage — reason`` pragma on the
  handler's ``def`` line (counted, like every exemption).

Projects that do not trace at all are not nagged: the rule stays
silent until at least one span-creating call exists anywhere in the
model, so adopting the observability layer is what arms it.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..project import FunctionInfo, ProjectModel
from ..registry import whole_program_rule

__all__ = ["check"]

_SPAN_TAILS = ("span", "wire_span")


def _has_span_call(info: FunctionInfo) -> bool:
    """True when the function body opens a span directly.

    Matches every CallSite encoding a span factory can take:
    ``self.span`` / ``self.wire_span`` (engine-style mixin methods),
    ``@span`` / ``@wire_span`` (``self.tracer.span(...)`` and other
    attribute paths), and dotted module calls ending in the tail.
    """
    for call in info.calls:
        tail = call.callee.rsplit(".", 1)[-1].lstrip("@")
        if call.callee.startswith("self."):
            tail = call.callee.split(".", 1)[1]
        if tail in _SPAN_TAILS:
            return True
    return False


@whole_program_rule(
    "op-span-coverage",
    "every _OPS handler must run under a span: its own, one reachable "
    "through its calls, or a span-wrapping dispatcher",
)
def check(model: ProjectModel) -> Iterable[Tuple[str, int, int, str]]:
    if not any(
        _has_span_call(info) for _, info in model.functions.values()
    ):
        return  # project has no tracing layer; nothing to cover yet
    for summ, table in model.op_tables():
        lineage = set(model.lineage(summ.module, table.cls))
        dispatched = any(
            (owner.module, info.cls) in lineage
            and info.reads_ops
            and _has_span_call(info)
            for owner, info in model.functions.values()
        )
        if dispatched:
            continue
        seen: Set[str] = set()
        for op, _line, _col, handler in table.ops:
            name = handler.rsplit(".", 1)[-1]
            key = f"{summ.module}:{table.cls}.{name}"
            if key in seen:
                continue
            seen.add(key)
            entry = model.functions.get(key)
            if entry is None:
                # Handler not resolvable in this class; that gap is
                # protocol-conformance territory, not span coverage.
                continue
            _summ, info = entry
            covered = any(
                k in model.functions and _has_span_call(model.functions[k][1])
                for k in model.reachable({key})
            )
            if not covered:
                yield (
                    summ.path,
                    info.line,
                    0,
                    f"op {op!r} handler {table.cls}.{name} opens no span "
                    "and no span-wrapping dispatcher covers it; requests "
                    "through this op are invisible to fleet traces — wrap "
                    "the dispatch loop in a span or open one in the handler",
                )
