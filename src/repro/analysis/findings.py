"""The finding record every rule yields and the report renders."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordered by (path, line, col, rule) so reports are deterministic
    regardless of rule registration or file-walk order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of a report line."""
        return f"{self.path}:{self.line}:{self.col}"


__all__ = ["Finding"]
