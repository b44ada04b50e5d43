"""Incremental lint cache: skip re-parsing files that have not changed.

The cache maps file paths to an (mtime, size, sha256) stamp plus the
per-file lint products: findings from *all* per-file rules, applied and
declared pragmas, and the :class:`~repro.analysis.project.ModuleSummary`
the whole-program pass needs.  A file whose mtime+size match is reused
immediately; on mtime change the sha256 decides (touch without edit stays
cached).  The cache key also folds in a digest of the registered rule
names and the engine cache-format version, so adding a rule or upgrading
the format invalidates everything at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .findings import Finding
from .pragmas import Pragma
from .project import ModuleSummary

#: Bumped whenever a module summary would extract differently (2: an
#: annotated ``CATALOG`` is read too).
CACHE_VERSION = 2

__all__ = ["CACHE_VERSION", "CacheEntry", "LintCache", "rules_digest"]


def rules_digest(rule_names: List[str]) -> str:
    """A stable digest of the active rule set (any change invalidates)."""
    payload = json.dumps(sorted(rule_names)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class CacheEntry:
    """Everything cached for one file."""

    mtime_ns: int
    size: int
    sha256: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: Dict[str, int] = field(default_factory=dict)
    pragmas: List[Pragma] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mtime_ns": self.mtime_ns,
            "size": self.size,
            "sha256": self.sha256,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": dict(self.suppressed),
            "pragmas": [
                {
                    "line": p.line,
                    "rules": list(p.rules),
                    "reason": p.reason,
                    "file_level": p.file_level,
                }
                for p in self.pragmas
            ],
            "summary": self.summary.to_dict() if self.summary is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CacheEntry":
        return cls(
            mtime_ns=data["mtime_ns"],
            size=data["size"],
            sha256=data["sha256"],
            findings=[
                Finding(
                    path=f["path"],
                    line=f["line"],
                    col=f["col"],
                    rule=f["rule"],
                    message=f["message"],
                )
                for f in data["findings"]
            ],
            suppressed=dict(data["suppressed"]),
            pragmas=[
                Pragma(
                    line=p["line"],
                    rules=tuple(p["rules"]),
                    reason=p["reason"],
                    file_level=p["file_level"],
                )
                for p in data["pragmas"]
            ],
            summary=(
                ModuleSummary.from_dict(data["summary"])
                if data["summary"] is not None
                else None
            ),
        )


class LintCache:
    """A JSON-file-backed map of path -> :class:`CacheEntry`."""

    def __init__(self, path: Optional[Path], digest: str) -> None:
        self.path = path
        self.digest = digest
        self.entries: Dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        if path is not None and path.exists():
            try:
                raw = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                return
            if (
                raw.get("version") == CACHE_VERSION
                and raw.get("digest") == digest
            ):
                for key, entry in raw.get("entries", {}).items():
                    try:
                        self.entries[key] = CacheEntry.from_dict(entry)
                    except (KeyError, TypeError):
                        continue

    def lookup(self, path: Path) -> Optional[CacheEntry]:
        """The cached entry for ``path`` when the file is unchanged."""
        key = str(path)
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        try:
            stat = os.stat(path)
        except OSError:
            self.misses += 1
            return None
        if stat.st_mtime_ns == entry.mtime_ns and stat.st_size == entry.size:
            self.hits += 1
            return entry
        if stat.st_size == entry.size and _sha256_file(path) == entry.sha256:
            # Touched but not edited: refresh the stamp, keep the entry.
            entry.mtime_ns = stat.st_mtime_ns
            self._dirty = True
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(
        self,
        path: Path,
        findings: List[Finding],
        suppressed: Dict[str, int],
        pragmas: List[Pragma],
        summary: Optional[ModuleSummary],
    ) -> None:
        try:
            stat = os.stat(path)
        except OSError:
            return
        self.entries[str(path)] = CacheEntry(
            mtime_ns=stat.st_mtime_ns,
            size=stat.st_size,
            sha256=_sha256_file(path),
            findings=list(findings),
            suppressed=dict(suppressed),
            pragmas=list(pragmas),
            summary=summary,
        )
        self._dirty = True

    def stats(self) -> Tuple[int, int]:
        return self.hits, self.misses

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "digest": self.digest,
            "entries": {k: e.to_dict() for k, e in self.entries.items()},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.path)
