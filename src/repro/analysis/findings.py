"""Finding model shared by every simlint rule and reporter."""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field

__all__ = ["Finding", "baseline_key"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Orders by ``(path, line, col, rule)`` so every reporter and the
    baseline file see the same deterministic sequence regardless of
    rule-execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = field(compare=False, default="")
    #: source text of the offending line (stripped); carried so the
    #: baseline can match findings by content rather than line number
    line_text: str = field(compare=False, default="")

    def format_text(self) -> str:
        out = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


def baseline_key(finding: Finding) -> str:
    """Content-addressed key for baseline matching.

    Uses the *text* of the offending line, not its number, so pure
    line-shifting edits (a docstring grows above the finding) neither
    break the match nor let a finding escape the baseline.
    """
    path = posixpath.normpath(finding.path.replace("\\", "/"))
    return f"{finding.rule}|{path}|{finding.line_text}"
