"""Runs the rule over files and collects what it finds."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import clockwrite

__all__ = ["Finding", "AnalysisReport", "analyze_paths", "analyze_source",
           "iter_python_files", "module_name_for_path"]

#: a fixture may pin the module name the rule sees in its first lines
_DIRECTIVE_RE = re.compile(r"^#\s*simlint:\s*module=(?P<module>[A-Za-z0-9_.]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location, ordered by
    ``(path, line, col, rule)`` so every report is deterministic."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = field(compare=False, default="")

    def format_text(self) -> str:
        out = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out

    def as_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message,
                "hint": self.hint}


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: files that failed to parse, as (path, error) -- these gate too
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list
    (sorted by posix-style path string: stable across machines)."""
    seen: dict[str, Path] = {}
    for p in paths:
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                seen[f.as_posix()] = f
        elif p.suffix == ".py":
            seen[p.as_posix()] = p
    return [seen[k] for k in sorted(seen)]


def module_name_for_path(path: Path) -> str:
    """Dotted module name derived from package structure on disk:
    ``src/repro/net/packet.py`` is ``repro.net.packet``; a file outside
    any package is just its stem."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def analyze_source(source: str, path: str = "<string>",
                   module: str | None = None) -> list[Finding]:
    """Analyze one module from text.  The module name the rule sees is
    a ``# simlint: module=NAME`` line among the first ten, else
    ``module``, else the one derived from ``path``."""
    tree = ast.parse(source, filename=path)
    for line in source.splitlines()[:10]:
        m = _DIRECTIVE_RE.match(line)
        if m:
            module = m.group("module")
            break
    if module is None:
        module = module_name_for_path(Path(path))
    return sorted(
        Finding(path=path, line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=clockwrite.RULE, message=message,
                hint=clockwrite.HINT)
        for node, message in clockwrite.check(tree, module))


def analyze_paths(paths: list[Path]) -> AnalysisReport:
    report = AnalysisReport()
    for path in iter_python_files(paths):
        report.files_scanned += 1
        try:
            report.findings += analyze_source(
                path.read_text(encoding="utf-8"), path.as_posix())
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            report.parse_errors.append((path.as_posix(), str(exc)))
    report.findings.sort()
    return report
