"""Per-module analysis context: source, AST, module name, suppressions.

Suppression syntax (checked, not free-form):

.. code-block:: python

    self._hooked.add(id(sender))   # simlint: ok[R5] identity key, in-memory only

``ok[R5,R3]`` suppresses several rules on one line.  The reason text is
mandatory -- a suppression without one is itself reported (rule ``SUP``)
so silencing the analyzer always leaves a written justification behind.
A suppression on a line that holds *only* the comment applies to the
next source line (for statements too long to share a line with their
justification).

A fixture or vendored file may pin the module identity the policy layer
sees with a directive comment near the top of the file::

    # simlint: module=repro.net.some_module
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = ["ModuleContext", "SuppressionError", "module_name_for_path"]

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ok\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*?)\s*$")
_DIRECTIVE_RE = re.compile(r"#\s*simlint:\s*module=(?P<module>[A-Za-z0-9_.]+)")
_RULE_ID_RE = re.compile(r"^(R\d+|SUP)$")
#: any simlint marker, used to catch misspelled directives
_MARKER_RE = re.compile(r"#\s*simlint:")


class SuppressionError(ValueError):
    """A malformed ``# simlint:`` comment (bad rule id, missing reason)."""


@dataclass
class Suppression:
    line: int           # line the suppression applies to
    comment_line: int   # line the comment itself is on
    rules: frozenset[str]
    reason: str
    used: bool = False


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: malformed simlint comments, reported as rule ``SUP`` findings
    marker_errors: list[Finding] = field(default_factory=list)
    #: findings silenced by per-line suppressions (set by the runner)
    suppressed_count: int = 0

    @classmethod
    def from_source(cls, source: str, path: str,
                    module: str | None = None) -> "ModuleContext":
        """Parse ``source``; ``module`` overrides path-derived naming
        (itself overridden by an in-file ``module=`` directive)."""
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        directive = _find_directive(lines)
        if directive is not None:
            module = directive
        elif module is None:
            module = module_name_for_path(Path(path))
        ctx = cls(path=path, module=module, source=source, tree=tree,
                  lines=lines)
        _collect_suppressions(ctx)
        return ctx

    # -- helpers for rules ------------------------------------------------

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, node: ast.AST, rule: str, message: str,
                hint: str = "") -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(path=self.path, line=line, col=col, rule=rule,
                       message=message, hint=hint,
                       line_text=self.line_text(line))

    def in_package(self, *packages: str) -> bool:
        """True if the module lives under any of the dotted prefixes."""
        for pkg in packages:
            if self.module == pkg or self.module.startswith(pkg + "."):
                return True
        return False

    def suppressed(self, finding: Finding) -> bool:
        supp = self.suppressions.get(finding.line)
        if supp is not None and finding.rule in supp.rules:
            supp.used = True
            return True
        return False


def module_name_for_path(path: Path) -> str:
    """Dotted module name derived from package structure on disk.

    Walks up through directories containing ``__init__.py`` -- e.g.
    ``src/repro/net/packet.py`` becomes ``repro.net.packet``.  A file
    outside any package is just its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _comments(source: str) -> list[tuple[int, int, str]]:
    """(line, col, text) for every comment token.  Tokenizing -- rather
    than scanning raw lines -- keeps string literals that merely *talk*
    about simlint markers from being parsed as markers."""
    out: list[tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the AST parse already succeeded; partial comments are fine
    return out


def _find_directive(lines: list[str]) -> str | None:
    # only honoured in the first 10 lines, like coding: cookies
    source = "\n".join(lines[:10])
    for _, _, text in _comments(source):
        m = _DIRECTIVE_RE.search(text)
        if m:
            return m.group("module")
    return None


def _collect_suppressions(ctx: ModuleContext) -> None:
    for lineno, col, raw in _comments(ctx.source):
        if "simlint" not in raw:
            continue
        m = _SUPPRESS_RE.search(raw)
        if m is None:
            if _MARKER_RE.search(raw) and _DIRECTIVE_RE.search(raw) is None:
                ctx.marker_errors.append(Finding(
                    path=ctx.path, line=lineno, col=col + 1,
                    rule="SUP",
                    message="malformed simlint comment (expected "
                            "'# simlint: ok[RULE] reason' or "
                            "'# simlint: module=NAME')",
                    hint="fix the marker or delete it; simlint refuses "
                         "to guess at intent",
                    line_text=ctx.line_text(lineno)))
            continue
        rules = frozenset(
            r.strip() for r in m.group("rules").split(",") if r.strip())
        reason = m.group("reason")
        bad = sorted(r for r in rules if not _RULE_ID_RE.match(r))
        problem = None
        if not rules:
            problem = "suppression lists no rule ids"
        elif bad:
            problem = f"unknown rule id(s) {', '.join(bad)}"
        elif not reason:
            problem = "suppression has no reason text"
        if problem is not None:
            ctx.marker_errors.append(Finding(
                path=ctx.path, line=lineno, col=col + 1,
                rule="SUP",
                message=f"bad suppression: {problem}",
                hint="write '# simlint: ok[R5] <why this is safe>'",
                line_text=ctx.line_text(lineno)))
            continue
        # a comment-only line suppresses the next line
        target = lineno
        if ctx.line_text(lineno).startswith("#"):
            target = lineno + 1
        ctx.suppressions[target] = Suppression(
            line=target, comment_line=lineno, rules=rules, reason=reason)
